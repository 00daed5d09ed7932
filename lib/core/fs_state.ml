(* The mounted file system's state and the log mechanisms every layer
   above shares: handles, appends, the kill path, the flushes and the
   checkpoint.  {!Tier_policy}, {!Clean} and {!Fs} sit on top, in that
   order. *)

module Vdev = Lfs_disk.Vdev
module Vdev_cache = Lfs_disk.Vdev_cache
module Vdev_tier = Lfs_disk.Vdev_tier
module Io_stats = Lfs_disk.Io_stats
module Prng = Lfs_util.Prng
module Buf_pool = Lfs_util.Buf_pool
module Metrics = Lfs_obs.Metrics

(* A cached inode and block map.  Whether the log's copy is stale is
   not the handle's to say: its ino is in the mount's dirty set. *)
type handle = {
  inode : Inode.t;
  fmap : Filemap.t;
  mutable content : Directory.t option;  (* directories only *)
}

module Ino_set = Set.Make (Int)

(* Observability handles: one {!Lfs_obs.Metrics} registry per mounted
   file system, plus the instruments that hot paths update directly.
   Latency histograms record modelled disk time (the busy_s of the
   device the caller handed us), not wall-clock. *)
type obs = {
  metrics : Metrics.t;
  op_create : Metrics.histogram;
  op_mkdir : Metrics.histogram;
  op_link : Metrics.histogram;
  op_unlink : Metrics.histogram;
  op_rmdir : Metrics.histogram;
  op_rename : Metrics.histogram;
  op_read : Metrics.histogram;
  op_write : Metrics.histogram;
  op_truncate : Metrics.histogram;
  ckpt_busy : Metrics.histogram;
  ckpt_blocks : Metrics.histogram;
  victim_u : Metrics.dist;
  victim_fill : Metrics.histogram;
      (* fullness of each victim when cleaned, as a histogram rather
         than a mean: with segregated heads the bench expects a bimodal
         shape — cold segments stay full while hot ones decay empty *)
  victim_age : Metrics.histogram;
      (* modelled-time age of each cleaned victim: the axis demotion
         policy tuning needs next to utilisation (Fig. 6 plots both) *)
  (* Foreground (threshold-triggered, writer-stalling) and background
     (idle-time {!Clean.clean_step}) cleaning accounted separately, so a
     bench can show cleaning load migrating out of the write path. *)
  fg_passes : Metrics.counter;
  bg_passes : Metrics.counter;
  fg_segments : Metrics.counter;
  bg_segments : Metrics.counter;
  fg_busy : Metrics.histogram;
  bg_busy : Metrics.histogram;
  cleaner_stall : Metrics.histogram;
      (* disk time a foreground [clean] invocation held up its caller *)
  (* Tiered volumes: the cleaner's third regime (demotion passes) and
     promotion-on-read, accounted like fg/bg cleaning. *)
  demote_passes : Metrics.counter;
  demote_segments : Metrics.counter;
  demote_busy : Metrics.histogram;
  promote_segments : Metrics.counter;
}

let make_obs ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let op name = Metrics.histogram metrics ("fs.op." ^ name ^ ".busy_s") in
  {
    metrics;
    op_create = op "create";
    op_mkdir = op "mkdir";
    op_link = op "link";
    op_unlink = op "unlink";
    op_rmdir = op "rmdir";
    op_rename = op "rename";
    op_read = op "read";
    op_write = op "write";
    op_truncate = op "truncate";
    ckpt_busy = Metrics.histogram metrics "fs.checkpoint.busy_s";
    ckpt_blocks =
      Metrics.histogram ~lo:1.0 ~hi:1e6 metrics "fs.checkpoint.blocks";
    victim_u = Metrics.dist metrics "fs.cleaner.victim_u";
    victim_fill =
      Metrics.histogram ~lo:0.001 ~hi:1.0 metrics "fs.cleaner.victim_fill";
    victim_age =
      Metrics.histogram ~lo:1.0 ~hi:1e6 metrics "fs.cleaner.victim_age";
    fg_passes = Metrics.counter metrics "fs.cleaner.fg.passes";
    bg_passes = Metrics.counter metrics "fs.cleaner.bg.passes";
    fg_segments = Metrics.counter metrics "fs.cleaner.fg.segments";
    bg_segments = Metrics.counter metrics "fs.cleaner.bg.segments";
    fg_busy = Metrics.histogram metrics "fs.cleaner.fg.busy_s";
    bg_busy = Metrics.histogram metrics "fs.cleaner.bg.busy_s";
    cleaner_stall = Metrics.histogram metrics "fs.cleaner.stall_s";
    demote_passes = Metrics.counter metrics "fs.cleaner.demote.passes";
    demote_segments = Metrics.counter metrics "fs.cleaner.demote.segments";
    demote_busy = Metrics.histogram metrics "fs.cleaner.demote.busy_s";
    promote_segments = Metrics.counter metrics "fs.cleaner.promote.segments";
  }

(* Long-run accounting (Section 3.4's write cost, Tables 2 and 4).  Each
   event is counted once, into one of these counters; a total or ratio
   over them is a callback gauge, and a measurement window is a snapshot
   diff read through {!Fs_stats}.  Registered after the device layers so
   reports keep their order. *)
type acct = {
  log_blocks : Metrics.counter array;  (* appended, by [block_kind_to_int] *)
  log_cleaner : Metrics.counter;  (* of those, appended by the cleaner *)
  inline_inode_bytes : Metrics.counter;
  inline_record_bytes : Metrics.counter;
      (* inode and dir-log bytes carried in summaries: {!Fs_stats}
         counts them under their own kinds, not the summaries' *)
  cleaner_read : Metrics.counter;
  self_emptied : Metrics.counter;  (* segments whose last live byte died *)
  checkpoints : Metrics.counter;
}

let make_acct m =
  let c name = Metrics.counter m ("fs." ^ name) in
  let g name f = Metrics.gauge_fn m ("fs." ^ name) f in
  let total name = Metrics.float_value m ("fs." ^ name) in
  let kind_name k = "log.blocks." ^ Types.block_kind_name k in
  g "log.blocks_new" (fun () ->
      List.fold_left (fun n k -> n +. total (kind_name k)) 0.0 Types.all_block_kinds
      -. total "log.blocks_cleaner");
  let log_cleaner = c "log.blocks_cleaner" in
  let log_blocks =
    Array.init (List.length Types.all_block_kinds) (fun i ->
        c (kind_name (Types.block_kind_of_int i)))
  in
  let inline_inode_bytes = c (Fs_stats.inline_bytes_name Types.Inode_block) in
  let inline_record_bytes = c (Fs_stats.inline_bytes_name Types.Dir_log) in
  let cleaner_read = c "cleaner.blocks_read" in
  g "cleaner.segments_cleaned" (fun () ->
      total "cleaner.fg.segments" +. total "cleaner.bg.segments"
      +. total "cleaner.segments_cleaned_empty");
  let self_emptied = c "cleaner.segments_cleaned_empty" in
  g "cleaner.avg_cleaned_u" (fun () -> Fs_stats.avg_cleaned_u_nonempty m);
  g "write_cost" (fun () -> Fs_stats.write_cost m);
  let checkpoints = c "checkpoints" in
  {
    log_blocks;
    log_cleaner;
    inline_inode_bytes;
    inline_record_bytes;
    cleaner_read;
    self_emptied;
    checkpoints;
  }

let note_written acct kind ~cleaner =
  Metrics.incr acct.log_blocks.(Types.block_kind_to_int kind);
  if cleaner then Metrics.incr acct.log_cleaner

(* The inode map and the usage table reach the log the same way
   (Section 4.1): as numbered blocks, each rewritten whole, whose
   addresses the checkpoint region records. *)
type table = {
  kind : Types.block_kind;
  nblocks : int;
  addr : int -> Types.baddr;
  set_addr : int -> Types.baddr -> unit;
  dirty : unit -> int list;
  encode_into : int -> bytes -> pos:int -> unit;
  clear_dirty : int -> unit;
}

let imap_table m =
  {
    kind = Types.Imap;
    nblocks = Inode_map.nblocks m;
    addr = Inode_map.block_addr m;
    set_addr = Inode_map.set_block_addr m;
    dirty = (fun () -> Inode_map.dirty_blocks m);
    encode_into = Inode_map.encode_block_into m;
    clear_dirty = Inode_map.clear_block_dirty m;
  }

let usage_table u =
  {
    kind = Types.Seg_usage;
    nblocks = Seg_usage.nblocks u;
    addr = Seg_usage.block_addr u;
    set_addr = Seg_usage.set_block_addr u;
    dirty = (fun () -> Seg_usage.dirty_blocks u);
    encode_into = Seg_usage.encode_block_into u;
    clear_dirty = Seg_usage.clear_block_dirty u;
  }

type t = {
  disk : Vdev.t;  (* the device the caller handed us (may itself be a stack) *)
  cache : Vdev_cache.t;
  dev : Vdev.t;  (* [disk] behind the block cache; all internal IO uses this *)
  layout : Layout.t;
  config : Config.t;
  imap : Inode_map.t;
  usage : Seg_usage.t;
  tables : table list;  (* the imap's, then the usage table's *)
  log : Log_writer.t;
  handles : (Types.ino, handle) Hashtbl.t;
  mutable dirty_inos : Ino_set.t;
      (* the handles the next flush writes: every mutation of a cached
         inode or block map goes through [mark_dirty] *)
  dirty_data : (Types.ino * int, bytes) Hashtbl.t;
      (* the write buffer: file blocks written since the last flush,
         each in a block buffer of its own that the write path changes
         in place *)
  wb_blocks : Buf_pool.t;  (* given back once dropped or logged *)
  mutable pending_dirops : Dir_log.record list;  (* newest first *)
  pool : Seg_pool.t;
  cleaner_attr : bool ref;  (* current appends belong to the cleaner *)
  acct : acct;
  ckpt_buf : Buf_pool.Scratch.t;  (* the region a checkpoint renders *)
  edge_buf : Buf_pool.Scratch.t;  (* a file read's part-covered run: see {!Fs.read_run} *)
  victim_bufs : Buf_pool.t;  (* one segment each: see {!Clean.read_victim} *)
  mutable pass_bufs : bytes list;  (* taken by this pass, one per victim *)
  mutable clock : float;
  mutable ops_since_ckpt : int;
  mutable blocks_since_ckpt : int;
  mutable ckpt_region : int;  (* region to write next *)
  mutable in_cleaner : bool;
  mutable bg_active : bool;  (* background cleaner engaged (hysteresis latch) *)
  mutable bg_slack : float;
      (* victims' free space, in segments, of the background passes
         since the pool last rose or the clock last moved *)
  mutable bg_clock : float;  (* the clock at the last background pass *)
  mutable in_checkpoint : bool;
  mutable checkpoint_hook : unit -> unit;
  log_batch_hook : (blocks:int -> unit) ref;
  rng : Prng.t;
  obs : obs;
  tier : Vdev_tier.t option;
      (* set when [disk] is (or wraps) a tiered volume whose chunks are
         this layout's segments; enables demotion/promotion *)
  tier_reads : (int, int) Hashtbl.t;
      (* slow segment -> demand reads seen; {!Tier_policy} counts them,
         and the kill path forgets a segment once it empties *)
}

(* Modelled time for spans: the outer device's cumulative busy time. *)
let op_span t h f =
  Metrics.span h ~clock:(fun () -> (Vdev.stats t.disk).Io_stats.busy_s) f

let block_size t = t.layout.Layout.block_size

(* In-memory location for inodes created but not yet written to the log;
   block 0 is the superblock so no real inode can ever live there. *)
let placeholder_iaddr = Types.Iaddr.make ~block:0 ~slot:0

(* Apply [f] to block [addr] as the cache holds it, under
   {!Vdev_cache.with_block}'s borrow contract: [f] decodes or blits and
   does no IO. *)
let with_block t addr f = Vdev_cache.with_block t.cache addr f

let clean_segment_count t = Seg_usage.clean_count t.usage

(* The one kill path: every dying byte in the log — a block, or an inode
   in its slot — is subtracted here. *)
let kill t addr ~bytes =
  let seg = Layout.seg_of_block t.layout addr in
  if seg < 0 then
    Types.corrupt "attempt to kill fixed-area block %d" addr;
  Seg_usage.kill t.usage seg ~bytes;
  if Seg_usage.live_bytes t.usage seg = 0 then begin
    (* The next life of the segment starts with no reads counted. *)
    Hashtbl.remove t.tier_reads seg;
    (* A segment whose last live byte dies is reclaimed without cleaning
       (Section 3.6); Table 2 counts such segments as cleaned-empty. *)
    if not (Seg_pool.is_victim t.pool seg) then Metrics.incr t.acct.self_emptied
  end

(* The old on-disk copy of an inode dies, if it has one. *)
let kill_inode t iaddr =
  if
    (not (Types.Iaddr.is_nil iaddr))
    && not (Types.Iaddr.equal iaddr placeholder_iaddr)
  then kill t (Types.Iaddr.block iaddr) ~bytes:t.layout.Layout.inode_size

(* Every log write is routed by temperature (Section 3.5): fresh
   foreground data to head 0, cleaner survivors to the cold head(s).
   With more than two heads the survivors spread into age bins,
   [demote_age_s] wide, so data that has already proven cold lands apart
   from the merely lukewarm. *)
let head_for t ~mtime =
  let n = Log_writer.nheads t.log in
  if n = 1 || not !(t.cleaner_attr) then 0
  else if n = 2 then 1
  else
    let age = Float.max 0.0 (t.clock -. mtime) in
    let bin = int_of_float (age /. Float.max 1.0 t.config.Config.demote_age_s) in
    1 + min (n - 2) bin

(* Every log append goes through here so traffic is attributed.  [from]
   is as in {!Log_writer.append}. *)
let append_block ?from t ~kind ~ino ~blockno ~version ~mtime payload =
  note_written t.acct kind ~cleaner:!(t.cleaner_attr);
  t.blocks_since_ckpt <- t.blocks_since_ckpt + 1;
  Log_writer.append ~head:(head_for t ~mtime) ?from t.log ~kind ~ino ~blockno
    ~version ~mtime payload

(* Run [f] with its appends attributed to the cleaner or not. *)
let attributed t ~cleaner f =
  let saved = !(t.cleaner_attr) in
  t.cleaner_attr := cleaner;
  Fun.protect ~finally:(fun () -> t.cleaner_attr := saved) f

(* {1 Inode handles} *)

let decode_inode t iaddr =
  with_block t (Types.Iaddr.block iaddr) (fun b ->
      Inode.decode b ~slot:(Types.Iaddr.slot iaddr))

(* A handle over a decoded inode: its block map loaded, no directory
   contents yet.  [with_block] (default: through the cache) lends the
   map's indirect blocks. *)
let handle_of_inode ?with_block:lend t inode =
  let with_block = Option.value lend ~default:(with_block t) in
  let fmap = Filemap.load ~with_block t.layout inode in
  { inode; fmap; content = None }

let load_handle t ino =
  let iaddr = Inode_map.location t.imap ino in
  if Types.Iaddr.is_nil iaddr then Types.fs_error "no such inode %d" ino;
  if Types.Iaddr.equal iaddr placeholder_iaddr then
    Types.corrupt "inode %d has no on-disk copy and no handle" ino;
  match decode_inode t iaddr with
  | None -> Types.corrupt "inode %d: slot %a is unused" ino Types.Iaddr.pp iaddr
  | Some inode ->
      if inode.Inode.ino <> ino then
        Types.corrupt "inode %d: slot holds inode %d" ino inode.Inode.ino;
      handle_of_inode t inode

let get_handle t ino =
  match Hashtbl.find_opt t.handles ino with
  | Some h -> h
  | None ->
      let h = load_handle t ino in
      Hashtbl.replace t.handles ino h;
      h

(* The next flush writes [ino]'s cached inode and block map. *)
let mark_dirty t ino = t.dirty_inos <- Ino_set.add ino t.dirty_inos

(* Bound the handle cache; only clean handles may be dropped. *)
let handle_cache_limit = 100_000

let maybe_evict_handles t =
  if Hashtbl.length t.handles > handle_cache_limit then
    Hashtbl.filter_map_inplace
      (fun ino h ->
        if ino = Types.root_ino || Ino_set.mem ino t.dirty_inos then Some h
        else None)
      t.handles

let version_of t ino = Inode_map.version t.imap ino

(* {1 Flushing the file cache to the log}

   Every flush ends with a {!Log_writer.sync}, which renders each
   [Lazy] payload the flush appended: metadata blocks are rendered from
   the live handles, records and maps straight into the writer's
   transfer buffer, so nothing they read may change before that sync.

   The placement rule for a flush's small metadata, all or nothing per
   kind: its directory-operation records ride in the summary of the
   batch they open when they all fit there, and so do its dirty inodes
   in the summary of the batch that ends the flush; otherwise they take
   dir-log and inode blocks ({!Log_writer.inline_records}). *)

let flush_dirops t =
  if t.pending_dirops <> [] then begin
    let records = List.rev t.pending_dirops in
    t.pending_dirops <- [];
    let block_size = block_size t in
    let mtime = t.clock in
    if Log_writer.inline_records ~head:(head_for t ~mtime) t.log ~mtime records
    then
      Metrics.incr ~by:(Dir_log.records_size records) t.acct.inline_record_bytes
    else
      List.iter
        (fun group ->
          let (_ : Types.baddr) =
            append_block t ~kind:Types.Dir_log ~ino:0 ~blockno:0 ~version:0
              ~mtime (Log_writer.Lazy (Dir_log.encode_block_into ~block_size group))
          in
          ())
        (Dir_log.group_blocks ~block_size records)
  end

(* Append every buffered data block; returns their buffers, which the
   log writer reads until the flush's sync. *)
let flush_data_blocks t =
  if Hashtbl.length t.dirty_data = 0 then []
  else begin
    (* Group by inode, ascending block numbers, for sequential layout. *)
    let by_ino = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (ino, blockno) b ->
        let l = Option.value ~default:[] (Hashtbl.find_opt by_ino ino) in
        Hashtbl.replace by_ino ino ((blockno, b) :: l))
      t.dirty_data;
    let inos = Hashtbl.fold (fun ino _ acc -> ino :: acc) by_ino [] in
    let written = ref [] in
    List.iter
      (fun ino ->
        let h = get_handle t ino in
        let blocks =
          List.sort (fun (a, _) (b, _) -> Int.compare a b) (Hashtbl.find by_ino ino)
        in
        List.iter
          (fun (blockno, b) ->
            let old = Filemap.get h.fmap blockno in
            let addr =
              append_block t ~kind:Types.Data ~ino ~blockno
                ~version:(version_of t ino) ~mtime:h.inode.Inode.mtime
                (Log_writer.Bytes (b, 0))
            in
            Filemap.set h.fmap blockno addr;
            if old <> Types.nil_addr then kill t old ~bytes:(block_size t);
            Hashtbl.remove t.dirty_data (ino, blockno);
            written := b :: !written)
          blocks;
        mark_dirty t ino)
      (List.sort Int.compare inos);
    !written
  end

let flush_filemaps_and_inodes t =
  (* The dirty set, in ascending ino order: the order the inodes are
     packed in. *)
  let pending =
    List.map
      (fun ino ->
        match Hashtbl.find_opt t.handles ino with
        | Some h -> (ino, h)
        | None -> Types.corrupt "dirty inode %d has no cached handle" ino)
      (Ino_set.elements t.dirty_inos)
  in
  (* Indirect blocks first (the inode must point at their new copies).
     The map flush also refreshes the inode's direct pointers, so it must
     run for every inode about to be written, not only when an indirect
     chunk is dirty. *)
  List.iter
    (fun (ino, h) ->
      Filemap.flush h.fmap h.inode
        ~alloc:(fun ~kind ~blockno render ->
          append_block t ~kind ~ino ~blockno ~version:(version_of t ino)
            ~mtime:h.inode.Inode.mtime (Log_writer.Lazy render))
        ~free:(fun addr -> kill t addr ~bytes:(block_size t)))
    pending;
  (* Each inode's new copy goes live at [block], slots from [first] on:
     in the summary that ends the flush when they all fit there, else
     packed into inode blocks. *)
  let inode_size = t.layout.Layout.inode_size in
  let newest group =
    List.fold_left (fun acc (_, h) -> Float.max acc h.inode.Inode.mtime) 0.0 group
  in
  let place group (block, first) =
    let seg = Layout.seg_of_block t.layout block in
    List.iteri
      (fun i (ino, h) ->
        kill_inode t (Inode_map.location t.imap ino);
        Seg_usage.add_live t.usage seg ~bytes:inode_size ~mtime:h.inode.Inode.mtime;
        Inode_map.set_location t.imap ino
          (Types.Iaddr.make ~block ~slot:(first + i));
        t.dirty_inos <- Ino_set.remove ino t.dirty_inos)
      group
  in
  let per_block = t.layout.Layout.inodes_per_block in
  let rec pack = function
    | [] -> ()
    | group ->
        let n = min per_block (List.length group) in
        let batch = List.filteri (fun i _ -> i < n) group in
        let rest = List.filteri (fun i _ -> i >= n) group in
        let render buf ~pos =
          Bytes.fill buf pos (block_size t) '\000';
          List.iteri (fun slot (_, h) -> Inode.encode ~pos h.inode buf ~slot) batch
        in
        let addr =
          append_block t ~kind:Types.Inode_block ~ino:0 ~blockno:0 ~version:0
            ~mtime:(newest batch) (Log_writer.Lazy render)
        in
        place batch (addr, 0);
        pack rest
  in
  let mtime = newest pending in
  match
    Log_writer.inline_inodes ~head:(head_for t ~mtime) t.log ~mtime
      (List.map (fun (_, h) -> h.inode) pending)
  with
  | Some at ->
      Metrics.incr ~by:(List.length pending * inode_size) t.acct.inline_inode_bytes;
      place pending at
  | None -> pack pending

(* Flush order matters for recovery: directory-log records first, then
   data, then indirect blocks, then inodes (Section 4.2). *)
let flush t ~cleaner =
  attributed t ~cleaner (fun () ->
      flush_dirops t;
      let written = flush_data_blocks t in
      flush_filemaps_and_inodes t;
      Log_writer.sync t.log;
      List.iter (Buf_pool.give t.wb_blocks) written)

(* [sync] is the fsync barrier: flush, then await every outstanding log
   write so durability is settled before returning.  Internal flushes
   (buffer pressure, the cleaner) skip the barrier and pipeline. *)
let sync t =
  flush t ~cleaner:false;
  ignore (Log_writer.barrier t.log)

(* {1 Checkpoints} *)

let refresh_pool t =
  Seg_pool.refresh t.pool t.usage ~active:(Log_writer.active_segments t.log)

(* Append a fresh copy of table block [i] and kill the old one.  The
   block self-describes accounting that appending it changes, so its
   payload is rendered lazily at batch-write time, straight into the log
   writer's transfer buffer, and rendering clears its dirty flag. *)
let rewrite_table_block t tb i =
  let old = tb.addr i in
  let fresh =
    append_block t ~kind:tb.kind ~ino:0 ~blockno:i ~version:0 ~mtime:t.clock
      (Log_writer.Lazy
         (fun buf ~pos ->
           tb.encode_into i buf ~pos;
           tb.clear_dirty i))
  in
  tb.set_addr i fresh;
  if old <> Types.nil_addr then kill t old ~bytes:(block_size t)

let checkpoint t =
  if t.in_checkpoint then ()
  else begin
    t.in_checkpoint <- true;
    Fun.protect
      ~finally:(fun () -> t.in_checkpoint <- false)
      (fun () ->
        flush t ~cleaner:false;
        (* The checkpoint's own IO starts here: the flush above wrote
           foreground data.  (On a queued device that data's service
           time is charged when the barrier below retires it.) *)
        let before = Io_stats.copy (Vdev.stats t.disk) in
        (* A batch may auto-sync mid-cycle, in which case the cycle's
           later appends re-dirty already-written table blocks — so
           cycles repeat until a whole cycle lands in one batch and
           nothing is dirty after the sync. *)
        let cycles = ref 0 in
        while List.exists (fun tb -> tb.dirty () <> []) t.tables do
          incr cycles;
          if !cycles > 100 then
            Types.corrupt "checkpoint: metadata flush failed to converge";
          List.iter
            (fun tb -> List.iter (rewrite_table_block t tb) (tb.dirty ()))
            t.tables;
          Log_writer.sync t.log
        done;
        (* The checkpoint region must not land ahead of the log blocks
           it points at: barrier before writing it. *)
        ignore (Log_writer.barrier t.log);
        let region =
          {
            Checkpoint.timestamp = t.clock;
            log_seq = Log_writer.seq t.log;
            heads = Log_writer.positions t.log;
            imap_addrs =
              Array.init (Inode_map.nblocks t.imap) (Inode_map.block_addr t.imap);
            usage_addrs =
              Array.init (Seg_usage.nblocks t.usage) (Seg_usage.block_addr t.usage);
          }
        in
        Checkpoint.write t.layout t.disk ~scratch:t.ckpt_buf
          ~region:t.ckpt_region region;
        t.ckpt_region <- 1 - t.ckpt_region;
        t.ops_since_ckpt <- 0;
        t.blocks_since_ckpt <- 0;
        Metrics.incr t.acct.checkpoints;
        refresh_pool t;
        maybe_evict_handles t;
        t.checkpoint_hook ();
        let d = Io_stats.diff (Vdev.stats t.disk) before in
        Metrics.observe t.obs.ckpt_busy d.Io_stats.busy_s;
        Metrics.observe t.obs.ckpt_blocks
          (float_of_int d.Io_stats.blocks_written))
  end

(* Scored segments a pass may take — cleaning or demotion: live, not
   pinned, and satisfying [keep]. *)
let candidates t ~keep segs =
  let active = Log_writer.active_segments t.log in
  List.filter_map
    (fun s ->
      if
        Seg_pool.pinned t.pool ~active s
        || Seg_usage.live_bytes t.usage s = 0
        || not (keep s)
      then None
      else
        Some
          {
            Cleaner.seg = s;
            u = Seg_usage.utilization t.usage s;
            age = Float.max 0.0 (t.clock -. Seg_usage.mtime t.usage s);
          })
    segs

(* {1 Construction} *)

(* Point the registry at the layers that need the mounted [t]; callback
   gauges read the current values at report time. *)
let register_fs_metrics t =
  let m = t.obs.metrics in
  let g name f = Metrics.gauge_fn m ("fs." ^ name) f in
  g "clean_segments" (fun () -> float_of_int (clean_segment_count t));
  (* Per-head traffic: with segregation on, the bench expects the cold
     heads' [blocks] to stay a small fraction of head 0's. *)
  for i = 0 to Log_writer.nheads t.log - 1 do
    let hname field = Printf.sprintf "log.head.%d.%s" i field in
    let hstat f = float_of_int (f (Log_writer.head_stats t.log i)) in
    g (hname "segments") (fun () -> hstat (fun h -> h.Log_writer.segments));
    g (hname "blocks") (fun () -> hstat (fun h -> h.Log_writer.blocks));
    g (hname "syncs") (fun () -> hstat (fun h -> h.Log_writer.syncs))
  done;
  match t.tier with
  | None -> ()
  | Some ti -> Vdev_tier.register_metrics m ti

let make_t ?metrics ?tier disk sb ~config ~imap ~usage ~heads ~seq ~clock
    ~ckpt_region =
  let layout = sb.Superblock.layout in
  (match tier with
  | None -> ()
  | Some ti ->
      (* Chunks must be this layout's segments 1:1 — the demotion and
         promotion paths index the placement map by segment id. *)
      if
        Vdev_tier.base ti <> layout.Layout.seg_start
        || Vdev_tier.chunk_blocks ti <> layout.Layout.seg_blocks
        || Vdev_tier.nchunks ti <> layout.Layout.nsegs
      then
        invalid_arg
          "Fs: tier geometry does not match the layout (chunks must equal \
           segments)");
  let pool = Seg_pool.create tier in
  let cleaner_attr = ref false in
  let obs = make_obs ?metrics () in
  let cache = Vdev_cache.create ~capacity:config.Config.cache_blocks disk in
  let dev = Vdev_cache.vdev cache in
  Vdev.register_metrics obs.metrics disk;
  Vdev_cache.register_metrics obs.metrics cache;
  let acct = make_acct obs.metrics in
  let on_append kind ~seg ~mtime =
    let bytes =
      match kind with
      | Types.Data | Types.Indirect | Types.Dindirect | Types.Imap
      | Types.Seg_usage ->
          layout.Layout.block_size
      | Types.Inode_block | Types.Summary | Types.Dir_log -> 0
    in
    Seg_usage.add_live usage seg ~bytes ~mtime
  in
  let log_batch_hook = ref (fun ~blocks:_ -> ()) in
  let on_batch ~head:_ ~addr:_ ~blocks =
    (* Log batches flow through the cache layer, which keeps itself
       coherent when the log reuses cleaned segments. *)
    note_written acct Types.Summary ~cleaner:!cleaner_attr;
    !log_batch_hook ~blocks
  in
  let log =
    Log_writer.create layout dev ~pick_clean:(Seg_pool.pick pool) ~on_append
      ~on_batch ~heads ~seq
  in
  let t =
    {
      disk;
      cache;
      dev;
      layout;
      config;
      imap;
      usage;
      tables = [ imap_table imap; usage_table usage ];
      log;
      handles = Hashtbl.create 256;
      dirty_inos = Ino_set.empty;
      dirty_data = Hashtbl.create 256;
      wb_blocks =
        Buf_pool.create ~bound:config.Config.write_buffer_blocks
          layout.Layout.block_size;
      pending_dirops = [];
      pool;
      cleaner_attr;
      acct;
      ckpt_buf = Buf_pool.Scratch.create ();
      edge_buf = Buf_pool.Scratch.create ();
      victim_bufs =
        Buf_pool.create ~bound:config.Config.segs_per_pass
          (layout.Layout.seg_blocks * layout.Layout.block_size);
      pass_bufs = [];
      clock;
      ops_since_ckpt = 0;
      blocks_since_ckpt = 0;
      ckpt_region;
      in_cleaner = false;
      bg_active = false;
      bg_slack = 0.0;
      bg_clock = neg_infinity;
      in_checkpoint = false;
      checkpoint_hook = (fun () -> ());
      log_batch_hook;
      rng = Prng.create ~seed:0x5EED;
      obs;
      tier;
      tier_reads = Hashtbl.create 16;
    }
  in
  register_fs_metrics t;
  refresh_pool t;
  t

(* [f ()], and the activity it caused on [disk]. *)
let with_io disk f =
  let before = Io_stats.copy (Vdev.stats disk) in
  let x = f () in
  (x, Io_stats.diff (Vdev.stats disk) before)

(* The one way onto a formatted volume, for [mount] and [recover]:
   superblock, geometry guard, newest checkpoint region, then where the
   heads stand — at the checkpoint, or past it with [roll_forward], whose
   scan reads the log before the tables load — then the inode map and
   usage table.  Segments holding post-checkpoint writes look clean in
   the checkpoint's usage table but contain the data being recovered;
   they stay out of the pool until the adjusted table says so.  Also
   returns the device activity of the scan and of the table loads, by
   phase name. *)
let open_volume ~caller ~roll_forward ?config ?metrics ?tier disk =
  let sb = Superblock.load disk in
  let layout = sb.Superblock.layout in
  let fixed = sb.Superblock.config in
  let cfg = Option.value ~default:fixed config in
  if cfg.Config.block_size <> fixed.Config.block_size
     || cfg.Config.seg_blocks <> fixed.Config.seg_blocks
     || cfg.Config.max_inodes <> fixed.Config.max_inodes
     || cfg.Config.log_heads <> fixed.Config.log_heads
  then invalid_arg (caller ^ ": geometry fields cannot be overridden");
  match Checkpoint.read_latest layout disk with
  | None -> Types.corrupt "no valid checkpoint region: not a formatted LFS"
  | Some (region, ck) ->
      let log, scan_io =
        with_io disk (fun () ->
            if roll_forward then Recovery.scan layout disk ~ckpt:ck
            else
              {
                Recovery.writes = [];
                latest_inodes = Hashtbl.create 1;
                indirect_blocks = Hashtbl.create 1;
                tails = ck.Checkpoint.heads;
                next_seq = ck.Checkpoint.log_seq;
                segments_scanned = 0;
                watermark = ck.Checkpoint.log_seq;
                blocks_verified = 0;
              })
      in
      let read = Vdev.read_blocks disk in
      let (imap, usage), tables_io =
        with_io disk (fun () ->
            let imap =
              Inode_map.load layout ~read ~block_addrs:ck.Checkpoint.imap_addrs
            in
            (imap, Seg_usage.load layout ~read ~block_addrs:ck.Checkpoint.usage_addrs))
      in
      let newest_ts =
        List.fold_left
          (fun acc w -> Float.max acc w.Recovery.summary.Summary.timestamp)
          ck.Checkpoint.timestamp log.Recovery.writes
      in
      let t =
        make_t ?metrics ?tier disk sb ~config:cfg ~imap ~usage
          ~heads:log.Recovery.tails ~seq:log.Recovery.next_seq
          ~clock:(newest_ts +. 1.0) ~ckpt_region:(1 - region)
      in
      let touched = Hashtbl.create 8 in
      List.iter
        (fun w -> Hashtbl.replace touched w.Recovery.summary.Summary.seg ())
        log.Recovery.writes;
      Seg_pool.withhold t.pool (Hashtbl.mem touched);
      (t, log, [ ("scan", scan_io); ("tables", tables_io) ])
