module Vdev = Lfs_disk.Vdev
module Vdev_cache = Lfs_disk.Vdev_cache
module Vdev_tier = Lfs_disk.Vdev_tier
module Io_stats = Lfs_disk.Io_stats
module Prng = Lfs_util.Prng
module Metrics = Lfs_obs.Metrics

type stat = {
  st_ino : Types.ino;
  st_ftype : Types.ftype;
  st_size : int;
  st_nlink : int;
  st_mtime : float;
  st_atime : float;
  st_version : int;
}

type handle = {
  inode : Inode.t;
  fmap : Filemap.t;
  mutable inode_dirty : bool;
  mutable content : bytes option;  (* whole-content cache, directories only *)
}

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
     (idle-time {!clean_step}) cleaning accounted separately, so a bench
     can show cleaning load migrating out of the write path. *)
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
  let cleaner_read = c "cleaner.blocks_read" in
  g "cleaner.segments_cleaned" (fun () ->
      total "cleaner.fg.segments" +. total "cleaner.bg.segments"
      +. total "cleaner.segments_cleaned_empty");
  let self_emptied = c "cleaner.segments_cleaned_empty" in
  g "cleaner.avg_cleaned_u" (fun () -> Fs_stats.avg_cleaned_u_nonempty m);
  g "write_cost" (fun () -> Fs_stats.write_cost m);
  let checkpoints = c "checkpoints" in
  { log_blocks; log_cleaner; cleaner_read; self_emptied; checkpoints }

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
  encode : int -> bytes;
  clear_dirty : int -> unit;
}

let imap_table m =
  {
    kind = Types.Imap;
    nblocks = Inode_map.nblocks m;
    addr = Inode_map.block_addr m;
    set_addr = Inode_map.set_block_addr m;
    dirty = (fun () -> Inode_map.dirty_blocks m);
    encode = Inode_map.encode_block m;
    clear_dirty = Inode_map.clear_block_dirty m;
  }

let usage_table u =
  {
    kind = Types.Seg_usage;
    nblocks = Seg_usage.nblocks u;
    addr = Seg_usage.block_addr u;
    set_addr = Seg_usage.set_block_addr u;
    dirty = (fun () -> Seg_usage.dirty_blocks u);
    encode = Seg_usage.encode_block u;
    clear_dirty = Seg_usage.clear_block_dirty u;
  }

type t = {
  disk : Vdev.t;  (* the device the caller handed us (may itself be a stack) *)
  cache : Vdev_cache.t;
  dev : Vdev.t;  (* [disk] behind the block cache; all internal IO uses this *)
  layout : Layout.t;
  mutable config : Config.t;
  imap : Inode_map.t;
  usage : Seg_usage.t;
  tables : table list;  (* the imap's, then the usage table's *)
  log : Log_writer.t;
  handles : (Types.ino, handle) Hashtbl.t;
  dirty_data : (Types.ino * int, bytes) Hashtbl.t;
  mutable dirty_count : int;
  mutable pending_dirops : Dir_log.record list;  (* newest first *)
  pool : Seg_pool.t;
  cleaner_attr : bool ref;  (* current appends belong to the cleaner *)
  acct : acct;
  mutable clock : float;
  mutable ops_since_ckpt : int;
  mutable blocks_since_ckpt : int;
  mutable ckpt_region : int;  (* region to write next *)
  mutable in_cleaner : bool;
  mutable bg_active : bool;  (* background cleaner engaged (hysteresis latch) *)
  mutable in_checkpoint : bool;
  mutable checkpoint_hook : unit -> unit;
  log_batch_hook : (blocks:int -> unit) ref;
  rng : Prng.t;
  obs : obs;
  tier : Vdev_tier.t option;
      (* set when [disk] is (or wraps) a tiered volume whose chunks are
         this layout's segments; enables demotion/promotion *)
  tier_reads : (int, int) Hashtbl.t;  (* slow segment -> disk reads seen *)
}

type recovery_report = {
  writes_replayed : int;
  inodes_recovered : int;
  data_blocks_recovered : int;
  dirops_applied : int;
  segments_scanned : int;
}

let root = Types.root_ino

let devices t = [ t.disk ]
let tier t = t.tier
let metrics t = t.obs.metrics
let on_log_batch t f = t.log_batch_hook := f
let pending_log_blocks t = Log_writer.pending_blocks t.log

(* Modelled time for spans: the outer device's cumulative busy time. *)
let op_span t h f =
  Metrics.span h ~clock:(fun () -> (Vdev.stats t.disk).Io_stats.busy_s) f
let layout t = t.layout
let config t = t.config
let clock t = t.clock

let block_size t = t.layout.Layout.block_size

let tick t =
  t.clock <- t.clock +. 1.0;
  t.clock

(* In-memory location for inodes created but not yet written to the log;
   block 0 is the superblock so no real inode can ever live there. *)
let placeholder_iaddr = Types.Iaddr.make ~block:0 ~slot:0

let read_disk_block t addr = Vdev.read_block t.dev addr

let kill_addr t addr ~bytes =
  let seg = Layout.seg_of_block t.layout addr in
  if seg < 0 then
    Types.corrupt "attempt to kill fixed-area block %d" addr;
  Seg_usage.kill t.usage seg ~bytes;
  (* A segment whose last live byte dies is reclaimed without cleaning
     (Section 3.6); Table 2 counts such segments as cleaned-empty. *)
  if Seg_usage.live_bytes t.usage seg = 0 && not (Seg_pool.is_victim t.pool seg)
  then Metrics.incr t.acct.self_emptied

(* Every log append goes through here so traffic is attributed — and
   routed by temperature (Section 3.5): fresh foreground data to head 0,
   cleaner survivors to the cold head(s).  With more than two heads the
   survivors spread into age bins, [demote_age_s] wide, so data that has
   already proven cold lands apart from the merely lukewarm. *)
let append_block t ~kind ~ino ~blockno ~version ~mtime payload =
  note_written t.acct kind ~cleaner:!(t.cleaner_attr);
  t.blocks_since_ckpt <- t.blocks_since_ckpt + 1;
  let head =
    let n = Log_writer.nheads t.log in
    if n = 1 || not !(t.cleaner_attr) then 0
    else if n = 2 then 1
    else
      let age = Float.max 0.0 (t.clock -. mtime) in
      let bin = int_of_float (age /. Float.max 1.0 t.config.Config.demote_age_s) in
      1 + min (n - 2) bin
  in
  Log_writer.append ~head t.log ~kind ~ino ~blockno ~version ~mtime payload

(* {1 Inode handles} *)

let load_handle t ino =
  let iaddr = Inode_map.location t.imap ino in
  if Types.Iaddr.is_nil iaddr then Types.fs_error "no such inode %d" ino;
  if Types.Iaddr.equal iaddr placeholder_iaddr then
    Types.corrupt "inode %d has no on-disk copy and no handle" ino;
  let b = read_disk_block t (Types.Iaddr.block iaddr) in
  match Inode.decode b ~slot:(Types.Iaddr.slot iaddr) with
  | None -> Types.corrupt "inode %d: slot %a is unused" ino Types.Iaddr.pp iaddr
  | Some inode ->
      if inode.Inode.ino <> ino then
        Types.corrupt "inode %d: slot holds inode %d" ino inode.Inode.ino;
      let fmap = Filemap.load ~read:(read_disk_block t) t.layout inode in
      { inode; fmap; inode_dirty = false; content = None }

let get_handle t ino =
  match Hashtbl.find_opt t.handles ino with
  | Some h -> h
  | None ->
      let h = load_handle t ino in
      Hashtbl.replace t.handles ino h;
      h

(* Bound the handle cache; only clean handles may be dropped. *)
let handle_cache_limit = 100_000

let maybe_evict_handles t =
  if Hashtbl.length t.handles > handle_cache_limit then begin
    let victims = ref [] in
    Hashtbl.iter
      (fun ino h ->
        if
          (not h.inode_dirty)
          && (not (Filemap.dirty h.fmap))
          && ino <> Types.root_ino
        then victims := ino :: !victims)
      t.handles;
    List.iter (Hashtbl.remove t.handles) !victims
  end

let version_of t ino = Inode_map.version t.imap ino

(* {1 File block IO} *)

(* Promotion-on-read (tiered volumes): count disk reads landing in
   slow-tier segments and migrate a segment back under the fast tier
   once [promote_reads] of them accumulate.  Metadata traffic from the
   cleaner and checkpoint machinery is excluded — only demand reads
   prove a segment hot. *)
let note_tier_read t addr =
  match t.tier with
  | None -> ()
  | Some ti ->
      let threshold = t.config.Config.promote_reads in
      if threshold > 0 && (not t.in_cleaner) && not t.in_checkpoint then begin
        let seg = Layout.seg_of_block t.layout addr in
        let active = Log_writer.active_segments t.log in
        if
          seg >= 0
          && seg < Vdev_tier.nchunks ti
          && (not (Seg_pool.pinned t.pool ~active seg))
          && Vdev_tier.chunk_tier ti seg = Vdev_tier.Slow
        then begin
          let n =
            1 + Option.value ~default:0 (Hashtbl.find_opt t.tier_reads seg)
          in
          let promote () =
            if Vdev_tier.free_chunks ti ~tier:Vdev_tier.Fast > 0 then
              Vdev_tier.migrate ti ~chunk:seg ~target:Vdev_tier.Fast
            else
              (* Free pool drained: swap with a clean fast-mapped segment
                 (overwrite-safe by the checkpoint rule), which lands on
                 the slow tier as demotion capacity in the same move. *)
              match Seg_pool.donors t.pool ~active Vdev_tier.Fast with
              (* Keep at least one fast clean segment in reserve for the
                 write head — promotion must not starve {!Seg_pool.pick}. *)
              | d :: _ :: _ -> Vdev_tier.swap ti ~chunk:seg ~dead:d
              | _ -> false
          in
          if n >= threshold && promote () then begin
            Hashtbl.remove t.tier_reads seg;
            Metrics.incr t.obs.promote_segments
          end
          else Hashtbl.replace t.tier_reads seg n
        end
      end

let read_file_block t h ino blockno =
  match Hashtbl.find_opt t.dirty_data (ino, blockno) with
  | Some b -> Bytes.copy b
  | None ->
      let addr = Filemap.get h.fmap blockno in
      if addr = Types.nil_addr then Bytes.make (block_size t) '\000'
      else begin
        note_tier_read t addr;
        read_disk_block t addr
      end

let put_dirty_block t ino blockno b =
  if not (Hashtbl.mem t.dirty_data (ino, blockno)) then
    t.dirty_count <- t.dirty_count + 1;
  Hashtbl.replace t.dirty_data (ino, blockno) b

(* {1 Flushing the file cache to the log} *)

let flush_dirops t =
  if t.pending_dirops <> [] then begin
    let records = List.rev t.pending_dirops in
    t.pending_dirops <- [];
    let blocks = Dir_log.encode_blocks ~block_size:(block_size t) records in
    List.iter
      (fun b ->
        let (_ : Types.baddr) =
          append_block t ~kind:Types.Dir_log ~ino:0 ~blockno:0 ~version:0
            ~mtime:t.clock (Log_writer.Bytes b)
        in
        ())
      blocks
  end

let flush_data_blocks t =
  if Hashtbl.length t.dirty_data > 0 then begin
    (* Group by inode, ascending block numbers, for sequential layout. *)
    let by_ino = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (ino, blockno) b ->
        let l = Option.value ~default:[] (Hashtbl.find_opt by_ino ino) in
        Hashtbl.replace by_ino ino ((blockno, b) :: l))
      t.dirty_data;
    let inos = Hashtbl.fold (fun ino _ acc -> ino :: acc) by_ino [] in
    List.iter
      (fun ino ->
        let h = get_handle t ino in
        let blocks =
          List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.find by_ino ino)
        in
        List.iter
          (fun (blockno, b) ->
            let old = Filemap.get h.fmap blockno in
            let addr =
              append_block t ~kind:Types.Data ~ino ~blockno
                ~version:(version_of t ino) ~mtime:h.inode.Inode.mtime
                (Log_writer.Bytes b)
            in
            Filemap.set h.fmap blockno addr;
            if old <> Types.nil_addr then kill_addr t old ~bytes:(block_size t);
            Hashtbl.remove t.dirty_data (ino, blockno))
          blocks;
        h.inode_dirty <- true)
      (List.sort compare inos);
    t.dirty_count <- 0
  end

let flush_filemaps_and_inodes t =
  (* Indirect blocks first (the inode must point at their new copies). *)
  let dirty_inos = ref [] in
  Hashtbl.iter
    (fun ino h ->
      (* The map flush also refreshes the inode's direct pointers, so it
         must run for every inode about to be written, not only when an
         indirect chunk is dirty. *)
      if Filemap.dirty h.fmap || h.inode_dirty then begin
        Filemap.flush h.fmap h.inode
          ~alloc:(fun ~kind ~blockno payload ->
            append_block t ~kind ~ino ~blockno ~version:(version_of t ino)
              ~mtime:h.inode.Inode.mtime (Log_writer.Bytes payload))
          ~free:(fun addr -> kill_addr t addr ~bytes:(block_size t));
        dirty_inos := (ino, h) :: !dirty_inos
      end)
    t.handles;
  (* Pack dirty inodes into inode blocks. *)
  let pending = List.sort (fun (a, _) (b, _) -> compare a b) !dirty_inos in
  let per_block = t.layout.Layout.inodes_per_block in
  let inode_size = t.layout.Layout.inode_size in
  let rec pack = function
    | [] -> ()
    | group ->
        let n = min per_block (List.length group) in
        let batch = List.filteri (fun i _ -> i < n) group in
        let rest = List.filteri (fun i _ -> i >= n) group in
        let b = Bytes.make (block_size t) '\000' in
        let newest =
          List.fold_left
            (fun acc (_, h) -> Float.max acc h.inode.Inode.mtime)
            0.0 batch
        in
        List.iteri (fun slot (_, h) -> Inode.encode h.inode b ~slot) batch;
        let addr =
          append_block t ~kind:Types.Inode_block ~ino:0 ~blockno:0 ~version:0
            ~mtime:newest (Log_writer.Bytes b)
        in
        let seg = Layout.seg_of_block t.layout addr in
        List.iteri
          (fun slot (ino, h) ->
            let old = Inode_map.location t.imap ino in
            if
              (not (Types.Iaddr.is_nil old))
              && not (Types.Iaddr.equal old placeholder_iaddr)
            then
              Seg_usage.kill t.usage
                (Layout.seg_of_block t.layout (Types.Iaddr.block old))
                ~bytes:inode_size;
            Seg_usage.add_live t.usage seg ~bytes:inode_size
              ~mtime:h.inode.Inode.mtime;
            Inode_map.set_location t.imap ino (Types.Iaddr.make ~block:addr ~slot);
            h.inode_dirty <- false)
          batch;
        pack rest
  in
  pack pending

(* Flush order matters for recovery: directory-log records first, then
   data, then indirect blocks, then inodes (Section 4.2). *)
let flush_internal t ~cleaner =
  let saved = !(t.cleaner_attr) in
  t.cleaner_attr := cleaner;
  Fun.protect
    ~finally:(fun () -> t.cleaner_attr := saved)
    (fun () ->
      flush_dirops t;
      flush_data_blocks t;
      flush_filemaps_and_inodes t;
      Log_writer.sync t.log)

(* [sync] is the fsync barrier: flush, then await every outstanding log
   write so durability is settled before returning.  Internal flushes
   (buffer pressure, the cleaner) skip the barrier and pipeline. *)
let sync t =
  flush_internal t ~cleaner:false;
  ignore (Log_writer.barrier t.log)

(* {1 Checkpoints} *)

let refresh_pool t =
  Seg_pool.refresh t.pool t.usage ~active:(Log_writer.active_segments t.log)

(* Append a fresh copy of table block [i] and kill the old one.  The
   block self-describes accounting that appending it changes, so its
   payload is rendered lazily at batch-write time, and rendering clears
   its dirty flag. *)
let rewrite_table_block t tb i =
  let old = tb.addr i in
  let fresh =
    append_block t ~kind:tb.kind ~ino:0 ~blockno:i ~version:0 ~mtime:t.clock
      (Log_writer.Lazy
         (fun () ->
           let b = tb.encode i in
           tb.clear_dirty i;
           b))
  in
  tb.set_addr i fresh;
  if old <> Types.nil_addr then kill_addr t old ~bytes:(block_size t)

let checkpoint t =
  if t.in_checkpoint then ()
  else begin
    t.in_checkpoint <- true;
    let before = Io_stats.copy (Vdev.stats t.disk) in
    Fun.protect
      ~finally:(fun () ->
        t.in_checkpoint <- false;
        let d = Io_stats.diff (Vdev.stats t.disk) before in
        Metrics.observe t.obs.ckpt_busy d.Io_stats.busy_s;
        Metrics.observe t.obs.ckpt_blocks
          (float_of_int d.Io_stats.blocks_written))
      (fun () ->
        flush_internal t ~cleaner:false;
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
        Checkpoint.write t.layout t.disk ~region:t.ckpt_region region;
        t.ckpt_region <- 1 - t.ckpt_region;
        t.ops_since_ckpt <- 0;
        t.blocks_since_ckpt <- 0;
        Metrics.incr t.acct.checkpoints;
        refresh_pool t;
        maybe_evict_handles t;
        t.checkpoint_hook ())
  end

(* {1 The segment cleaner} *)

let seg_utilization t s = Seg_usage.utilization t.usage s
let clean_segment_count t = Seg_usage.clean_count t.usage

(* One buffer flush can consume several segments before the cleaner gets
   another chance to run — in the worst case every buffered block belongs
   to a different large file and drags two indirect-block rewrites and an
   inode with it — so the trigger must leave that much headroom
   regardless of the configured threshold. *)
let flush_need t =
  ((3 * t.config.Config.write_buffer_blocks) + t.layout.Layout.seg_blocks - 1)
  / t.layout.Layout.seg_blocks

(* Each write head beyond the first pins one extra clean segment as its
   standing reservation; those count as "clean" in the usage table but
   can never be handed out, so the watermarks must sit above them. *)
let head_reserve t = t.config.Config.log_heads - 1

let clean_start_effective t =
  max t.config.Config.clean_start (flush_need t + 2) + head_reserve t

let clean_stop_effective t =
  max (t.config.Config.clean_stop + head_reserve t) (clean_start_effective t + 2)

(* Read [addrs] into [prefetched], coalescing consecutive addresses into
   one ranged read each.  Runs contain exactly the requested blocks (no
   dead filler), so the read accounting still reflects "just the live
   blocks"; going through [t.dev] keeps the block cache coherent and
   lets already-cached blocks satisfy part of a run. *)
let prefetch_runs t ~prefetched addrs =
  let addrs =
    List.sort_uniq compare
      (List.filter (fun a -> not (Hashtbl.mem prefetched a)) addrs)
  in
  let bs = block_size t in
  let read_run first len =
    Metrics.incr ~by:len t.acct.cleaner_read;
    let buf = Vdev.read_blocks t.dev first len in
    for i = 0 to len - 1 do
      Hashtbl.replace prefetched (first + i) (Bytes.sub buf (i * bs) bs)
    done
  in
  let rec go = function
    | [] -> ()
    | first :: rest ->
        let rec run last = function
          | a :: more when a = last + 1 -> run a more
          | tail ->
              read_run first (last - first + 1);
              go tail
        in
        run first rest
  in
  go addrs

(* Every log write a victim's summary chain describes, as (entry,
   address, payload thunk) triples; [read] fetches the block at an
   address.  The cleaner applies no sequence rule: a stale summary from a
   previous life of the segment, sitting where the chain continues, is
   walked too, and the entries it describes simply fail the liveness
   checks. *)
let victim_entries t ~seg ~read ~payload =
  let first = Layout.seg_first_block t.layout seg in
  let results = ref [] in
  Summary.walk_segment ~seg_blocks:t.layout.Layout.seg_blocks ~seg
    ~read:(fun slot -> read (first + slot))
    (fun s ->
      List.iteri
        (fun i e ->
          let addr = first + s.Summary.slot + 1 + i in
          results := (e, addr, payload addr) :: !results)
        s.Summary.entries;
      true);
  List.rev !results

type live_item =
  | Live_data of {
      ino : Types.ino;
      blockno : int;
      version : int;
      payload : unit -> bytes;
          (** whole-segment cleaning hands out a slice of the segment
              image; live-blocks cleaning reads the block on demand *)
      mtime : float;
    }
  | Live_indirect of { ino : Types.ino; sblockno : int }
  | Live_inode of Types.ino
  | Live_table_block of table * int

(* Liveness tests of Section 3.3: version (uid) first — a stale version
   discards the block with no further IO — then the block pointer. *)
let classify_live t (e : Summary.entry) addr payload =
  match e.Summary.kind with
  | Types.Summary | Types.Dir_log -> []
  | Types.Data ->
      if
        Inode_map.is_allocated t.imap e.Summary.ino
        && Inode_map.version t.imap e.Summary.ino = e.Summary.version
      then begin
        let h = get_handle t e.Summary.ino in
        if Filemap.get h.fmap e.Summary.blockno = addr then
          [
            Live_data
              {
                ino = e.Summary.ino;
                blockno = e.Summary.blockno;
                version = e.Summary.version;
                payload;
                mtime = e.Summary.mtime;
              };
          ]
        else []
      end
      else []
  | Types.Indirect | Types.Dindirect ->
      if
        Inode_map.is_allocated t.imap e.Summary.ino
        && Inode_map.version t.imap e.Summary.ino = e.Summary.version
      then begin
        let h = get_handle t e.Summary.ino in
        if Filemap.indirect_addr h.fmap ~sblockno:e.Summary.blockno = addr then
          [ Live_indirect { ino = e.Summary.ino; sblockno = e.Summary.blockno } ]
        else []
      end
      else []
  | Types.Inode_block ->
      let payload = payload () in
      let acc = ref [] in
      for slot = 0 to t.layout.Layout.inodes_per_block - 1 do
        match Inode.decode payload ~slot with
        | None -> ()
        | Some inode ->
            let ino = inode.Inode.ino in
            if
              ino >= 0
              && ino < Inode_map.max_inodes t.imap
              && Types.Iaddr.equal
                   (Inode_map.location t.imap ino)
                   (Types.Iaddr.make ~block:addr ~slot)
            then acc := Live_inode ino :: !acc
      done;
      List.rev !acc
  | Types.Imap | Types.Seg_usage ->
      let tb = List.find (fun tb -> tb.kind = e.Summary.kind) t.tables in
      let i = e.Summary.blockno in
      if i >= 0 && i < tb.nblocks && tb.addr i = addr then
        [ Live_table_block (tb, i) ]
      else []

let relocate_item t item =
  match item with
  | Live_data { ino; blockno; version; payload; mtime } ->
      let h = get_handle t ino in
      let old = Filemap.get h.fmap blockno in
      let addr =
        append_block t ~kind:Types.Data ~ino ~blockno ~version ~mtime
          (Log_writer.Bytes (payload ()))
      in
      Filemap.set h.fmap blockno addr;
      h.inode_dirty <- true;
      if old <> Types.nil_addr then kill_addr t old ~bytes:(block_size t)
  | Live_indirect { ino; sblockno } ->
      let h = get_handle t ino in
      Filemap.mark_indirect_dirty h.fmap ~sblockno;
      h.inode_dirty <- true
  | Live_inode ino ->
      let h = get_handle t ino in
      h.inode_dirty <- true
  | Live_table_block (tb, i) -> rewrite_table_block t tb i

let clean_victims t ~bg victims =
  (* Read the victims and identify live data across all of them, then
     write the survivors out grouped by the mount-time policy. *)
  Seg_pool.cleaning t.pool victims @@ fun () ->
  Metrics.incr (if bg then t.obs.bg_passes else t.obs.fg_passes);
  Metrics.incr
    ~by:(List.length victims)
    (if bg then t.obs.bg_segments else t.obs.fg_segments);
  let prefetched = Hashtbl.create 64 in
  let live = ref [] in
  let data_addrs = ref [] in
  List.iter
    (fun seg ->
      let u = seg_utilization t seg in
      Metrics.dist_add t.obs.victim_u u;
      Metrics.observe t.obs.victim_fill u;
      Metrics.observe t.obs.victim_age
        (Float.max 0.0 (t.clock -. Seg_usage.mtime t.usage seg));
      if Seg_usage.live_bytes t.usage seg > 0 then begin
        let entries =
          match t.config.Config.cleaner_read with
          | Config.Whole_segment ->
              let first = Layout.seg_first_block t.layout seg in
              let buf = Vdev.read_blocks t.dev first t.layout.Layout.seg_blocks in
              Metrics.incr ~by:t.layout.Layout.seg_blocks t.acct.cleaner_read;
              let bs = block_size t in
              let block addr = Bytes.sub buf ((addr - first) * bs) bs in
              victim_entries t ~seg ~read:block ~payload:(fun addr () ->
                  block addr)
          | Config.Live_blocks ->
              (* Payload thunks serve from [prefetched] when a coalescing
                 pass already pulled the block in, and fall back to a
                 single cached read otherwise — the device is only ever
                 charged for blocks actually needed (Section 3.4's
                 untried idea). *)
              let read addr =
                Metrics.incr t.acct.cleaner_read;
                Vdev.read_block t.dev addr
              in
              let entries =
                victim_entries t ~seg ~read ~payload:(fun addr () ->
                    match Hashtbl.find_opt prefetched addr with
                    | Some b -> b
                    | None -> read addr)
              in
              (* Classification decodes inode blocks immediately; pull
                 them in as coalesced runs before it starts. *)
              prefetch_runs t ~prefetched
                (List.filter_map
                   (fun ((e : Summary.entry), addr, _) ->
                     match e.Summary.kind with
                     | Types.Inode_block -> Some addr
                     | _ -> None)
                   entries);
              entries
        in
        List.iter
          (fun (e, addr, payload) ->
            List.iter
              (fun item ->
                (match item with
                | Live_data _ -> data_addrs := addr :: !data_addrs
                | _ -> ());
                live := (item, e.Summary.mtime) :: !live)
              (classify_live t e addr payload))
          entries
      end)
    victims;
  (* Live data payloads are only read at relocation time; now that the
     live set is known, fetch it as coalesced runs across all victims so
     the thunks hit [prefetched] instead of seeking block by block. *)
  (match t.config.Config.cleaner_read with
  | Config.Live_blocks -> prefetch_runs t ~prefetched !data_addrs
  | Config.Whole_segment -> ());
  let ordered =
    Cleaner.order_for_grouping ~grouping:t.config.Config.grouping_policy
      (List.rev !live)
  in
  let saved = !(t.cleaner_attr) in
  t.cleaner_attr := true;
  Fun.protect
    ~finally:(fun () -> t.cleaner_attr := saved)
    (fun () ->
      List.iter (relocate_item t) ordered;
      flush_internal t ~cleaner:true);
  (* Everything live has been relocated; the victims must be empty. *)
  List.iter
    (fun seg ->
      let left = Seg_usage.live_bytes t.usage seg in
      if left <> 0 then
        Types.corrupt "segment %d still has %d live bytes after cleaning" seg
          left;
      Seg_usage.set_clean t.usage seg)
    victims

(* A background pass must compact, not merely copy: relocating a
   (nearly) fully-live segment consumes as much clean space as it frees,
   so an idle loop at a pool it cannot raise would churn the disk
   forever.  The emergency path keeps no such floor — under
   [clean_start] any yield matters. *)
let bg_max_u = 0.95

(* One budgeted victim batch.  [candidates] holds the dirty-segment ids
   scanned once by the caller; cleaned victims are subtracted so later
   passes never re-walk the whole usage table.  Utilisation and age are
   still re-read per pass (relocation changes both).  Returns
   [(cleaned, freed)]: how many victims the pass consumed and the net
   change in clean segments — a pass can clean a victim yet free nothing
   this step (the relocation rolled the log into a fresh segment) while
   still compacting. *)
let clean_pass t ~bg ~max_victims ~candidates =
  op_span t (if bg then t.obs.bg_busy else t.obs.fg_busy) @@ fun () ->
  let before = clean_segment_count t in
  let active = Log_writer.active_segments t.log in
  let scored =
    !candidates
    |> List.filter (fun s ->
           (not (Seg_pool.pinned t.pool ~active s))
           && Seg_usage.live_bytes t.usage s > 0)
    |> List.map (fun s ->
           {
             Cleaner.seg = s;
             u = seg_utilization t s;
             age = Float.max 0.0 (t.clock -. Seg_usage.mtime t.usage s);
           })
  in
  let scored =
    if bg then List.filter (fun c -> c.Cleaner.u <= bg_max_u) scored
    else scored
  in
  (* Below the critical threshold (the pool can no longer absorb even
     one buffer flush), yield is all that matters: fall back to greedy
     so a cost-benefit (or ablation) policy that favours old nearly-full
     segments cannot starve the writer of clean segments. *)
  let policy =
    if Seg_pool.length t.pool < flush_need t then Config.Greedy
    else t.config.Config.cleaning_policy
  in
  let victims =
    Cleaner.select ~policy
      ~rand:(fun n -> Prng.int t.rng n)
      ~candidates:scored ~count:max_victims ()
  in
  (* Relocation writes into clean segments before any victim is freed,
     so bound the pass by what the reusable pool can absorb, keeping one
     segment of slack for the checkpoint and 30% headroom for the inode
     and indirect blocks rewritten alongside the relocated data. *)
  let budget = Float.max 0.7 (float_of_int (Seg_pool.length t.pool - 1)) in
  let victims =
    let acc = ref 0.0 in
    List.filter
      (fun s ->
        let cost = (seg_utilization t s *. 1.3) +. 0.05 in
        if !acc +. cost <= budget then begin
          acc := !acc +. cost;
          true
        end
        else false)
      victims
  in
  if victims = [] then (0, 0)
  else begin
    clean_victims t ~bg victims;
    (* Persist the pass: victims only become reusable once the
       checkpoint no longer references their old contents. *)
    checkpoint t;
    candidates := List.filter (fun s -> not (List.mem s victims)) !candidates;
    (List.length victims, clean_segment_count t - before)
  end

let clean t =
  if t.in_cleaner then ()
  else begin
    t.in_cleaner <- true;
    let before = Io_stats.copy (Vdev.stats t.disk) in
    Fun.protect
      ~finally:(fun () ->
        t.in_cleaner <- false;
        (* The whole invocation — flush, passes, checkpoints — stalls
           the foreground caller that triggered it. *)
        let d = Io_stats.diff (Vdev.stats t.disk) before in
        Metrics.observe t.obs.cleaner_stall d.Io_stats.busy_s)
      (fun () ->
        flush_internal t ~cleaner:false;
        (* Scan the usage table once; passes subtract their victims. *)
        let candidates = ref (Seg_usage.dirty_segments t.usage) in
        let continue_cleaning = ref true in
        while
          !continue_cleaning && clean_segment_count t < clean_stop_effective t
        do
          let _, freed =
            clean_pass t ~bg:false
              ~max_victims:t.config.Config.segs_per_pass ~candidates
          in
          if freed <= 0 then continue_cleaning := false
        done;
        (* Segments that emptied by themselves since the last checkpoint
           also only become reusable once a checkpoint stops referencing
           their contents — so always finish with one, even when no pass
           ran. *)
        checkpoint t)
  end

(* {2 Idle-time background cleaning}

   The paper suggests cleaning "at night or during idle periods"
   (Section 4): an idle caller pulls the clean pool up to a high
   watermark well above the emergency threshold, so foreground writers
   (almost) never hit the stall in [clean].  The effective watermarks sit
   strictly above the foreground trigger, [clean_start_effective]. *)

let bg_clean_start_effective t =
  max t.config.Config.bg_clean_start (clean_start_effective t + 1)

let bg_clean_stop_effective t =
  max t.config.Config.bg_clean_stop (bg_clean_start_effective t + 2)

(* Hysteresis latch: engage when the pool falls below the low watermark,
   stay engaged until it refills to the high one.  Returns the segments
   still owed (0 = nothing to do right now). *)
let bg_pending t =
  let n = clean_segment_count t in
  if t.bg_active then
    if n >= bg_clean_stop_effective t then begin
      t.bg_active <- false;
      0
    end
    else bg_clean_stop_effective t - n
  else if n < bg_clean_start_effective t then begin
    t.bg_active <- true;
    bg_clean_stop_effective t - n
  end
  else 0

let bg_clean_step ?max_segments t =
  if t.in_cleaner then 0
  else if bg_pending t = 0 then 0
  else begin
    let max_victims =
      match max_segments with
      | Some n -> max 1 n
      | None -> t.config.Config.segs_per_pass
    in
    t.in_cleaner <- true;
    Fun.protect
      ~finally:(fun () -> t.in_cleaner <- false)
      (fun () ->
        flush_internal t ~cleaner:false;
        let candidates = ref (Seg_usage.dirty_segments t.usage) in
        let cleaned, _freed = clean_pass t ~bg:true ~max_victims ~candidates in
        if cleaned = 0 then begin
          (* Nothing worth cleaning: every remaining dirty segment is
             pinned, nearly fully live, or over budget.  Disengage so an
             idle caller stops spinning — the watermarks may simply be
             unreachable at this utilisation; the latch re-arms when the
             pool next drains below the low watermark.  (A pass that
             cleaned a victim but freed nothing net still compacted —
             the log just rolled into a fresh segment — so it keeps the
             latch engaged.) *)
          t.bg_active <- false;
          0
        end
        else bg_pending t)
  end

(* {2 Demotion passes (tiered volumes)}

   The cleaner's third regime: instead of compacting, pick cold
   fast-tier segments that are nearly full — cost-benefit {e inverted},
   old age and high u — and copy them wholesale to the slow tier.  One
   sequential chunk copy frees a whole fast-tier segment for the write
   head; compacting the same segment would copy as much data for almost
   no space.  The placement map is the only thing that changes: block
   addresses are tier-logical, so no FS metadata moves and no checkpoint
   is needed. *)

let demote_step ?max_segments t =
  match t.tier with
  | None -> 0
  | Some ti ->
      if t.in_cleaner then 0
      else begin
        let active = Log_writer.active_segments t.log in
        let eligible s =
          (not (Seg_pool.pinned t.pool ~active s))
          && Seg_usage.live_bytes t.usage s > 0
          && Vdev_tier.chunk_tier ti s = Vdev_tier.Fast
        in
        let candidate s =
          {
            Cleaner.seg = s;
            u = seg_utilization t s;
            age = Float.max 0.0 (t.clock -. Seg_usage.mtime t.usage s);
          }
        in
        let candidates =
          Seg_usage.dirty_segments t.usage |> List.filter eligible
          |> List.map candidate
        in
        (* Capacity = the free pool plus clean slow-mapped segments,
           whose dead contents can absorb a demoted chunk via [swap]
           (the donor surfaces on the fast tier as a clean segment for
           the write head — demotion and head placement in one move).
           Reusable segments are overwrite-safe by the checkpoint rule,
           exactly the contract [swap] asks for. *)
        let donors = ref (Seg_pool.donors t.pool ~active Vdev_tier.Slow) in
        let capacity () =
          Vdev_tier.free_chunks ti ~tier:Vdev_tier.Slow + List.length !donors
        in
        if capacity () = 0 then 0
        else begin
          let budget =
            let cap =
              match max_segments with
              | Some n -> max 1 n
              | None -> t.config.Config.segs_per_pass
            in
            min cap (capacity ())
          in
          let victims =
            Cleaner.select_demotion ~candidates
              ~min_age:t.config.Config.demote_age_s ~count:budget
          in
          if victims = [] then 0
          else begin
            op_span t t.obs.demote_busy (fun () ->
                Metrics.incr t.obs.demote_passes;
                List.iter
                  (fun s ->
                    let moved =
                      if Vdev_tier.free_chunks ti ~tier:Vdev_tier.Slow > 0 then
                        Vdev_tier.migrate ti ~chunk:s ~target:Vdev_tier.Slow
                      else
                        match !donors with
                        | [] -> false
                        | d :: rest ->
                            donors := rest;
                            Vdev_tier.swap ti ~chunk:s ~dead:d
                    in
                    if moved then Metrics.incr t.obs.demote_segments)
                  victims);
            (* Report remaining work only while there is migration
               capacity left, so an idle loop drains candidates and then
               stops: a slow tier with no free chunk and no clean donor
               is a legitimate resting state, refilled when the cleaner
               frees slow segments. *)
            if capacity () = 0 then 0
            else
              List.length
                (List.filter
                   (fun (c : Cleaner.candidate) ->
                     eligible c.Cleaner.seg
                     && c.Cleaner.age >= t.config.Config.demote_age_s)
                   candidates)
          end
        end
      end

(* An idle step first serves the compaction watermarks (clean space is
   the scarcer resource), then spends leftover idleness demoting cold
   segments off the fast tier.  It also restocks the reusable pool:
   segments that emptied since the last checkpoint only become reusable
   once a checkpoint stops referencing their contents, and when the
   clean pool is already above the bg watermarks no pass runs to
   provide one — left alone, the pool drains until a foreground write
   hits the emergency [clean] stall.  Paying for the checkpoint here
   keeps it in the idle window. *)
let clean_step ?max_segments t =
  (* The gap must clear 2 per write head because the pool's refresh
     always excludes every head's current and reserved segments — a
     smaller gap means a checkpoint would recover nothing, and firing on
     it would checkpoint on every idle step, forever. *)
  if
    (not t.in_cleaner)
    && Seg_pool.length t.pool < bg_clean_stop_effective t
    && clean_segment_count t - Seg_pool.length t.pool > 2 * t.config.Config.log_heads
  then checkpoint t;
  let owed = bg_clean_step ?max_segments t in
  if owed > 0 then owed else demote_step ?max_segments t

let on_checkpoint t hook = t.checkpoint_hook <- hook

let drop_caches t =
  flush_internal t ~cleaner:false;
  Hashtbl.reset t.handles;
  Vdev_cache.clear t.cache

(* {1 Operation epilogue} *)

(* The foreground trigger: the pool can no longer absorb what the next
   buffer flushes may need. *)
let maybe_clean t =
  if (not t.in_cleaner) && Seg_pool.length t.pool < clean_start_effective t
  then clean t

let finish_op t =
  t.ops_since_ckpt <- t.ops_since_ckpt + 1;
  if
    (not t.in_checkpoint)
    && ((t.config.Config.checkpoint_interval_ops > 0
        && t.ops_since_ckpt >= t.config.Config.checkpoint_interval_ops)
       || (t.config.Config.checkpoint_interval_blocks > 0
          && t.blocks_since_ckpt >= t.config.Config.checkpoint_interval_blocks))
  then checkpoint t;
  maybe_clean t

(* {1 File IO} *)

let get_file_handle t ino =
  let h = get_handle t ino in
  (match h.inode.Inode.ftype with
  | Types.Regular -> ()
  | Types.Directory -> Types.fs_error "inode %d is a directory" ino);
  h

let write_blocks_of t h ino ~off data =
  let bs = block_size t in
  let len = Bytes.length data in
  if off < 0 then Types.fs_error "negative offset";
  let first = off / bs and last = (off + len - 1) / bs in
  h.inode.Inode.mtime <- tick t;
  h.inode_dirty <- true;
  for blockno = first to last do
    let block_start = blockno * bs in
    let lo = max off block_start in
    let hi = min (off + len) (block_start + bs) in
    let b =
      if lo = block_start && hi = block_start + bs then
        Bytes.sub data (lo - off) bs
      else begin
        let b = read_file_block t h ino blockno in
        Bytes.blit data (lo - off) b (lo - block_start) (hi - lo);
        b
      end
    in
    put_dirty_block t ino blockno b;
    (* Grow the size with the buffered prefix so a mid-write buffer
       flush persists a self-consistent inode (matters after a crash). *)
    h.inode.Inode.size <- max h.inode.Inode.size hi;
    if t.dirty_count >= t.config.Config.write_buffer_blocks then begin
      flush_internal t ~cleaner:false;
      maybe_clean t
    end
  done

let write t ino ~off data =
  if Bytes.length data > 0 then
    op_span t t.obs.op_write (fun () ->
        let h = get_file_handle t ino in
        write_blocks_of t h ino ~off data;
        finish_op t)

let read_any t ino ~off ~len =
  let h = get_handle t ino in
  let bs = block_size t in
  if off < 0 || len < 0 then Types.fs_error "negative read range";
  let len = max 0 (min len (h.inode.Inode.size - off)) in
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let blockno = abs / bs in
    let in_block = abs mod bs in
    let n = min (bs - in_block) (len - !pos) in
    let b = read_file_block t h ino blockno in
    Bytes.blit b in_block out !pos n;
    pos := !pos + n
  done;
  Inode_map.set_atime t.imap ino t.clock;
  out

let read t ino ~off ~len =
  op_span t t.obs.op_read (fun () -> read_any t ino ~off ~len)

let drop_cached_blocks_from t ino ~first_block =
  let doomed = ref [] in
  Hashtbl.iter
    (fun (i, blockno) _ ->
      if i = ino && blockno >= first_block then doomed := blockno :: !doomed)
    t.dirty_data;
  List.iter
    (fun blockno ->
      Hashtbl.remove t.dirty_data (ino, blockno);
      t.dirty_count <- t.dirty_count - 1)
    !doomed

let truncate_internal t ino ~len =
  let h = get_handle t ino in
  if len < 0 then Types.fs_error "negative truncate length";
  let bs = block_size t in
  let keep_blocks = (len + bs - 1) / bs in
  drop_cached_blocks_from t ino ~first_block:keep_blocks;
  Filemap.truncate h.fmap ~blocks:keep_blocks
    ~free:(fun addr -> kill_addr t addr ~bytes:bs);
  if len < h.inode.Inode.size && len mod bs <> 0 then begin
    (* Zero the tail of the new last block so extends re-read zeros. *)
    let blockno = len / bs in
    let b = read_file_block t h ino blockno in
    Bytes.fill b (len mod bs) (bs - (len mod bs)) '\000';
    put_dirty_block t ino blockno b
  end;
  h.inode.Inode.size <- len;
  h.inode.Inode.mtime <- tick t;
  h.inode_dirty <- true;
  if len = 0 then Inode_map.bump_version t.imap ino

let truncate t ino ~len =
  op_span t t.obs.op_truncate (fun () ->
      let (_ : handle) = get_file_handle t ino in
      truncate_internal t ino ~len;
      finish_op t)

(* {1 Directories} *)

let get_dir_handle t ino =
  let h = get_handle t ino in
  (match h.inode.Inode.ftype with
  | Types.Directory -> ()
  | Types.Regular -> Types.fs_error "inode %d is not a directory" ino);
  h

let dir_contents t ino =
  let h = get_dir_handle t ino in
  match h.content with
  | Some b -> Directory.of_bytes b
  | None ->
      let b = read_any t ino ~off:0 ~len:h.inode.Inode.size in
      h.content <- Some b;
      Directory.of_bytes b

(* Rewrite a directory's contents, dirtying only the blocks that
   actually changed (appending an entry touches the count block and the
   tail, not the whole file). *)
let set_dir_contents t ino d =
  let h = get_dir_handle t ino in
  let bs = block_size t in
  let fresh = Directory.to_bytes d in
  let old = match h.content with Some b -> b | None -> Bytes.create 0 in
  let nblocks = (Bytes.length fresh + bs - 1) / bs in
  for blockno = 0 to nblocks - 1 do
    let lo = blockno * bs in
    let hi = min (Bytes.length fresh) (lo + bs) in
    let changed =
      lo >= Bytes.length old
      || hi > Bytes.length old
      || not (Bytes.equal (Bytes.sub fresh lo (hi - lo)) (Bytes.sub old lo (hi - lo)))
    in
    if changed then begin
      let b = Bytes.make bs '\000' in
      Bytes.blit fresh lo b 0 (hi - lo);
      put_dirty_block t ino blockno b
    end
  done;
  if Bytes.length fresh < h.inode.Inode.size then begin
    drop_cached_blocks_from t ino ~first_block:nblocks;
    Filemap.truncate h.fmap ~blocks:nblocks
      ~free:(fun addr -> kill_addr t addr ~bytes:bs)
  end;
  h.inode.Inode.size <- Bytes.length fresh;
  h.inode.Inode.mtime <- tick t;
  h.inode_dirty <- true;
  h.content <- Some fresh;
  if t.dirty_count >= t.config.Config.write_buffer_blocks then begin
    flush_internal t ~cleaner:false;
    maybe_clean t
  end

let lookup t ~dir name = Directory.find (dir_contents t dir) name

let readdir t ino = Directory.entries (dir_contents t ino)

let queue_dirop t record = t.pending_dirops <- record :: t.pending_dirops

let create_node t ~dir name ~ftype =
  Directory.check_name name;
  let d = dir_contents t dir in
  if Directory.mem d name then Types.fs_error "name %S already exists" name;
  let ino = Inode_map.allocate t.imap in
  let inode = Inode.create ~ino ~ftype ~mtime:(tick t) in
  let h =
    {
      inode;
      fmap = Filemap.create_empty t.layout inode;
      inode_dirty = true;
      content = (match ftype with Types.Directory -> Some (Directory.to_bytes Directory.empty) | Types.Regular -> None);
    }
  in
  Hashtbl.replace t.handles ino h;
  Inode_map.set_location t.imap ino placeholder_iaddr;
  queue_dirop t (Dir_log.Add { dir; name; ino; nlink = 1; fresh = true });
  set_dir_contents t dir (Directory.add d name ino);
  (match ftype with
  | Types.Directory ->
      set_dir_contents t ino Directory.empty
  | Types.Regular -> ());
  finish_op t;
  ino

let create t ~dir name =
  op_span t t.obs.op_create (fun () ->
      create_node t ~dir name ~ftype:Types.Regular)

let mkdir t ~dir name =
  op_span t t.obs.op_mkdir (fun () ->
      create_node t ~dir name ~ftype:Types.Directory)

let link t ~dir name ino =
  op_span t t.obs.op_link @@ fun () ->
  Directory.check_name name;
  let h = get_file_handle t ino in
  let d = dir_contents t dir in
  if Directory.mem d name then Types.fs_error "name %S already exists" name;
  h.inode.Inode.nlink <- h.inode.Inode.nlink + 1;
  h.inode_dirty <- true;
  queue_dirop t
    (Dir_log.Add { dir; name; ino; nlink = h.inode.Inode.nlink; fresh = false });
  set_dir_contents t dir (Directory.add d name ino);
  finish_op t

let delete_file t ino =
  let h = get_handle t ino in
  let bs = block_size t in
  drop_cached_blocks_from t ino ~first_block:0;
  Filemap.iter_mapped h.fmap (fun _ addr -> kill_addr t addr ~bytes:bs);
  List.iter
    (fun (_, addr) -> kill_addr t addr ~bytes:bs)
    (Filemap.indirect_blocks h.fmap);
  let loc = Inode_map.location t.imap ino in
  if
    (not (Types.Iaddr.is_nil loc))
    && not (Types.Iaddr.equal loc placeholder_iaddr)
  then
    Seg_usage.kill t.usage
      (Layout.seg_of_block t.layout (Types.Iaddr.block loc))
      ~bytes:t.layout.Layout.inode_size;
  Inode_map.free t.imap ino;
  Hashtbl.remove t.handles ino

let unlink_internal t ~dir name ~expect =
  let d = dir_contents t dir in
  match Directory.find d name with
  | None -> Types.fs_error "no such entry %S" name
  | Some ino ->
      let h = get_handle t ino in
      (match (expect, h.inode.Inode.ftype) with
      | `File, Types.Directory ->
          Types.fs_error "%S is a directory (use rmdir)" name
      | `Dir, Types.Regular -> Types.fs_error "%S is not a directory" name
      | `Dir, Types.Directory ->
          if not (Directory.is_empty (dir_contents t ino)) then
            Types.fs_error "directory %S is not empty" name
      | `File, Types.Regular -> ());
      let nlink = h.inode.Inode.nlink - 1 in
      queue_dirop t (Dir_log.Remove { dir; name; ino; nlink });
      set_dir_contents t dir (Directory.remove d name);
      if nlink <= 0 then delete_file t ino
      else begin
        h.inode.Inode.nlink <- nlink;
        h.inode_dirty <- true
      end

let unlink t ~dir name =
  op_span t t.obs.op_unlink (fun () ->
      unlink_internal t ~dir name ~expect:`File;
      finish_op t)

let rmdir t ~dir name =
  op_span t t.obs.op_rmdir (fun () ->
      unlink_internal t ~dir name ~expect:`Dir;
      finish_op t)

let rename t ~odir oname ~ndir nname =
  op_span t t.obs.op_rename @@ fun () ->
  Directory.check_name nname;
  let od = dir_contents t odir in
  match Directory.find od oname with
  | None -> Types.fs_error "no such entry %S" oname
  | Some ino ->
      if odir = ndir && oname = nname then ()
      else if lookup t ~dir:ndir nname = Some ino then
        (* POSIX: source and target are links to the same file: no-op. *)
        ()
      else begin
        (* Replace an existing (non-directory) target first. *)
        (match lookup t ~dir:ndir nname with
        | Some _ -> unlink_internal t ~dir:ndir nname ~expect:`File
        | None -> ());
        queue_dirop t (Dir_log.Rename { odir; oname; ndir; nname; ino });
        set_dir_contents t odir (Directory.remove (dir_contents t odir) oname);
        set_dir_contents t ndir (Directory.add (dir_contents t ndir) nname ino);
        finish_op t
      end

(* {1 Stat} *)

let stat t ino =
  let h = get_handle t ino in
  {
    st_ino = ino;
    st_ftype = h.inode.Inode.ftype;
    st_size = h.inode.Inode.size;
    st_nlink = h.inode.Inode.nlink;
    st_mtime = h.inode.Inode.mtime;
    st_atime = Inode_map.atime t.imap ino;
    st_version = Inode_map.version t.imap ino;
  }

let file_size t ino = (get_handle t ino).inode.Inode.size

(* {1 Paths} *)

let split_path path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let resolve t path =
  let rec go dir = function
    | [] -> Some dir
    | name :: rest -> (
        match lookup t ~dir name with
        | None -> None
        | Some ino -> go ino rest)
  in
  go root (split_path path)

let parent_and_leaf t path =
  match List.rev (split_path path) with
  | [] -> Types.fs_error "path %S has no leaf" path
  | leaf :: rev_dirs -> (
      let dirs = List.rev rev_dirs in
      match
        List.fold_left
          (fun acc name ->
            match acc with
            | None -> None
            | Some dir -> lookup t ~dir name)
          (Some root) dirs
      with
      | None -> Types.fs_error "path %S: missing directory" path
      | Some dir -> (dir, leaf))

let create_path t path =
  let dir, leaf = parent_and_leaf t path in
  create t ~dir leaf

let mkdir_path t path =
  let dir, leaf = parent_and_leaf t path in
  mkdir t ~dir leaf

let write_path t path data =
  let dir, leaf = parent_and_leaf t path in
  let ino =
    match lookup t ~dir leaf with
    | Some ino -> ino
    | None -> create t ~dir leaf
  in
  truncate t ino ~len:0;
  write t ino ~off:0 data

let read_path t path =
  match resolve t path with
  | None -> None
  | Some ino -> Some (read t ino ~off:0 ~len:(file_size t ino))

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
      dirty_data = Hashtbl.create 256;
      dirty_count = 0;
      pending_dirops = [];
      pool;
      cleaner_attr;
      acct;
      clock;
      ops_since_ckpt = 0;
      blocks_since_ckpt = 0;
      ckpt_region;
      in_cleaner = false;
      bg_active = false;
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

let format disk cfg =
  Config.validate cfg ~disk_blocks:(Vdev.nblocks disk);
  if Vdev.block_size disk <> cfg.Config.block_size then
    invalid_arg "Fs.format: config block size does not match the device";
  let sb = Superblock.create cfg ~disk_blocks:(Vdev.nblocks disk) in
  Superblock.store sb disk;
  let layout = sb.Superblock.layout in
  let imap = Inode_map.create layout in
  let usage = Seg_usage.create layout in
  (* Head i starts writing segment 2i with 2i+1 reserved; on a fresh
     disk every other segment is in the pool. *)
  let heads =
    Array.init cfg.Config.log_heads (fun i ->
        { Log_writer.seg = 2 * i; off = 0; next_seg = (2 * i) + 1 })
  in
  let t =
    make_t disk sb ~config:cfg ~imap ~usage ~heads ~seq:1 ~clock:1.0
      ~ckpt_region:0
  in
  let ino = Inode_map.allocate t.imap in
  assert (ino = Types.root_ino);
  let inode = Inode.create ~ino ~ftype:Types.Directory ~mtime:(tick t) in
  let h =
    {
      inode;
      fmap = Filemap.create_empty layout inode;
      inode_dirty = true;
      content = Some (Directory.to_bytes Directory.empty);
    }
  in
  Hashtbl.replace t.handles ino h;
  Inode_map.set_location t.imap ino placeholder_iaddr;
  set_dir_contents t ino Directory.empty;
  checkpoint t

(* The one way onto a formatted volume, for [mount] and [recover]:
   superblock, geometry guard, newest checkpoint region, then where the
   heads stand — at the checkpoint, or past it with [roll_forward], whose
   scan reads the log before the tables load — then the inode map and
   usage table.  Segments holding post-checkpoint writes look clean in
   the checkpoint's usage table but contain the data being recovered;
   they stay out of the pool until the adjusted table says so. *)
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
      let log =
        if roll_forward then Recovery.scan layout disk ~ckpt:ck
        else
          {
            Recovery.writes = [];
            tails = ck.Checkpoint.heads;
            next_seq = ck.Checkpoint.log_seq;
            segments_scanned = 0;
          }
      in
      let read = Vdev.read_block disk in
      let imap =
        Inode_map.load layout ~read ~block_addrs:ck.Checkpoint.imap_addrs
      in
      let usage =
        Seg_usage.load layout ~read ~block_addrs:ck.Checkpoint.usage_addrs
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
      (t, log)

let mount ?config ?metrics ?tier disk =
  fst
    (open_volume ~caller:"Fs.mount" ~roll_forward:false ?config ?metrics ?tier
       disk)

let unmount t = checkpoint t

(* {1 Roll-forward} *)

let recover ?config ?metrics ?tier disk =
  let t, scan =
    open_volume ~caller:"Fs.recover" ~roll_forward:true ?config ?metrics ?tier
      disk
  in
  let bs = block_size t in
  (* Phase 1: the latest recovered copy of each inode wins.
     [recovered_seq] remembers which log write carried it, so dirop
     replay can tell a re-created incarnation from a stale copy of a
     dead one (see [survives_reuse] below). *)
  let recovered : (Types.ino, Types.Iaddr.t) Hashtbl.t = Hashtbl.create 64 in
  let recovered_seq : (Types.ino, int) Hashtbl.t = Hashtbl.create 64 in
  let dirlogs = ref [] in
  let data_blocks = ref 0 in
  List.iter
    (fun w ->
      List.iteri
        (fun i (e : Summary.entry) ->
          let addr = Summary.entry_addr w.Recovery.summary t.layout i in
          match e.Summary.kind with
          | Types.Inode_block ->
              let payload = List.assoc i w.Recovery.blocks in
              for slot = 0 to t.layout.Layout.inodes_per_block - 1 do
                match Inode.decode payload ~slot with
                | None -> ()
                | Some inode ->
                    Hashtbl.replace recovered inode.Inode.ino
                      (Types.Iaddr.make ~block:addr ~slot);
                    Hashtbl.replace recovered_seq inode.Inode.ino
                      w.Recovery.summary.Summary.seq
              done
          | Types.Data -> incr data_blocks
          | Types.Dir_log ->
              let payload = List.assoc i w.Recovery.blocks in
              dirlogs :=
                List.rev_append
                  (List.map
                     (fun r -> (w.Recovery.summary.Summary.seq, r))
                     (Dir_log.decode_block payload))
                  !dirlogs
          | Types.Indirect | Types.Dindirect | Types.Imap
          | Types.Seg_usage | Types.Summary ->
              ())
        w.Recovery.summary.Summary.entries)
    scan.Recovery.writes;
  let dirlogs = List.rev !dirlogs in
  (* Phase 2: incorporate each recovered inode and adjust segment
     utilisations by diffing the old and new block maps. *)
  let adjust_for_inode ino new_iaddr =
    let old_iaddr = Inode_map.location t.imap ino in
    let old_map = Hashtbl.create 64 in
    (if not (Types.Iaddr.is_nil old_iaddr) then
       match
         Inode.decode
           (read_disk_block t (Types.Iaddr.block old_iaddr))
           ~slot:(Types.Iaddr.slot old_iaddr)
       with
       | None -> ()
       | Some old_inode ->
           let old_fmap =
             Filemap.load ~read:(read_disk_block t) t.layout old_inode
           in
           Filemap.iter_mapped old_fmap (fun i a ->
               Hashtbl.replace old_map (`Data i) a);
           List.iter
             (fun (s, a) -> Hashtbl.replace old_map (`Ind s) a)
             (Filemap.indirect_blocks old_fmap));
    (* Old inode slot dies; new one lives. *)
    if not (Types.Iaddr.is_nil old_iaddr) then
      Seg_usage.kill t.usage
        (Layout.seg_of_block t.layout (Types.Iaddr.block old_iaddr))
        ~bytes:t.layout.Layout.inode_size;
    Inode_map.set_location t.imap ino new_iaddr;
    let h = load_handle t ino in
    Hashtbl.replace t.handles ino h;
    Seg_usage.add_live t.usage
      (Layout.seg_of_block t.layout (Types.Iaddr.block new_iaddr))
      ~bytes:t.layout.Layout.inode_size ~mtime:h.inode.Inode.mtime;
    let seen = Hashtbl.create 64 in
    let account key addr =
      Hashtbl.replace seen key ();
      let old = Hashtbl.find_opt old_map key in
      if old <> Some addr then begin
        (match old with
        | Some a -> kill_addr t a ~bytes:bs
        | None -> ());
        Seg_usage.add_live t.usage
          (Layout.seg_of_block t.layout addr)
          ~bytes:bs ~mtime:h.inode.Inode.mtime
      end
    in
    Filemap.iter_mapped h.fmap (fun i a -> account (`Data i) a);
    List.iter
      (fun (s, a) -> account (`Ind s) a)
      (Filemap.indirect_blocks h.fmap);
    (* Blocks the old inode had but the new one dropped. *)
    Hashtbl.iter
      (fun key a -> if not (Hashtbl.mem seen key) then kill_addr t a ~bytes:bs)
      old_map
  in
  (* Process recovered inodes in on-disk order so the inode-block
     reads stream sequentially instead of seeking per file. *)
  let recovered_sorted =
    List.sort
      (fun (_, a) (_, b) ->
        compare (Types.Iaddr.to_int a) (Types.Iaddr.to_int b))
      (Hashtbl.fold (fun ino ia acc -> (ino, ia) :: acc) recovered [])
  in
  List.iter (fun (ino, ia) -> adjust_for_inode ino ia) recovered_sorted;
  (* Phase 3: replay the directory operation log (ensure-style, so
     operations whose effects did reach disk are no-ops). *)
  let dirops_applied = ref 0 in
  let inode_live ino =
    Inode_map.is_allocated t.imap ino
  in
  (* A parent referenced by a journal record can be live yet no
     longer a directory: its ino was freed by an [rmdir] and reused
     for a regular file inside the recovery window.  Every entry of
     the dead directory incarnation is moot, so such records are
     skipped exactly like ones whose parent died outright. *)
  let dir_live ino =
    inode_live ino
    && (get_handle t ino).inode.Inode.ftype = Types.Directory
  in
  (* An inode number freed and reallocated inside the recovery window
     appears in the journal twice: records for the dead incarnation
     must not touch the surviving one — but only if the new
     incarnation actually survived.  Inodes carry no on-disk version,
     so the log order decides: the re-created inode's copy can only
     appear in a write at or after the one carrying its fresh [Add]
     (by then the old incarnation is dead and is never flushed
     again).  If no recovered copy is that late, the re-create never
     reached the log: the [Remove] must still take effect, and the
     later [Add] then drops its entry as a create without an inode. *)
  let dirlog_arr = Array.of_list dirlogs in
  let fresh_add_seq_after i ino =
    let rec scan j =
      if j >= Array.length dirlog_arr then None
      else
        match dirlog_arr.(j) with
        | seq, Dir_log.Add { ino = ino'; fresh = true; _ } when ino' = ino ->
            Some seq
        | _, (Dir_log.Add _ | Dir_log.Remove _ | Dir_log.Rename _) ->
            scan (j + 1)
    in
    scan (i + 1)
  in
  let survives_reuse i ino =
    match fresh_add_seq_after i ino with
    | None -> false
    | Some add_seq -> (
        match Hashtbl.find_opt recovered_seq ino with
        | Some s -> s >= add_seq
        | None -> false)
  in
  let apply_dirop i (_seq, op) =
    incr dirops_applied;
    match op with
    | Dir_log.Add { dir; name; ino; nlink; fresh } ->
        if dir_live dir then begin
          let d = dir_contents t dir in
          (* A fresh create can reuse an ino freed earlier in the
             window.  If the only recovered copy of that ino
             predates this create's write, it is the dead
             incarnation — left live when its Remove was suppressed
             to protect a durable rename destination.  Attaching it
             here would alias two names to one inode; the create's
             own inode never reached the log, so the entry drops. *)
          let freed_earlier =
            let rec scan j =
              j < i
              &&
              match dirlog_arr.(j) with
              | _, Dir_log.Remove { ino = ino'; nlink = nl; _ }
                when ino' = ino && nl <= 0 ->
                  true
              | _ -> scan (j + 1)
            in
            scan 0
          in
          let stale_reuse =
            fresh && freed_earlier
            &&
            match Hashtbl.find_opt recovered_seq ino with
            | Some s -> s < _seq
            | None -> true
          in
          if inode_live ino && not stale_reuse then begin
            if Directory.find d name <> Some ino then
              set_dir_contents t dir (Directory.replace d name ino);
            let h = get_handle t ino in
            if h.inode.Inode.nlink <> nlink then begin
              h.inode.Inode.nlink <- nlink;
              h.inode_dirty <- true
            end
          end
          else if Directory.find d name = Some ino then
            (* Create whose inode never reached the log: the paper's
               one uncompletable operation — drop the entry. *)
            set_dir_contents t dir (Directory.remove d name)
        end
    | Dir_log.Remove { dir; name; ino; nlink } ->
        (* A rename onto an existing name queues (Remove old-dst,
           Rename) as one operation.  When the renamed inode never
           survived to the log, the Rename below is skipped; the
           Remove must then be suppressed too, or an unacknowledged
           rename would destroy its durable destination.  Unless,
           that is, the removed ino was reused by a later create
           that did survive: the inode now belongs to the new file,
           so keeping the old entry would alias two names to one
           inode — the entry must drop. *)
        let covered_by_dead_rename =
          i + 1 < Array.length dirlog_arr
          && (match dirlog_arr.(i + 1) with
             | _, Dir_log.Rename { ndir; nname; ino = rino; _ } ->
                 ndir = dir && nname = name && not (inode_live rino)
             | _ -> false)
          && not (survives_reuse i ino)
        in
        if not covered_by_dead_rename then begin
          if dir_live dir then begin
            let d = dir_contents t dir in
            if Directory.find d name = Some ino then
              set_dir_contents t dir (Directory.remove d name)
          end;
          if inode_live ino && not (survives_reuse i ino) then begin
            if nlink <= 0 then delete_file t ino
            else begin
              let h = get_handle t ino in
              if h.inode.Inode.nlink <> nlink then begin
                h.inode.Inode.nlink <- nlink;
                h.inode_dirty <- true
              end
            end
          end
        end
    | Dir_log.Rename { odir; oname; ndir; nname; ino } ->
        if inode_live ino then begin
          if dir_live odir then begin
            let d = dir_contents t odir in
            if Directory.find d oname = Some ino then
              set_dir_contents t odir (Directory.remove d oname)
          end;
          if dir_live ndir then begin
            let d = dir_contents t ndir in
            if Directory.find d nname <> Some ino then
              set_dir_contents t ndir (Directory.replace d nname ino)
          end
        end
  in
  List.iteri apply_dirop dirlogs;
  (* Phase 3b: drop orphans.  Replay can leave a recovered inode
     with no surviving directory entry — its create's parent
     directory died (or its ino was reused as a file) inside the
     recovery window, so the [Add] above was skipped.  Walk the
     surviving namespace and delete every allocated inode nothing
     references; anything else would fail fsck's reachability and
     nlink accounting forever after. *)
  let reachable = Hashtbl.create 64 in
  let rec mark ino =
    if not (Hashtbl.mem reachable ino) then begin
      Hashtbl.replace reachable ino ();
      let h = get_handle t ino in
      if h.inode.Inode.ftype = Types.Directory then
        List.iter (fun (_, child) -> mark child) (readdir t ino)
    end
  in
  mark Types.root_ino;
  let orphans = ref [] in
  Inode_map.iter_allocated t.imap (fun ino _ ->
      if not (Hashtbl.mem reachable ino) then orphans := ino :: !orphans);
  List.iter (fun ino -> delete_file t ino) !orphans;
  (* Phase 4: persist the recovered state. *)
  refresh_pool t;
  checkpoint t;
  ( t,
    {
      writes_replayed = List.length scan.Recovery.writes;
      inodes_recovered = Hashtbl.length recovered;
      data_blocks_recovered = !data_blocks;
      dirops_applied = !dirops_applied;
      segments_scanned = scan.Recovery.segments_scanned;
    } )

(* {1 Introspection} *)

let utilization t =
  let live = ref 0 in
  for s = 0 to Seg_usage.nsegs t.usage - 1 do
    live := !live + Seg_usage.live_bytes t.usage s
  done;
  float_of_int !live
  /. float_of_int
       (Seg_usage.nsegs t.usage * t.layout.Layout.seg_blocks
      * t.layout.Layout.block_size)

let segment_histogram t ~bins =
  let curs =
    Array.to_list
      (Array.map
         (fun (p : Log_writer.position) -> p.Log_writer.seg)
         (Log_writer.positions t.log))
  in
  Seg_usage.utilization_histogram t.usage ~bins ~exclude:(fun s ->
      List.mem s curs)

type live_breakdown = { by_kind : (Types.block_kind * int) list; total_bytes : int }

let live_breakdown t =
  flush_internal t ~cleaner:false;
  let bs = block_size t in
  let tally = Hashtbl.create 8 in
  let add kind bytes =
    let cur = Option.value ~default:0 (Hashtbl.find_opt tally kind) in
    Hashtbl.replace tally kind (cur + bytes)
  in
  Inode_map.iter_allocated t.imap (fun ino _ ->
      add Types.Inode_block t.layout.Layout.inode_size;
      let h = get_handle t ino in
      Filemap.iter_mapped h.fmap (fun _ _ -> add Types.Data bs);
      List.iter
        (fun (s, _) ->
          match Filemap.classify_sblockno s with
          | `Single | `L1 _ -> add Types.Indirect bs
          | `L2 -> add Types.Dindirect bs
          | `Data _ -> ())
        (Filemap.indirect_blocks h.fmap));
  for i = 0 to Inode_map.nblocks t.imap - 1 do
    if Inode_map.block_addr t.imap i <> Types.nil_addr then add Types.Imap bs
  done;
  for i = 0 to Seg_usage.nblocks t.usage - 1 do
    if Seg_usage.block_addr t.usage i <> Types.nil_addr then
      add Types.Seg_usage bs
  done;
  let by_kind =
    List.map
      (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt tally k)))
      Types.all_block_kinds
  in
  let total_bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 by_kind in
  { by_kind; total_bytes }

let iter_files t f =
  flush_internal t ~cleaner:false;
  Inode_map.iter_allocated t.imap (fun ino _ ->
      let h = get_handle t ino in
      f ino h.inode)

let with_handle t ino f =
  let h = get_handle t ino in
  f h.inode h.fmap

let imap_location t ino = Inode_map.location t.imap ino
let imap_block_addr t i = Inode_map.block_addr t.imap i

let usage_block_addrs t =
  List.init (Seg_usage.nblocks t.usage) (Seg_usage.block_addr t.usage)

let segment_live_bytes t s = Seg_usage.live_bytes t.usage s
let segment_mtime t s = Seg_usage.mtime t.usage s
