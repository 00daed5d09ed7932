(* The file-system operations over the layers below: {!Fs_state} (state,
   appends, kills, flushes, checkpoint), {!Tier_policy} (promotion and
   demotion) and {!Clean} (the cleaner).  Roll-forward composes
   {!Recovery}'s digest of the log with replay steps here. *)

open Fs_state

type t = Fs_state.t

type stat = {
  st_ino : Types.ino;
  st_ftype : Types.ftype;
  st_size : int;
  st_nlink : int;
  st_mtime : float;
  st_atime : float;
  st_version : int;
}

type recovery_phase = {
  phase : string;
  disk_s : float;
  reads : int;
}

type recovery_report = {
  writes_replayed : int;
  inodes_recovered : int;
  data_blocks_recovered : int;
  dirops_applied : int;
  segments_scanned : int;
  blocks_verified : int;
  phases : recovery_phase list;
}

let root = Types.root_ino

let devices t = [ t.disk ]
let tier t = t.tier
let metrics t = t.obs.metrics
let on_log_batch t f = t.log_batch_hook := f
let layout t = t.layout
let config t = t.config

let tick t =
  t.clock <- t.clock +. 1.0;
  t.clock

let sync = Fs_state.sync
let checkpoint = Fs_state.checkpoint
let clean_segment_count = Fs_state.clean_segment_count
let reusable_segment_count t = Seg_pool.length t.Fs_state.pool
let reusable_segments t = Seg_pool.segments t.pool
let active_segments t = Log_writer.active_segments t.log
let space_budget t = t.budget
let clean = Clean.clean
let clean_step = Clean.clean_step

let demote_step ?max_segments t =
  Tier_policy.demote_step t ~max_victims:(Clean.pass_size t max_segments)

let on_checkpoint t hook = t.checkpoint_hook <- hook

let drop_caches t =
  flush t ~cleaner:false;
  Hashtbl.reset t.handles;
  Vdev_cache.clear t.cache

(* {1 File block IO} *)

(* Demand reads of file blocks, each block noted by the tier policy.  A
   run is one read through the cached view: straight into [out] when
   the range covers its every block, else into the mount's scratch,
   whose covered bytes are then copied out — so a partly read last
   block costs no transfer of its own.  A run's blocks sit in one log
   write, between two summaries, so the scratch never outgrows a
   segment. *)
let read_run t addr n ~skip out ~pos ~len =
  for i = 0 to n - 1 do
    Tier_policy.note_read t (addr + i)
  done;
  let submit buf ~pos =
    ignore (Vdev.submit_read_into t.dev addr n buf ~pos : Lfs_disk.Io_queue.ticket)
  in
  let bs = block_size t in
  if skip = 0 && len = n * bs then submit out ~pos
  else begin
    let b = Buf_pool.Scratch.take t.edge_buf (n * bs) in
    submit b ~pos:0;
    Bytes.blit b skip out pos len;
    Buf_pool.Scratch.give t.edge_buf
  end

(* File block [blockno] in a write-buffer block the caller may write:
   the buffered block itself, changed in place, or the block's bytes in
   a block taken from the write buffer's pool. *)
let read_file_block t h ino blockno =
  match File_range.locate t.dirty_data h.fmap ino blockno with
  | File_range.Buffered b -> b
  | File_range.Hole ->
      let b = Buf_pool.take t.wb_blocks in
      Bytes.fill b 0 (block_size t) '\000';
      b
  | File_range.Mapped addr ->
      let b = Buf_pool.take t.wb_blocks in
      Tier_policy.note_read t addr;
      with_block t addr (fun src -> Bytes.blit src 0 b 0 (block_size t));
      b

(* A write-buffer block for file block [blockno] whose every byte the
   caller overwrites. *)
let blank_file_block t ino blockno =
  match Hashtbl.find_opt t.dirty_data (ino, blockno) with
  | Some b -> b
  | None -> Buf_pool.take t.wb_blocks

(* Buffer [b] as file block [blockno].  A block already buffered is
   [b] itself (the two functions above hand it out), so none is
   replaced. *)
let put_dirty_block t ino blockno b =
  Hashtbl.replace t.dirty_data (ino, blockno) b

let drop_dirty t ino ~first ~size =
  File_range.drop_dirty t.dirty_data ino ~first ~size
    ~block_size:(block_size t) ~release:(Buf_pool.give t.wb_blocks)

(* A full write buffer goes to the log, which may call the cleaner. *)
let flush_if_full t =
  if Hashtbl.length t.dirty_data >= t.config.Config.write_buffer_blocks
  then begin
    flush t ~cleaner:false;
    Clean.maybe_clean t
  end

(* {1 Operation epilogue} *)

let finish_op t =
  t.ops_since_ckpt <- t.ops_since_ckpt + 1;
  if
    (not t.in_checkpoint)
    && ((t.config.Config.checkpoint_interval_ops > 0
        && t.ops_since_ckpt >= t.config.Config.checkpoint_interval_ops)
       || (t.config.Config.checkpoint_interval_blocks > 0
          && t.blocks_since_ckpt >= t.config.Config.checkpoint_interval_blocks))
  then checkpoint t;
  Clean.maybe_clean t

(* {1 File IO} *)

let get_file_handle t ino =
  let h = get_handle t ino in
  (match h.inode.Inode.ftype with
  | Types.Regular -> ()
  | Types.Directory -> Types.fs_error "inode %d is a directory" ino);
  h

let write t ino ~off data =
  if Bytes.length data > 0 then
    op_span t t.obs.op_write (fun () ->
        let h = get_file_handle t ino in
        h.inode.Inode.mtime <- tick t;
        File_range.write ~block_size:(block_size t)
          ~read_block:(read_file_block t h ino)
          ~blank_block:(blank_file_block t ino) ~off data
          (fun blockno b ~hi ->
            put_dirty_block t ino blockno b;
            (* Grow the size with the buffered prefix so a mid-write
               buffer flush persists a self-consistent inode (matters
               after a crash).  Marked dirty per block, not once: a
               flush earlier in this write empties the dirty set. *)
            h.inode.Inode.size <- max h.inode.Inode.size hi;
            mark_dirty t ino;
            flush_if_full t);
        finish_op t)

let read_any t ino ~off ~len =
  let h = get_handle t ino in
  let out =
    File_range.read ~block_size:(block_size t) ~size:h.inode.Inode.size
      ~locate:(File_range.locate t.dirty_data h.fmap ino)
      ~read_run:(read_run t) ~off ~len
  in
  Inode_map.set_atime t.imap ino t.clock;
  out

let read t ino ~off ~len =
  op_span t t.obs.op_read (fun () -> read_any t ino ~off ~len)

let truncate_internal t ino ~len =
  let h = get_handle t ino in
  if len < 0 then Types.fs_error "negative truncate length";
  let bs = block_size t in
  let keep_blocks = (len + bs - 1) / bs in
  drop_dirty t ino ~first:keep_blocks ~size:h.inode.Inode.size;
  Filemap.truncate h.fmap ~blocks:keep_blocks
    ~free:(fun addr -> kill t addr ~bytes:bs);
  if len < h.inode.Inode.size && len mod bs <> 0 then
    (* Zero the tail of the new last block so extends re-read zeros. *)
    File_range.write ~block_size:bs ~read_block:(read_file_block t h ino)
      ~blank_block:(blank_file_block t ino) ~off:len
      (Bytes.make (bs - (len mod bs)) '\000')
      (fun blockno b ~hi:_ -> put_dirty_block t ino blockno b);
  h.inode.Inode.size <- len;
  h.inode.Inode.mtime <- tick t;
  mark_dirty t ino;
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
  | Some d -> d
  | None ->
      let d =
        Directory.of_bytes ~block_size:(block_size t)
          (read_any t ino ~off:0 ~len:h.inode.Inode.size)
      in
      h.content <- Some d;
      d

(* Apply the {!Directory} mutator [f] to directory [ino] and dirty only
   the blocks it changed (appending an entry touches the count block and
   the tail, not the whole file). *)
let update_dir t ino f =
  let d = dir_contents t ino in
  let h = get_handle t ino in
  File_range.update_dir ~dirty:t.dirty_data ~ino h.inode h.fmap d (f d)
    ~blank_block:(blank_file_block t ino) ~put:(put_dirty_block t ino)
    ~release:(Buf_pool.give t.wb_blocks)
    ~free:(fun addr -> kill t addr ~bytes:(block_size t));
  h.inode.Inode.mtime <- tick t;
  mark_dirty t ino;
  flush_if_full t

(* A new directory's size covers its empty image; no data block yet. *)
let init_dir t ino = update_dir t ino (fun _ -> [])

let lookup t ~dir name = Directory.find (dir_contents t dir) name

let readdir t ino = Directory.entries (dir_contents t ino)

let queue_dirop t record = t.pending_dirops <- record :: t.pending_dirops

(* A fresh inode, cached with no on-disk copy yet; a directory starts
   empty, its size covering the empty image at once: the parent's
   update can fill the write buffer and flush the inode before
   [init_dir] runs, and a directory logged too short to parse would
   fail roll-forward. *)
let new_inode t ~ftype =
  let ino = Inode_map.allocate t.imap in
  let inode = Inode.create ~ino ~ftype ~mtime:(tick t) in
  let dir = ftype = Types.Directory in
  let content =
    if dir then Some (Directory.create ~block_size:(block_size t)) else None
  in
  Option.iter (fun d -> inode.Inode.size <- Directory.length d) content;
  Hashtbl.replace t.handles ino
    { inode; fmap = Filemap.create_empty t.layout inode; content };
  mark_dirty t ino;
  Inode_map.set_location t.imap ino placeholder_iaddr;
  Inode_map.set_ftype t.imap ino ftype;
  ino

let create_node t ~dir name ~ftype =
  Directory.check_name name;
  let d = dir_contents t dir in
  if Directory.mem d name then Types.fs_error "name %S already exists" name;
  let ino = new_inode t ~ftype in
  queue_dirop t (Dir_log.Add { dir; name; ino; nlink = 1; fresh = true });
  update_dir t dir (fun d -> Directory.add d name ino);
  if ftype = Types.Directory then init_dir t ino;
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
  mark_dirty t ino;
  queue_dirop t
    (Dir_log.Add { dir; name; ino; nlink = h.inode.Inode.nlink; fresh = false });
  update_dir t dir (fun d -> Directory.add d name ino);
  finish_op t

let set_nlink t ino nlink =
  let h = get_handle t ino in
  if h.inode.Inode.nlink <> nlink then begin
    h.inode.Inode.nlink <- nlink;
    mark_dirty t ino
  end

let delete_file t ino =
  let h = get_handle t ino in
  let bs = block_size t in
  drop_dirty t ino ~first:0 ~size:h.inode.Inode.size;
  Filemap.iter_mapped h.fmap (fun _ addr -> kill t addr ~bytes:bs);
  List.iter
    (fun (_, addr) -> kill t addr ~bytes:bs)
    (Filemap.indirect_blocks h.fmap);
  kill_inode t (Inode_map.location t.imap ino);
  Inode_map.free t.imap ino;
  Hashtbl.remove t.handles ino;
  t.dirty_inos <- Ino_set.remove ino t.dirty_inos

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
      update_dir t dir (fun d -> Directory.remove d name);
      if nlink <= 0 then delete_file t ino else set_nlink t ino nlink

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
        update_dir t odir (fun d -> Directory.remove d oname);
        update_dir t ndir (fun d -> Directory.add d nname ino);
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

include Fs_intf.Paths (struct
  type nonrec t = t

  let root = root and lookup = lookup and create = create and mkdir = mkdir
  let truncate = truncate and write = write and read = read
  let file_size = file_size
end)

(* {1 Construction} *)

let format disk cfg =
  Config.validate cfg;
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
  let ino = new_inode t ~ftype:Types.Directory in
  assert (ino = Types.root_ino);
  init_dir t ino;
  checkpoint t

let mount ?config ?metrics ?tier disk =
  let t, _, _ =
    open_volume ~caller:"Fs.mount" ~roll_forward:false ?config ?metrics ?tier
      disk
  in
  t

let unmount t = checkpoint t

(* {1 Roll-forward (Section 4.2)} *)

(* Incorporate a recovered inode: its old on-disk copy and the blocks
   only that copy mapped die, and everything the new copy maps that the
   old one did not comes alive.  A block it maps from the window carries
   its version, which a free or truncation since the checkpoint may have
   bumped: without it the cleaner would take the inode's live blocks
   for dead.  The new copy's handle is built from the copy the scan
   decoded ([latest]), so its block is not read again, and its block
   map from the indirect blocks the scan read ([indirect]) where the
   window wrote them; the type word follows it. *)
let reaccount_inode t ~versions ~latest ~indirect (ino, new_iaddr) =
  let bs = block_size t in
  let old_iaddr = Inode_map.location t.imap ino in
  let old_map = Hashtbl.create 64 in
  (if not (Types.Iaddr.is_nil old_iaddr) then
     match decode_inode t old_iaddr with
     | None -> ()
     | Some old_inode ->
         let old_fmap =
           Filemap.load ~with_block:(with_block t) t.layout old_inode
         in
         Filemap.iter_mapped old_fmap (fun i a -> Hashtbl.replace old_map (`Data i) a);
         List.iter
           (fun (s, a) -> Hashtbl.replace old_map (`Ind s) a)
           (Filemap.indirect_blocks old_fmap));
  kill_inode t old_iaddr;
  Inode_map.set_location t.imap ino new_iaddr;
  let with_block addr f =
    match Hashtbl.find_opt indirect addr with
    | Some b -> f b
    | None -> with_block t addr f
  in
  let h = handle_of_inode ~with_block t (Hashtbl.find latest ino) in
  Hashtbl.replace t.handles ino h;
  Inode_map.set_ftype t.imap ino h.inode.Inode.ftype;
  (let carried = ref None in
   let note a =
     if !carried = None then carried := Hashtbl.find_opt versions a
   in
   Filemap.iter_mapped h.fmap (fun _ a -> note a);
   List.iter (fun (_, a) -> note a) (Filemap.indirect_blocks h.fmap);
   Option.iter (Inode_map.set_version t.imap ino) !carried);
  Seg_usage.add_live t.usage
    (Layout.seg_of_block t.layout (Types.Iaddr.block new_iaddr))
    ~bytes:t.layout.Layout.inode_size ~mtime:h.inode.Inode.mtime;
  let seen = Hashtbl.create 64 in
  let account key addr =
    Hashtbl.replace seen key ();
    let old = Hashtbl.find_opt old_map key in
    if old <> Some addr then begin
      Option.iter (fun a -> kill t a ~bytes:bs) old;
      Seg_usage.add_live t.usage
        (Layout.seg_of_block t.layout addr)
        ~bytes:bs ~mtime:h.inode.Inode.mtime
    end
  in
  Filemap.iter_mapped h.fmap (fun i a -> account (`Data i) a);
  List.iter (fun (s, a) -> account (`Ind s) a) (Filemap.indirect_blocks h.fmap);
  Hashtbl.iter
    (fun key a -> if not (Hashtbl.mem seen key) then kill t a ~bytes:bs)
    old_map

(* Dir-op replay is ensure-style: an operation whose effects did reach
   disk is a no-op. *)
let inode_live t ino = Inode_map.is_allocated t.imap ino

(* A parent referenced by a journal record can be live yet no longer a
   directory: its ino was freed by an [rmdir] and reused for a regular
   file inside the recovery window.  Every entry of the dead directory
   incarnation is moot, so such records are skipped exactly like ones
   whose parent died outright. *)
let dir_live t ino =
  inode_live t ino && (get_handle t ino).inode.Inode.ftype = Types.Directory

(* Make [dir/name] point at [ino], or no longer at it. *)
let ensure_entry t ~dir name ino =
  if lookup t ~dir name <> Some ino then
    update_dir t dir (fun d -> Directory.replace d name ino)

let ensure_no_entry t ~dir name ino =
  if lookup t ~dir name = Some ino then
    update_dir t dir (fun d -> Directory.remove d name)

let replay_add t ~stale ~dir ~name ~ino ~nlink =
  if dir_live t dir then
    (* A stale fresh create would alias two names to the dead
       incarnation's inode — left live when its Remove was suppressed to
       protect a durable rename destination; like a create whose inode
       never reached the log (the paper's one uncompletable operation),
       its entry drops. *)
    if inode_live t ino && not stale then begin
      ensure_entry t ~dir name ino;
      set_nlink t ino nlink
    end
    else ensure_no_entry t ~dir name ino

(* A rename onto an existing name queues (Remove old-dst, Rename) as one
   operation.  When the renamed inode never survived to the log (and no
   later Remove freed it: then it died, and the rename did happen), the
   Rename is skipped and the Remove must be suppressed too, or an
   unacknowledged rename would destroy its durable destination.  A
   Remove whose ino holds another incarnation ([other]: a later create
   reused it and survived, or the removed one was a lost incarnation)
   drops only its entry, or a live file would lose its inode. *)
let replay_remove t ~other ~renamed_over ~dir ~name ~ino ~nlink =
  let covered_by_dead_rename =
    (match renamed_over with
    | Some { Recovery.op = Dir_log.Rename r; stale; freed_later; _ } ->
        r.ndir = dir && r.nname = name
        && not ((inode_live t r.ino && not stale) || freed_later)
    | _ -> false)
    && not other
  in
  if not covered_by_dead_rename then begin
    if dir_live t dir then ensure_no_entry t ~dir name ino;
    if inode_live t ino && not other then
      if nlink <= 0 then delete_file t ino else set_nlink t ino nlink
  end

let replay_dirops t dirops =
  let rec go = function
    | [] -> ()
    | (d : Recovery.dirop) :: rest ->
        (match d.Recovery.op with
        | Dir_log.Add { dir; name; ino; nlink; fresh = _ } ->
            replay_add t ~stale:d.Recovery.stale ~dir ~name ~ino ~nlink
        | Dir_log.Remove { dir; name; ino; nlink } ->
            let renamed_over = match rest with n :: _ -> Some n | [] -> None in
            replay_remove t
              ~other:(d.Recovery.stale || d.Recovery.survives_reuse)
              ~renamed_over ~dir ~name ~ino ~nlink
        | Dir_log.Rename { odir; oname; ndir; nname; ino } ->
            if inode_live t ino && not d.Recovery.stale then begin
              if dir_live t odir then ensure_no_entry t ~dir:odir oname ino;
              if dir_live t ndir then ensure_entry t ~dir:ndir nname ino
            end);
        go rest
  in
  go dirops

(* Replay can leave a recovered inode with no surviving directory entry —
   its create's parent directory died (or its ino was reused as a file)
   inside the recovery window, so its [Add] was skipped.  Walk the
   surviving namespace and delete every allocated inode nothing
   references; anything else would fail fsck's reachability and nlink
   accounting forever after.  The walk descends only into directories,
   and the inode map's type word says which entries are: an inode is
   loaded only for a directory, or where the word is unknown, so the
   files the log since the checkpoint does not name stay on disk. *)
let drop_orphans t =
  let reachable = Hashtbl.create 64 in
  let is_dir ino =
    match Inode_map.ftype t.imap ino with
    | Some ftype -> ftype = Types.Directory
    | None -> (get_handle t ino).inode.Inode.ftype = Types.Directory
  in
  let rec mark ino =
    if not (Hashtbl.mem reachable ino) then begin
      Hashtbl.replace reachable ino ();
      if is_dir ino then
        List.iter (fun (_, child) -> mark child) (readdir t ino)
    end
  in
  mark Types.root_ino;
  let orphans = ref [] in
  Inode_map.iter_allocated t.imap (fun ino _ ->
      if not (Hashtbl.mem reachable ino) then orphans := ino :: !orphans);
  List.iter (delete_file t) !orphans

let recover ?config ?metrics ?tier disk =
  let t, scan, opened =
    open_volume ~caller:"Fs.recover" ~roll_forward:true ?config ?metrics ?tier
      disk
  in
  let d = Recovery.digest t.layout scan.Recovery.writes in
  let phase name f = (name, snd (with_io t.disk f)) in
  let reaccount =
    phase "reaccount" (fun () ->
        List.iter
          (reaccount_inode t ~versions:d.Recovery.versions
             ~latest:scan.Recovery.latest_inodes
             ~indirect:scan.Recovery.indirect_blocks)
          d.Recovery.inodes)
  in
  let replay =
    phase "replay" (fun () ->
        replay_dirops t d.Recovery.dirops;
        drop_orphans t)
  in
  refresh_pool t;
  let closing = phase "checkpoint" (fun () -> checkpoint t) in
  let phases =
    List.map
      (fun (phase, (io : Io_stats.t)) ->
        {
          phase;
          disk_s = io.Io_stats.busy_s;
          reads = io.Io_stats.reads;
        })
      (opened @ [ reaccount; replay; closing ])
  in
  ( t,
    {
      writes_replayed = List.length scan.Recovery.writes;
      inodes_recovered = List.length d.Recovery.inodes;
      data_blocks_recovered = d.Recovery.data_blocks;
      dirops_applied = List.length d.Recovery.dirops;
      segments_scanned = scan.Recovery.segments_scanned;
      blocks_verified = scan.Recovery.blocks_verified;
      phases;
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
  flush t ~cleaner:false;
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

let iter_files ?(flush = true) t f =
  if flush then Fs_state.flush t ~cleaner:false;
  Inode_map.iter_allocated t.imap (fun ino _ ->
      let h = get_handle t ino in
      f ino h.inode)

let with_handle t ino f =
  let h = get_handle t ino in
  f h.inode h.fmap

let block_cached t addr = Vdev_cache.mem t.cache addr

let cached_inos t = Hashtbl.fold (fun ino _ acc -> ino :: acc) t.handles []
let dirty_inos t = Ino_set.elements t.dirty_inos

let imap_location t ino = Inode_map.location t.imap ino
let imap_ftype t ino = Inode_map.ftype t.imap ino
let imap_block_addr t i = Inode_map.block_addr t.imap i

let usage_block_addrs t =
  List.init (Seg_usage.nblocks t.usage) (Seg_usage.block_addr t.usage)

let segment_live_bytes t s = Seg_usage.live_bytes t.usage s
