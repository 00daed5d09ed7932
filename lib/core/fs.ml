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
let layout t = t.layout
let config t = t.config

let tick t =
  t.clock <- t.clock +. 1.0;
  t.clock

let sync = Fs_state.sync
let checkpoint = Fs_state.checkpoint
let clean_segment_count = Fs_state.clean_segment_count
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

let read_file_block t h ino blockno =
  match Hashtbl.find_opt t.dirty_data (ino, blockno) with
  | Some b -> Bytes.copy b
  | None ->
      let addr = Filemap.get h.fmap blockno in
      if addr = Types.nil_addr then Bytes.make (block_size t) '\000'
      else begin
        Tier_policy.note_read t addr;
        read_disk_block t addr
      end

let put_dirty_block t ino blockno b =
  if not (Hashtbl.mem t.dirty_data (ino, blockno)) then
    t.dirty_count <- t.dirty_count + 1;
  Hashtbl.replace t.dirty_data (ino, blockno) b

(* A full write buffer goes to the log, which may call the cleaner. *)
let flush_if_full t =
  if t.dirty_count >= t.config.Config.write_buffer_blocks then begin
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
    flush_if_full t
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
    ~free:(fun addr -> kill t addr ~bytes:bs);
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
      ~free:(fun addr -> kill t addr ~bytes:bs)
  end;
  h.inode.Inode.size <- Bytes.length fresh;
  h.inode.Inode.mtime <- tick t;
  h.inode_dirty <- true;
  h.content <- Some fresh;
  flush_if_full t

let lookup t ~dir name = Directory.find (dir_contents t dir) name

let readdir t ino = Directory.entries (dir_contents t ino)

let queue_dirop t record = t.pending_dirops <- record :: t.pending_dirops

(* A fresh inode, cached with no on-disk copy yet; a directory starts
   empty. *)
let new_inode t ~ftype =
  let ino = Inode_map.allocate t.imap in
  let inode = Inode.create ~ino ~ftype ~mtime:(tick t) in
  let dir = ftype = Types.Directory in
  let content = if dir then Some (Directory.to_bytes Directory.empty) else None in
  Hashtbl.replace t.handles ino
    { inode; fmap = Filemap.create_empty t.layout inode; inode_dirty = true; content };
  Inode_map.set_location t.imap ino placeholder_iaddr;
  ino

let create_node t ~dir name ~ftype =
  Directory.check_name name;
  let d = dir_contents t dir in
  if Directory.mem d name then Types.fs_error "name %S already exists" name;
  let ino = new_inode t ~ftype in
  queue_dirop t (Dir_log.Add { dir; name; ino; nlink = 1; fresh = true });
  set_dir_contents t dir (Directory.add d name ino);
  if ftype = Types.Directory then set_dir_contents t ino Directory.empty;
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

let set_nlink t ino nlink =
  let h = get_handle t ino in
  if h.inode.Inode.nlink <> nlink then begin
    h.inode.Inode.nlink <- nlink;
    h.inode_dirty <- true
  end

let delete_file t ino =
  let h = get_handle t ino in
  let bs = block_size t in
  drop_cached_blocks_from t ino ~first_block:0;
  Filemap.iter_mapped h.fmap (fun _ addr -> kill t addr ~bytes:bs);
  List.iter
    (fun (_, addr) -> kill t addr ~bytes:bs)
    (Filemap.indirect_blocks h.fmap);
  kill_inode t (Inode_map.location t.imap ino);
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
  let ino = new_inode t ~ftype:Types.Directory in
  assert (ino = Types.root_ino);
  set_dir_contents t ino Directory.empty;
  checkpoint t

let mount ?config ?metrics ?tier disk =
  fst
    (open_volume ~caller:"Fs.mount" ~roll_forward:false ?config ?metrics ?tier
       disk)

let unmount t = checkpoint t

(* {1 Roll-forward (Section 4.2)} *)

(* Incorporate a recovered inode: its old on-disk copy and the blocks
   only that copy mapped die, and everything the new copy maps that the
   old one did not comes alive. *)
let reaccount_inode t (ino, new_iaddr) =
  let bs = block_size t in
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
         let old_fmap = Filemap.load ~read:(read_disk_block t) t.layout old_inode in
         Filemap.iter_mapped old_fmap (fun i a -> Hashtbl.replace old_map (`Data i) a);
         List.iter
           (fun (s, a) -> Hashtbl.replace old_map (`Ind s) a)
           (Filemap.indirect_blocks old_fmap));
  kill_inode t old_iaddr;
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
  let d = dir_contents t dir in
  if Directory.find d name <> Some ino then
    set_dir_contents t dir (Directory.replace d name ino)

let ensure_no_entry t ~dir name ino =
  let d = dir_contents t dir in
  if Directory.find d name = Some ino then
    set_dir_contents t dir (Directory.remove d name)

let replay_add t ~stale_add ~dir ~name ~ino ~nlink =
  if dir_live t dir then
    (* A stale fresh create would alias two names to the dead
       incarnation's inode — left live when its Remove was suppressed to
       protect a durable rename destination; like a create whose inode
       never reached the log (the paper's one uncompletable operation),
       its entry drops. *)
    if inode_live t ino && not stale_add then begin
      ensure_entry t ~dir name ino;
      set_nlink t ino nlink
    end
    else ensure_no_entry t ~dir name ino

(* A rename onto an existing name queues (Remove old-dst, Rename) as one
   operation.  When the renamed inode never survived to the log, the
   Rename is skipped and the Remove must be suppressed too, or an
   unacknowledged rename would destroy its durable destination — unless
   the removed ino was reused by a later create that did survive
   ([survives_reuse]): then the entry must drop, or two names would
   alias one inode. *)
let replay_remove t ~survives_reuse ~renamed_over ~dir ~name ~ino ~nlink =
  let covered_by_dead_rename =
    (match renamed_over with
    | Some (Dir_log.Rename { ndir; nname; ino = rino; _ }) ->
        ndir = dir && nname = name && not (inode_live t rino)
    | _ -> false)
    && not survives_reuse
  in
  if not covered_by_dead_rename then begin
    if dir_live t dir then ensure_no_entry t ~dir name ino;
    if inode_live t ino && not survives_reuse then
      if nlink <= 0 then delete_file t ino else set_nlink t ino nlink
  end

let replay_dirops t dirops =
  let rec go = function
    | [] -> ()
    | (d : Recovery.dirop) :: rest ->
        (match d.Recovery.op with
        | Dir_log.Add { dir; name; ino; nlink; fresh = _ } ->
            replay_add t ~stale_add:d.Recovery.stale_add ~dir ~name ~ino ~nlink
        | Dir_log.Remove { dir; name; ino; nlink } ->
            let renamed_over =
              match rest with n :: _ -> Some n.Recovery.op | [] -> None
            in
            replay_remove t ~survives_reuse:d.Recovery.survives_reuse
              ~renamed_over ~dir ~name ~ino ~nlink
        | Dir_log.Rename { odir; oname; ndir; nname; ino } ->
            if inode_live t ino then begin
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
   accounting forever after. *)
let drop_orphans t =
  let reachable = Hashtbl.create 64 in
  let rec mark ino =
    if not (Hashtbl.mem reachable ino) then begin
      Hashtbl.replace reachable ino ();
      if (get_handle t ino).inode.Inode.ftype = Types.Directory then
        List.iter (fun (_, child) -> mark child) (readdir t ino)
    end
  in
  mark Types.root_ino;
  let orphans = ref [] in
  Inode_map.iter_allocated t.imap (fun ino _ ->
      if not (Hashtbl.mem reachable ino) then orphans := ino :: !orphans);
  List.iter (delete_file t) !orphans

let recover ?config ?metrics ?tier disk =
  let t, scan =
    open_volume ~caller:"Fs.recover" ~roll_forward:true ?config ?metrics ?tier
      disk
  in
  let d = Recovery.digest t.layout scan.Recovery.writes in
  List.iter (reaccount_inode t) d.Recovery.inodes;
  replay_dirops t d.Recovery.dirops;
  drop_orphans t;
  refresh_pool t;
  checkpoint t;
  ( t,
    {
      writes_replayed = List.length scan.Recovery.writes;
      inodes_recovered = List.length d.Recovery.inodes;
      data_blocks_recovered = d.Recovery.data_blocks;
      dirops_applied = List.length d.Recovery.dirops;
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

let iter_files t f =
  flush t ~cleaner:false;
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
