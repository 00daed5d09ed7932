module Vdev = Lfs_disk.Vdev

type report = {
  errors : string list;
  files : int;
  directories : int;
  live_data_blocks : int;
  live_indirect_blocks : int;
}

let is_clean r = r.errors = []

let check fs =
  Fs.sync fs;
  let layout = Fs.layout fs in
  let bs = layout.Layout.block_size in
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let files = ref 0 and directories = ref 0 in
  let live_data = ref 0 and live_indirect = ref 0 in
  let expected_live = Array.make layout.Layout.nsegs 0 in
  let owners : (Types.baddr, string) Hashtbl.t = Hashtbl.create 1024 in
  let live_addrs : (Types.baddr, string) Hashtbl.t = Hashtbl.create 1024 in
  let claim addr ~bytes what =
    let seg = Layout.seg_of_block layout addr in
    if seg < 0 || seg >= layout.Layout.nsegs then
      error "%s: block %d outside the log area" what addr
    else begin
      Hashtbl.replace live_addrs addr what;
      expected_live.(seg) <- expected_live.(seg) + bytes;
      (* Inode slots share a block; only whole blocks get uniqueness. *)
      if bytes = bs then begin
        (match Hashtbl.find_opt owners addr with
        | Some other -> error "block %d claimed by both %s and %s" addr other what
        | None -> ());
        Hashtbl.replace owners addr what
      end
    end
  in
  (* Inodes, block maps, data blocks. *)
  let allocated = ref [] in
  Fs.iter_files fs (fun ino inode ->
      allocated := ino :: !allocated;
      if inode.Inode.ino <> ino then
        error "inode %d stores number %d" ino inode.Inode.ino;
      (match inode.Inode.ftype with
      | Types.Regular -> incr files
      | Types.Directory -> incr directories);
      let iaddr = Fs.imap_location fs ino in
      claim (Types.Iaddr.block iaddr) ~bytes:layout.Layout.inode_size
        (Printf.sprintf "inode %d" ino);
      Fs.with_handle fs ino (fun inode fmap ->
          let max_blocks = (inode.Inode.size + bs - 1) / bs in
          Filemap.iter_mapped fmap (fun blockno addr ->
              incr live_data;
              if blockno >= max_blocks then
                error "inode %d: block %d beyond size %d" ino blockno
                  inode.Inode.size;
              claim addr ~bytes:bs (Printf.sprintf "data %d.%d" ino blockno));
          List.iter
            (fun (sblockno, addr) ->
              incr live_indirect;
              claim addr ~bytes:bs
                (Printf.sprintf "indirect %d.%d" ino sblockno))
            (Filemap.indirect_blocks fmap)));
  (* Inode map and usage table blocks. *)
  for i = 0 to layout.Layout.imap_blocks - 1 do
    let addr = Fs.imap_block_addr fs i in
    if addr <> Types.nil_addr then
      claim addr ~bytes:bs (Printf.sprintf "imap block %d" i)
  done;
  List.iteri
    (fun i addr ->
      if addr <> Types.nil_addr then
        claim addr ~bytes:bs (Printf.sprintf "usage block %d" i))
    (Fs.usage_block_addrs fs);
  (* Usage-table accounting must match the recomputation exactly. *)
  for s = 0 to layout.Layout.nsegs - 1 do
    let actual = Fs.segment_live_bytes fs s in
    if actual <> expected_live.(s) then
      error "segment %d: usage table says %d live bytes, walk found %d" s
        actual expected_live.(s)
  done;
  (* Data integrity: every live block must sit inside an intact
     summarized log write.  Each segment's writes chain from slot 0
     ({!Summary.walk_segment}; stale summaries from the segment's
     previous life fail its self-identification test or, here, a
     sequence floor, and end the walk), and each write stores an
     Adler-32 over its payload blocks.  A live block whose covering
     write fails its checksum has rotted or was torn; a live block no
     chain reaches means the summary chain itself was truncated or
     corrupted.  Structural checks above can all pass in both cases —
     the block pointers are fine, the bytes are not. *)
  let disk = List.hd (Fs.devices fs) in
  let covered : (Types.baddr, bool) Hashtbl.t = Hashtbl.create 1024 in
  for seg = 0 to layout.Layout.nsegs - 1 do
    let first = Layout.seg_first_block layout seg in
    let last_seq = ref (-1) in
    Summary.walk_segment ~seg_blocks:layout.Layout.seg_blocks ~seg
      ~read:(fun slot -> Vdev.read_block disk (first + slot))
      (fun s ->
        s.Summary.seq > !last_seq
        && begin
             last_seq := s.Summary.seq;
             let n = List.length s.Summary.entries in
             let ok =
               Summary.payload_checksum
                 (Vdev.read_blocks disk (first + s.Summary.slot + 1) n)
               = s.Summary.payload_sum
             in
             for i = 0 to n - 1 do
               Hashtbl.replace covered (first + s.Summary.slot + 1 + i) ok
             done;
             true
           end)
  done;
  Hashtbl.iter
    (fun addr what ->
      match Hashtbl.find_opt covered addr with
      | Some true -> ()
      | Some false ->
          error "%s: block %d fails its write's payload checksum (bit rot \
                 or torn write)"
            what addr
      | None ->
          error "%s: block %d not covered by any summary chain" what addr)
    live_addrs;
  (* Directory tree: reachability, link counts, parse. *)
  let refcounts : (Types.ino, int) Hashtbl.t = Hashtbl.create 256 in
  let visited : (Types.ino, unit) Hashtbl.t = Hashtbl.create 256 in
  let rec walk dir =
    if Hashtbl.mem visited dir then error "directory %d visited twice (cycle)" dir
    else begin
      Hashtbl.replace visited dir ();
      match Fs.readdir fs dir with
      | entries ->
          List.iter
            (fun (name, ino) ->
              (match Directory.check_name name with
              | () -> ()
              | exception Types.Fs_error m -> error "bad name in dir %d: %s" dir m);
              let prev = Option.value ~default:0 (Hashtbl.find_opt refcounts ino) in
              Hashtbl.replace refcounts ino (prev + 1);
              match (Fs.stat fs ino).Fs.st_ftype with
              | Types.Directory -> walk ino
              | Types.Regular -> ()
              | exception Types.Fs_error m ->
                  error "entry %d/%s -> missing inode %d: %s" dir name ino m)
            entries
      | exception Types.Corrupt m -> error "directory %d unreadable: %s" dir m
    end
  in
  Hashtbl.replace refcounts Types.root_ino 1;
  walk Types.root_ino;
  List.iter
    (fun ino ->
      let st = Fs.stat fs ino in
      let refs = Option.value ~default:0 (Hashtbl.find_opt refcounts ino) in
      (match st.Fs.st_ftype with
      | Types.Regular ->
          if refs = 0 then error "inode %d allocated but unreachable" ino
      | Types.Directory ->
          if not (Hashtbl.mem visited ino) then
            error "directory %d allocated but unreachable" ino);
      if st.Fs.st_nlink <> refs then
        error "inode %d: nlink %d but %d directory entries" ino st.Fs.st_nlink
          refs)
    !allocated;
  (* Tiered volumes: the placement map is metadata too — verify it like
     the inode map (checksums, generation, in-memory/durable agreement,
     free-pool bijectivity). *)
  (match Fs.tier fs with
  | None -> ()
  | Some ti ->
      List.iter (fun e -> error "tier: %s" e) (Lfs_disk.Vdev_tier.verify ti));
  {
    errors = List.rev !errors;
    files = !files;
    directories = !directories;
    live_data_blocks = !live_data;
    live_indirect_blocks = !live_indirect;
  }

let pp_report ppf r =
  Format.fprintf ppf "fsck: %d files, %d dirs, %d data blocks, %d indirect"
    r.files r.directories r.live_data_blocks r.live_indirect_blocks;
  if r.errors = [] then Format.fprintf ppf " — clean"
  else
    List.iter (fun e -> Format.fprintf ppf "@.  ERROR: %s" e) r.errors
