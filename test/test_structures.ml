(* Unit tests for the on-disk structures: layout, superblock, inodes,
   summaries, the inode map, the segment usage table, directories and
   the directory operation log. *)

module Types = Lfs_core.Types
module Layout = Lfs_core.Layout
module Config = Lfs_core.Config
module Inode = Lfs_core.Inode
module Summary = Lfs_core.Summary
module Inode_map = Lfs_core.Inode_map
module Seg_usage = Lfs_core.Seg_usage
module Directory = Lfs_core.Directory
module Dir_log = Lfs_core.Dir_log
module Superblock = Lfs_core.Superblock
module Checkpoint = Lfs_core.Checkpoint
module Disk = Lfs_disk.Disk

let layout = Layout.compute Helpers.test_config ~disk_blocks:1024

(* ----- Layout ----- *)

let test_layout_segments_fit () =
  let last =
    Layout.seg_first_block layout (layout.Layout.nsegs - 1)
    + layout.Layout.seg_blocks
  in
  Alcotest.(check bool) "within disk" true (last <= 1024);
  Alcotest.(check bool) "fixed area before segments" true
    (layout.Layout.seg_start > layout.Layout.ckpt_b)

let test_layout_seg_of_block () =
  Alcotest.(check int) "fixed area" (-1) (Layout.seg_of_block layout 0);
  let s3 = Layout.seg_first_block layout 3 in
  Alcotest.(check int) "first block of seg 3" 3 (Layout.seg_of_block layout s3);
  Alcotest.(check int) "last block of seg 3" 3
    (Layout.seg_of_block layout (s3 + layout.Layout.seg_blocks - 1))

let test_layout_rejects_tiny_disk () =
  match Layout.compute Helpers.test_config ~disk_blocks:64 with
  | _ -> Alcotest.fail "should reject"
  | exception Invalid_argument _ -> ()

(* The one segment minimum: [clean_stop] plus two segments per write
   head must fit after the fixed area.  At that boundary the layout is
   accepted; one block less is refused, though the raw count
   [disk_blocks / seg_blocks] would still reach it. *)
let test_layout_segment_minimum () =
  List.iter
    (fun heads ->
      let c = { Helpers.test_config with Config.log_heads = heads } in
      let need = c.Config.clean_stop + (2 * heads) in
      let start = (Layout.compute c ~disk_blocks:4096).Layout.seg_start in
      let boundary = start + (need * c.Config.seg_blocks) in
      Alcotest.(check int)
        (Printf.sprintf "%d heads: segments at the boundary" heads)
        need (Layout.compute c ~disk_blocks:boundary).Layout.nsegs;
      Alcotest.(check bool) "the raw count reaches it a block lower" true
        ((boundary - 1) / c.Config.seg_blocks >= need);
      match Layout.compute c ~disk_blocks:(boundary - 1) with
      | _ -> Alcotest.failf "%d heads: one block below the minimum accepted" heads
      | exception Invalid_argument _ -> ())
    [ 1; 2; 4 ]

let test_layout_max_file () =
  let m = Layout.max_file_blocks layout in
  let k = layout.Layout.addrs_per_block in
  Alcotest.(check int) "10 + K + K^2" (10 + k + (k * k)) m

(* ----- Superblock ----- *)

let test_superblock_roundtrip () =
  let disk = Helpers.fresh_disk () in
  let sb = Superblock.create Helpers.test_config ~disk_blocks:1024 in
  Superblock.store sb (Helpers.vdev disk);
  let sb' = Superblock.load (Helpers.vdev disk) in
  Alcotest.(check bool) "config preserved" true (sb'.Superblock.config = Helpers.test_config)

let test_superblock_detects_corruption () =
  let disk = Helpers.fresh_disk () in
  let sb = Superblock.create Helpers.test_config ~disk_blocks:1024 in
  Superblock.store sb (Helpers.vdev disk);
  let b = Disk.read_block disk 0 in
  Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0xff));
  Disk.write_block disk 0 b;
  match Superblock.load (Helpers.vdev disk) with
  | _ -> Alcotest.fail "should detect corruption"
  | exception Types.Corrupt _ -> ()

let test_superblock_rejects_unformatted () =
  let disk = Helpers.fresh_disk () in
  match Superblock.load (Helpers.vdev disk) with
  | _ -> Alcotest.fail "should reject zeroed disk"
  | exception Types.Corrupt _ -> ()

(* ----- Inode ----- *)

let test_inode_roundtrip () =
  let inode = Inode.create ~ino:42 ~ftype:Types.Regular ~mtime:7.5 in
  inode.Inode.size <- 123456;
  inode.Inode.nlink <- 3;
  inode.Inode.direct.(0) <- 99;
  inode.Inode.direct.(9) <- 1234;
  inode.Inode.indirect <- 777;
  inode.Inode.dindirect <- Types.nil_addr;
  let b = Bytes.make 1024 '\000' in
  Inode.encode inode b ~slot:2;
  match Inode.decode b ~slot:2 with
  | None -> Alcotest.fail "slot should decode"
  | Some i -> Alcotest.(check bool) "equal" true (Inode.equal inode i)

let test_inode_empty_slot () =
  let b = Bytes.make 1024 '\000' in
  Alcotest.(check bool) "unused slot" true (Inode.decode b ~slot:0 = None)

let test_inode_clear_slot () =
  let inode = Inode.create ~ino:1 ~ftype:Types.Directory ~mtime:1.0 in
  let b = Bytes.make 1024 '\000' in
  Inode.encode inode b ~slot:1;
  Inode.clear_slot b ~slot:1;
  Alcotest.(check bool) "cleared" true (Inode.decode b ~slot:1 = None)

let test_inode_slots_independent () =
  let a = Inode.create ~ino:1 ~ftype:Types.Regular ~mtime:1.0 in
  let b = Inode.create ~ino:2 ~ftype:Types.Directory ~mtime:2.0 in
  let buf = Bytes.make 1024 '\000' in
  Inode.encode a buf ~slot:0;
  Inode.encode b buf ~slot:1;
  Alcotest.(check bool) "slot0" true
    (Inode.equal a (Option.get (Inode.decode buf ~slot:0)));
  Alcotest.(check bool) "slot1" true
    (Inode.equal b (Option.get (Inode.decode buf ~slot:1)))

let test_inode_bad_magic () =
  let b = Bytes.make 1024 '\000' in
  Bytes.set b 0 '\042';
  match Inode.decode b ~slot:0 with
  | _ -> Alcotest.fail "should raise on bad magic"
  | exception Types.Corrupt _ -> ()

let test_inode_nblocks () =
  let i = Inode.create ~ino:1 ~ftype:Types.Regular ~mtime:0.0 in
  i.Inode.size <- 0;
  Alcotest.(check int) "empty" 0 (Inode.nblocks ~block_size:1024 i);
  i.Inode.size <- 1;
  Alcotest.(check int) "one byte" 1 (Inode.nblocks ~block_size:1024 i);
  i.Inode.size <- 1024;
  Alcotest.(check int) "exact block" 1 (Inode.nblocks ~block_size:1024 i);
  i.Inode.size <- 1025;
  Alcotest.(check int) "one byte over" 2 (Inode.nblocks ~block_size:1024 i)

(* ----- Summary ----- *)

let summary_fixture =
  {
    Summary.seq = 17;
    seg = 3;
    slot = 5;
    next_seg = 9;
    timestamp = 123.0;
    payload_sum = 0xabcdef;
    durable_below = 14;
    tail_sum = 0xDEAD;
    entries =
      [
        { Summary.kind = Types.Data; ino = 4; blockno = 2; version = 1; mtime = 50.0 };
        { Summary.kind = Types.Inode_block; ino = 0; blockno = 0; version = 0; mtime = 60.0 };
        { Summary.kind = Types.Indirect; ino = 4; blockno = -2; version = 1; mtime = 55.0 };
      ];
    records = [];
    inodes = [];
  }

let test_summary_roundtrip () =
  let b = Helpers.encode_summary ~block_size:1024 summary_fixture in
  match Summary.decode b with
  | None -> Alcotest.fail "should decode"
  | Some s -> Alcotest.(check bool) "equal" true (s = summary_fixture)

(* A summary carrying a flush's records and two inodes inline, in the
   last two of a 1 KB block's eight inode slots. *)
let inline_fixture =
  let inode ino =
    let i = Inode.create ~ino ~ftype:Types.Regular ~mtime:(float_of_int ino) in
    i.Inode.size <- 1000 * ino;
    i.Inode.direct.(0) <- 77 + ino;
    i
  in
  {
    summary_fixture with
    Summary.records =
      [
        Dir_log.Add { dir = 1; name = "new"; ino = 4; nlink = 1; fresh = true };
        Dir_log.Remove { dir = 1; name = "old"; ino = 5; nlink = 0 };
        Dir_log.Rename { odir = 1; oname = "a"; ndir = 2; nname = "b"; ino = 6 };
      ];
    inodes = [ inode 4; inode 6 ];
  }

let test_summary_inline_roundtrip () =
  let b = Helpers.encode_summary ~block_size:1024 inline_fixture in
  (match Summary.decode b with
  | None -> Alcotest.fail "should decode"
  | Some s -> Alcotest.(check bool) "equal" true (s = inline_fixture));
  (* The inline inodes sit in the block's last slots, where an inode
     block's decoder finds them. *)
  Alcotest.(check (list int)) "slots 6 and 7" [ 4; 6 ]
    (List.map
       (fun slot -> (Option.get (Inode.decode b ~slot)).Inode.ino)
       [ 6; 7 ]);
  Alcotest.(check (list (pair int int))) "their addresses"
    (List.map
       (fun slot -> (Layout.seg_first_block layout 3 + 5, layout.Layout.inodes_per_block - slot))
       [ 2; 1 ])
    (List.map
       (fun (ia, _) -> (Types.Iaddr.block ia, Types.Iaddr.slot ia))
       (Summary.inline_inodes inline_fixture layout))

let test_summary_inline_capacity () =
  Alcotest.(check bool) "entries up to the inline slots fit" true
    (Summary.fits ~block_size:1024 ~entries:28 ~record_bytes:0 ~inodes:2);
  Alcotest.(check bool) "one more overlaps them" false
    (Summary.fits ~block_size:1024 ~entries:29 ~record_bytes:0 ~inodes:2);
  (* 64 + 28 * 25 = 764 bytes, and the two slots start at byte 768. *)
  Alcotest.(check bool) "records fill the room left" true
    (Summary.fits ~block_size:1024 ~entries:28 ~record_bytes:4 ~inodes:2);
  Alcotest.(check bool) "and no more" false
    (Summary.fits ~block_size:1024 ~entries:28 ~record_bytes:5 ~inodes:2);
  Alcotest.(check bool) "no more inodes than slots" false
    (Summary.fits ~block_size:1024 ~entries:0 ~record_bytes:0 ~inodes:9);
  let entries =
    List.init 29 (fun i ->
        { Summary.kind = Types.Data; ino = i; blockno = i; version = 0; mtime = 0.0 })
  in
  match
    Helpers.encode_summary ~block_size:1024
      { inline_fixture with Summary.entries; records = [] }
  with
  | _ -> Alcotest.fail "should reject"
  | exception Invalid_argument _ -> ()

let test_summary_detects_corruption () =
  let b = Helpers.encode_summary ~block_size:1024 summary_fixture in
  Bytes.set b 100 'X';
  Alcotest.(check bool) "corrupt rejected" true (Summary.decode b = None)

let test_summary_garbage_rejected () =
  Alcotest.(check bool) "zeros" true (Summary.decode (Bytes.make 1024 '\000') = None);
  Alcotest.(check bool) "noise" true
    (Summary.decode (Helpers.bytes_of_pattern ~seed:1 1024) = None)

let test_summary_capacity_enforced () =
  Alcotest.(check int) "a 4 KB summary describes 161 blocks" 161
    (Summary.max_entries ~block_size:4096);
  let too_many =
    List.init (Summary.max_entries ~block_size:1024 + 1) (fun i ->
        { Summary.kind = Types.Data; ino = i; blockno = i; version = 0; mtime = 0.0 })
  in
  match Helpers.encode_summary ~block_size:1024 { summary_fixture with entries = too_many } with
  | _ -> Alcotest.fail "should reject"
  | exception Invalid_argument _ -> ()

let test_summary_entry_addr () =
  let l = layout in
  let s = { summary_fixture with seg = 2; slot = 4 } in
  Alcotest.(check int) "first payload block"
    (Layout.seg_first_block l 2 + 5)
    (Summary.entry_addr s l 0);
  Alcotest.(check int) "next slot" (4 + 1 + 3) (Summary.next_slot s)

let test_summary_payload_checksum () =
  let p1 = Bytes.make 2048 'a' and p2 = Bytes.make 2048 'b' in
  Alcotest.(check bool) "payloads distinguish" false
    (Summary.payload_checksum p1 = Summary.payload_checksum p2)

(* ----- Inode map ----- *)

let test_imap_allocate_free () =
  let m = Inode_map.create layout in
  let a = Inode_map.allocate m in
  Alcotest.(check int) "first is root ino" Types.root_ino a;
  Inode_map.set_location m a (Types.Iaddr.make ~block:100 ~slot:0);
  let b = Inode_map.allocate m in
  Alcotest.(check bool) "distinct" true (a <> b);
  Inode_map.set_location m b (Types.Iaddr.make ~block:100 ~slot:1);
  Inode_map.free m a;
  Alcotest.(check bool) "freed slot reusable" true (Inode_map.allocate m = a)

(* A table store's [read addr n]: the [n] blocks from [addr], joined. *)
let read_run store addr n =
  Bytes.concat Bytes.empty (List.init n (fun k -> Hashtbl.find store (addr + k)))

let test_imap_version_bumps () =
  let m = Inode_map.create layout in
  let i = Inode_map.allocate m in
  Inode_map.set_location m i (Types.Iaddr.make ~block:5 ~slot:3);
  Inode_map.set_ftype m i Types.Directory;
  let v0 = Inode_map.version m i in
  Inode_map.bump_version m i;
  Alcotest.(check int) "bump" (v0 + 1) (Inode_map.version m i);
  Inode_map.free m i;
  Alcotest.(check int) "free bumps too" (v0 + 2) (Inode_map.version m i);
  Alcotest.(check bool) "free clears the type word" true (Inode_map.ftype m i = None)

(* A table's blocks load with one read per run of adjacent addresses,
   skipping nil ones, each block decoded from its place in its run. *)
let test_table_read_runs () =
  let nil = Types.nil_addr in
  let addrs = [| 5; 6; nil; 9; 10; 11; 3; nil |] in
  let bs = layout.Layout.block_size in
  let reads = ref [] and decoded = ref [] in
  let read addr n =
    reads := (addr, n) :: !reads;
    Bytes.init (n * bs) (fun i -> Char.chr (addr + (i / bs)))
  in
  Layout.read_runs layout ~read addrs (fun i b ~pos ->
      decoded := (i, Char.code (Bytes.get b pos)) :: !decoded);
  Alcotest.(check (list (pair int int))) "one read per run" [ (5, 2); (9, 3); (3, 1) ]
    (List.rev !reads);
  Alcotest.(check (list (pair int int))) "each block from its place"
    [ (0, 5); (1, 6); (3, 9); (4, 10); (5, 11); (6, 3) ]
    (List.rev !decoded)

let test_imap_block_roundtrip () =
  let m = Inode_map.create layout in
  for i = 1 to 40 do
    let ino = Inode_map.allocate m in
    Inode_map.set_location m ino (Types.Iaddr.make ~block:(200 + i) ~slot:(i mod 8));
    if i mod 3 > 0 then
      Inode_map.set_ftype m ino (if i mod 3 = 1 then Types.Regular else Types.Directory);
    Inode_map.set_atime m ino (float_of_int i)
  done;
  (* Write the dirty blocks out the way a checkpoint does. *)
  let disk = Hashtbl.create 8 in
  List.iter
    (fun i ->
      Hashtbl.replace disk (1000 + i) (let b = Bytes.create layout.Layout.block_size in
         Inode_map.encode_block_into m i b ~pos:0;
         b);
      Inode_map.set_block_addr m i (1000 + i);
      Inode_map.clear_block_dirty m i)
    (Inode_map.dirty_blocks m);
  Alcotest.(check bool) "no dirty blocks left" true (Inode_map.dirty_blocks m = []);
  let addrs = Array.init (Inode_map.nblocks m) (Inode_map.block_addr m) in
  let m' = Inode_map.load layout ~read:(read_run disk) ~block_addrs:addrs in
  for ino = 0 to Inode_map.max_inodes m - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "ino %d location" ino)
      true
      (Types.Iaddr.equal (Inode_map.location m ino) (Inode_map.location m' ino));
    Alcotest.(check int) "version" (Inode_map.version m ino) (Inode_map.version m' ino);
    Alcotest.(check bool) "type word" true (Inode_map.ftype m ino = Inode_map.ftype m' ino)
  done

let test_imap_full () =
  let m = Inode_map.create layout in
  for _ = 1 to Inode_map.max_inodes m - Types.root_ino do
    let i = Inode_map.allocate m in
    Inode_map.set_location m i (Types.Iaddr.make ~block:1 ~slot:0)
  done;
  match Inode_map.allocate m with
  | _ -> Alcotest.fail "map should be full"
  | exception Types.Fs_error _ -> ()

let test_imap_dirty_tracking () =
  let m = Inode_map.create layout in
  List.iter (Inode_map.clear_block_dirty m) (Inode_map.dirty_blocks m);
  Alcotest.(check (list int)) "clean" [] (Inode_map.dirty_blocks m);
  let i = Inode_map.allocate m in
  Inode_map.set_location m i (Types.Iaddr.make ~block:2 ~slot:0);
  Alcotest.(check (list int)) "one dirty block"
    [ Inode_map.block_of_ino m i ]
    (Inode_map.dirty_blocks m)

let test_imap_count_allocated () =
  let m = Inode_map.create layout in
  Alcotest.(check int) "empty" 0 (Inode_map.count_allocated m);
  let i = Inode_map.allocate m in
  Inode_map.set_location m i (Types.Iaddr.make ~block:1 ~slot:0);
  Alcotest.(check int) "one" 1 (Inode_map.count_allocated m)

(* ----- Segment usage table ----- *)

let test_usage_accounting () =
  let u = Seg_usage.create layout in
  Seg_usage.add_live u 2 ~bytes:1024 ~mtime:5.0;
  Seg_usage.add_live u 2 ~bytes:512 ~mtime:3.0;
  Alcotest.(check int) "live bytes" 1536 (Seg_usage.live_bytes u 2);
  Alcotest.(check (float 0.0)) "mtime keeps max" 5.0 (Seg_usage.mtime u 2);
  Seg_usage.kill u 2 ~bytes:1536;
  Alcotest.(check bool) "clean again" true (Seg_usage.is_clean u 2)

let test_usage_utilization () =
  let u = Seg_usage.create layout in
  let cap = layout.Layout.seg_blocks * layout.Layout.block_size in
  Seg_usage.add_live u 0 ~bytes:(cap / 2) ~mtime:1.0;
  Alcotest.(check (float 1e-9)) "half" 0.5 (Seg_usage.utilization u 0)

let test_usage_clean_lists () =
  let u = Seg_usage.create layout in
  Seg_usage.add_live u 1 ~bytes:100 ~mtime:1.0;
  Seg_usage.add_live u 3 ~bytes:100 ~mtime:1.0;
  Alcotest.(check (list int)) "dirty" [ 1; 3 ] (Seg_usage.dirty_segments u);
  Alcotest.(check int) "clean count" (Seg_usage.nsegs u - 2) (Seg_usage.clean_count u)

let test_usage_block_roundtrip () =
  let u = Seg_usage.create layout in
  for s = 0 to Seg_usage.nsegs u - 1 do
    Seg_usage.add_live u s ~bytes:(100 * (s + 1)) ~mtime:(float_of_int s)
  done;
  let store = Hashtbl.create 8 in
  List.iter
    (fun i ->
      Hashtbl.replace store (500 + i) (let b = Bytes.create layout.Layout.block_size in
         Seg_usage.encode_block_into u i b ~pos:0;
         b);
      Seg_usage.set_block_addr u i (500 + i);
      Seg_usage.clear_block_dirty u i)
    (Seg_usage.dirty_blocks u);
  let addrs = Array.init (Seg_usage.nblocks u) (Seg_usage.block_addr u) in
  let u' = Seg_usage.load layout ~read:(read_run store) ~block_addrs:addrs in
  for s = 0 to Seg_usage.nsegs u - 1 do
    Alcotest.(check int) "live" (Seg_usage.live_bytes u s) (Seg_usage.live_bytes u' s);
    Alcotest.(check (float 0.0)) "mtime" (Seg_usage.mtime u s) (Seg_usage.mtime u' s)
  done

let test_usage_kill_underflow_detected () =
  let u = Seg_usage.create layout in
  Seg_usage.add_live u 0 ~bytes:100 ~mtime:1.0;
  match Seg_usage.kill u 0 ~bytes:200 with
  | () -> Alcotest.fail "should assert"
  | exception Assert_failure _ -> ()

let test_usage_histogram_excludes () =
  let u = Seg_usage.create layout in
  let cap = layout.Layout.seg_blocks * layout.Layout.block_size in
  Seg_usage.add_live u 0 ~bytes:cap ~mtime:1.0;
  let h = Seg_usage.utilization_histogram u ~bins:10 ~exclude:(fun s -> s = 0) in
  Alcotest.(check (float 1e-9)) "only empty segments" 1.0
    (Lfs_util.Histogram.fraction h 0)

(* ----- Directory ----- *)

let dir_of entries =
  let d = Directory.create ~block_size:4096 in
  List.iter (fun (name, ino) -> ignore (Directory.add d name ino)) entries;
  d

let test_dir_roundtrip () =
  let d = dir_of [ ("alpha", 10); ("beta", 20) ] in
  let d' = Directory.of_bytes ~block_size:4096 (Directory.to_bytes d) in
  Alcotest.(check bool) "entries preserved" true
    (Directory.entries d = Directory.entries d')

let test_dir_ops () =
  let d = dir_of [ ("x", 5) ] in
  Alcotest.(check bool) "mem" true (Directory.mem d "x");
  Alcotest.(check (option int)) "find" (Some 5) (Directory.find d "x");
  Alcotest.(check (option int)) "missing" None (Directory.find d "y");
  ignore (Directory.remove d "x");
  Alcotest.(check bool) "removed" true (Directory.is_empty d)

let test_dir_duplicate_rejected () =
  let d = dir_of [ ("a", 1) ] in
  match Directory.add d "a" 2 with
  | _ -> Alcotest.fail "duplicate should be rejected"
  | exception Types.Fs_error _ ->
      Alcotest.(check (option int)) "unchanged" (Some 1) (Directory.find d "a")

let test_dir_remove_missing_rejected () =
  match Directory.remove (Directory.create ~block_size:4096) "ghost" with
  | _ -> Alcotest.fail "should fail"
  | exception Types.Fs_error _ -> ()

let test_dir_bad_names_rejected () =
  List.iter
    (fun name ->
      match Directory.check_name name with
      | () -> Alcotest.failf "name %S should be rejected" name
      | exception Types.Fs_error _ -> ())
    [ ""; "a/b"; "nul\000byte"; String.make 256 'n' ]

let test_dir_replace () =
  let d = dir_of [ ("f", 1) ] in
  ignore (Directory.replace d "f" 2);
  Alcotest.(check (option int)) "replaced" (Some 2) (Directory.find d "f");
  ignore (Directory.replace d "g" 3);
  Alcotest.(check (option int)) "added" (Some 3) (Directory.find d "g")

let test_dir_order_preserved () =
  let names = [ "c"; "a"; "b" ] in
  let d = dir_of (List.mapi (fun i n -> (n, i)) names) in
  Alcotest.(check (list string)) "insertion order" names
    (List.map fst (Directory.entries d))

let test_dir_corrupt_rejected () =
  match Directory.of_bytes ~block_size:4096 (Bytes.make 4 '\255') with
  | _ -> Alcotest.fail "should reject"
  | exception Types.Corrupt _ -> ()

(* The on-disk encoding, written independently of {!Directory}. *)
let encode_entries entries =
  let b = Buffer.create 64 in
  Buffer.add_int32_le b (Int32.of_int (List.length entries));
  List.iter
    (fun (name, ino) ->
      Buffer.add_uint16_le b (String.length name);
      Buffer.add_string b name;
      Buffer.add_int32_le b (Int32.of_int ino))
    entries;
  Buffer.to_bytes b

let test_dir_duplicate_image_first_wins () =
  let d =
    Directory.of_bytes ~block_size:4096
      (encode_entries [ ("a", 1); ("b", 2); ("a", 3) ])
  in
  Alcotest.(check (option int)) "first entry" (Some 1) (Directory.find d "a");
  Alcotest.(check int) "both entries kept" 3 (Directory.cardinal d);
  ignore (Directory.remove d "a");
  Alcotest.(check (list (pair string int))) "remove drops both"
    [ ("b", 2) ] (Directory.entries d)

let test_dir_truncated_image_rejected () =
  let b = encode_entries [ ("alpha", 1); ("beta", 2) ] in
  for cut = 1 to Bytes.length b - 1 do
    match Directory.of_bytes ~block_size:4096 (Bytes.sub b 0 cut) with
    | _ -> Alcotest.failf "image cut to %d bytes should be rejected" cut
    | exception Types.Corrupt _ -> ()
  done

(* The blocks of [fresh] a blockwise compare against [old] picks: those
   whose bytes differ, or that [old] does not fully cover. *)
let changed_blocks_oracle ~block_size ~old fresh =
  let len = Bytes.length fresh in
  List.filter
    (fun blockno ->
      let lo = blockno * block_size in
      let n = min len (lo + block_size) - lo in
      lo + n > Bytes.length old
      || not (Bytes.equal (Bytes.sub fresh lo n) (Bytes.sub old lo n)))
    (List.init ((len + block_size - 1) / block_size) Fun.id)

(* Random add/remove/replace sequences over a pool of long names, so the
   directory grows to a few hundred entries across several blocks.  After
   every op: the image is the reference list's encoding, lookups agree,
   and the reported blocks are exactly those a blockwise compare picks. *)
let prop_directory_model =
  let names =
    Array.init 400 (fun i ->
        Printf.sprintf "%s-%d" (String.make (8 + (i * 7 mod 40)) 'n') i)
  in
  QCheck.Test.make ~count:40 ~name:"directory matches reference"
    (* No shrinker: each case replays hundreds of ops, so shrinking a
       failure would take minutes; the report names the failing op. *)
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 200 700)
           (triple (int_bound 9) (int_bound 399) (int_bound 100_000))))
    (fun ops ->
      let d = ref (Directory.create ~block_size:4096) in
      let reference = ref [] in
      let step i (kind, k, ino) =
        let name = names.(k) in
        let old = Directory.to_bytes !d in
        let present = List.mem_assoc name !reference in
        let changed =
          match kind with
          | 0 | 1 | 2 | 3 | 4 | 5 ->
              if present then None
              else begin
                reference := !reference @ [ (name, ino) ];
                Some (Directory.add !d name ino)
              end
          | 6 | 7 ->
              if not present then None
              else begin
                reference := List.remove_assoc name !reference;
                Some (Directory.remove !d name)
              end
          | _ ->
              reference :=
                if present then
                  List.map
                    (fun (n, i) -> if n = name then (n, ino) else (n, i))
                    !reference
                else !reference @ [ (name, ino) ];
              Some (Directory.replace !d name ino)
        in
        let fresh = encode_entries !reference in
        if not (Bytes.equal (Directory.to_bytes !d) fresh) then
          QCheck.Test.fail_reportf "op %d: image differs from the reference" i;
        Option.iter
          (fun got ->
            let want = changed_blocks_oracle ~block_size:4096 ~old fresh in
            if got <> want then
              QCheck.Test.fail_reportf
                "op %d: changed blocks [%s], expected [%s]" i
                (String.concat ";" (List.map string_of_int got))
                (String.concat ";" (List.map string_of_int want)))
          changed;
        let agrees n = Directory.find !d n = List.assoc_opt n !reference in
        if not (agrees name && (i mod 25 <> 0 || Array.for_all agrees names))
        then QCheck.Test.fail_reportf "op %d: find disagrees" i;
        (* Now and then continue from a freshly loaded image. *)
        if i mod 97 = 96 then
          d := Directory.of_bytes ~block_size:4096 (Directory.to_bytes !d)
      in
      List.iteri step ops;
      true)

(* ----- Dirty-table trimming ----- *)

let test_drop_dirty_trims_tail () =
  let dirty = Hashtbl.create 16 in
  for blockno = 0 to 9 do
    Hashtbl.replace dirty (5, blockno) Bytes.empty;
    Hashtbl.replace dirty (6, blockno) Bytes.empty
  done;
  let released = ref 0 in
  Lfs_core.File_range.drop_dirty dirty 5 ~first:4 ~size:(10 * 512 - 100)
    ~block_size:512 ~release:(fun _ -> incr released);
  Alcotest.(check int) "every dropped buffer released" 6 !released;
  Hashtbl.iter
    (fun (ino, blockno) _ ->
      if ino = 5 && blockno >= 4 then
        Alcotest.failf "dirty block %d of inode 5 survived" blockno)
    dirty;
  Alcotest.(check int) "the rest kept" 14 (Hashtbl.length dirty)

(* ----- Directory operation log ----- *)

let dirlog_records =
  [
    Dir_log.Add { dir = 1; name = "new"; ino = 7; nlink = 1; fresh = true };
    Dir_log.Remove { dir = 1; name = "old"; ino = 8; nlink = 0 };
    Dir_log.Rename { odir = 1; oname = "a"; ndir = 2; nname = "b"; ino = 9 };
  ]

(* Each group of records rendered as a dir-log block at a nonzero
   offset of a scribbled buffer, then cut out. *)
let encode_blocks ~block_size records =
  List.map
    (fun group ->
      let buf = Bytes.make (block_size + 100) '#' in
      Dir_log.encode_block_into ~block_size group buf ~pos:100;
      Bytes.sub buf 100 block_size)
    (Dir_log.group_blocks ~block_size records)

let test_dirlog_roundtrip () =
  match encode_blocks ~block_size:1024 dirlog_records with
  | [ b ] ->
      Alcotest.(check bool) "records preserved" true
        (Dir_log.decode_block b = dirlog_records);
      Alcotest.(check char) "zero-padded" '\000' (Bytes.get b 1023)
  | blocks -> Alcotest.failf "expected 1 block, got %d" (List.length blocks)

let test_dirlog_splits_blocks () =
  let many =
    List.init 100 (fun i ->
        Dir_log.Add { dir = 1; name = Printf.sprintf "file-%04d" i; ino = i; nlink = 1; fresh = true })
  in
  let blocks = encode_blocks ~block_size:256 many in
  Alcotest.(check bool) "multiple blocks" true (List.length blocks > 1);
  let decoded = List.concat_map Dir_log.decode_block blocks in
  Alcotest.(check bool) "order preserved" true (decoded = many)

let test_dirlog_empty () =
  Alcotest.(check int) "no blocks for no records" 0
    (List.length (encode_blocks ~block_size:1024 []))

(* ----- Checkpoint regions ----- *)

let ckpt_fixture =
  {
    Checkpoint.timestamp = 42.0;
    log_seq = 7;
    heads = [| { Lfs_core.Log_writer.seg = 2; off = 13; next_seg = 5 } |];
    imap_addrs = [| 100; 101; Types.nil_addr |];
    usage_addrs = [| 200 |];
  }

let ckpt_layout =
  (* A layout whose imap/usage sizes match the fixture. *)
  Layout.compute
    { Helpers.test_config with max_inodes = 120 }
    ~disk_blocks:1024

let test_checkpoint_roundtrip () =
  let disk = Helpers.fresh_disk () in
  let fixture =
    {
      ckpt_fixture with
      Checkpoint.imap_addrs = Array.make ckpt_layout.Layout.imap_blocks 33;
      usage_addrs = Array.make ckpt_layout.Layout.usage_blocks 44;
    }
  in
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region:0 fixture;
  (match Checkpoint.read ckpt_layout (Helpers.vdev disk) ~region:0 with
  | Some c -> Alcotest.(check bool) "roundtrip" true (c = fixture)
  | None -> Alcotest.fail "should read back");
  Alcotest.(check bool) "other region invalid" true
    (Checkpoint.read ckpt_layout (Helpers.vdev disk) ~region:1 = None)

let test_checkpoint_multihead_roundtrip () =
  (* Divergent per-head positions must survive the region encoding. *)
  let disk = Helpers.fresh_disk () in
  let fixture =
    {
      ckpt_fixture with
      Checkpoint.heads =
        [|
          { Lfs_core.Log_writer.seg = 2; off = 13; next_seg = 5 };
          { Lfs_core.Log_writer.seg = 9; off = 1; next_seg = 11 };
          { Lfs_core.Log_writer.seg = 4; off = 15; next_seg = Types.nil_addr };
        |];
      imap_addrs = Array.make ckpt_layout.Layout.imap_blocks 33;
      usage_addrs = Array.make ckpt_layout.Layout.usage_blocks 44;
    }
  in
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region:0 fixture;
  match Checkpoint.read ckpt_layout (Helpers.vdev disk) ~region:0 with
  | Some c -> Alcotest.(check bool) "heads roundtrip" true (c = fixture)
  | None -> Alcotest.fail "should read back"

let test_checkpoint_latest_wins () =
  let disk = Helpers.fresh_disk () in
  let mk ts = { ckpt_fixture with Checkpoint.timestamp = ts;
                imap_addrs = Array.make ckpt_layout.Layout.imap_blocks 1;
                usage_addrs = Array.make ckpt_layout.Layout.usage_blocks 2 } in
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region:0 (mk 10.0);
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region:1 (mk 20.0);
  (match Checkpoint.read_latest ckpt_layout (Helpers.vdev disk) with
  | Some (1, c) -> Alcotest.(check (float 0.0)) "newest" 20.0 c.Checkpoint.timestamp
  | Some (r, _) -> Alcotest.failf "wrong region %d" r
  | None -> Alcotest.fail "should find one")

let test_checkpoint_torn_write_invalid () =
  let disk = Helpers.fresh_disk () in
  let fixture =
    {
      ckpt_fixture with
      Checkpoint.imap_addrs = Array.make ckpt_layout.Layout.imap_blocks 1;
      usage_addrs = Array.make ckpt_layout.Layout.usage_blocks 2;
    }
  in
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region:0 fixture;
  (* Corrupt one byte, as a torn multi-block region write would. *)
  let addr = ckpt_layout.Layout.ckpt_a in
  let b = Disk.read_block disk addr in
  Bytes.set b 500 '\137';
  Disk.write_block disk addr b;
  Alcotest.(check bool) "torn region rejected" true
    (Checkpoint.read ckpt_layout (Helpers.vdev disk) ~region:0 = None)

(* ----- Property tests ----- *)

let prop_inode_roundtrip =
  QCheck.Test.make ~count:200 ~name:"inode encode/decode roundtrip"
    QCheck.(
      quad (int_range 1 100000) bool (int_bound 1_000_000_000) (int_bound 65535))
    (fun (ino, is_dir, size, nlink) ->
      let ftype = if is_dir then Types.Directory else Types.Regular in
      let i = Inode.create ~ino ~ftype ~mtime:(float_of_int size) in
      i.Inode.size <- size;
      i.Inode.nlink <- nlink;
      Array.iteri (fun k _ -> i.Inode.direct.(k) <- (ino * k) - 1) i.Inode.direct;
      let b = Bytes.make 4096 '\000' in
      Inode.encode i b ~slot:(ino mod 32);
      match Inode.decode b ~slot:(ino mod 32) with
      | Some i' -> Inode.equal i i'
      | None -> false)

let prop_directory_roundtrip =
  QCheck.Test.make ~count:100 ~name:"directory roundtrip"
    QCheck.(small_list (pair (string_gen_of_size (Gen.int_range 1 30) (Gen.char_range 'a' 'z')) (int_bound 100000)))
    (fun entries ->
      let d = Directory.create ~block_size:4096 in
      List.iter
        (fun (name, ino) ->
          if not (Directory.mem d name) then ignore (Directory.add d name ino))
        entries;
      Directory.entries
        (Directory.of_bytes ~block_size:4096 (Directory.to_bytes d))
      = Directory.entries d)

let prop_summary_roundtrip =
  QCheck.Test.make ~count:100 ~name:"summary roundtrip"
    QCheck.(small_list (triple (int_bound 1000) (int_range (-10) 1000) (int_bound 100)))
    (fun raw ->
      let entries =
        List.filteri (fun i _ -> i < Summary.max_entries ~block_size:1024) raw
        |> List.map (fun (ino, blockno, version) ->
               {
                 Summary.kind = Types.Data;
                 ino;
                 blockno;
                 version;
                 mtime = float_of_int version;
               })
      in
      let s = { summary_fixture with Summary.entries } in
      Summary.decode (Helpers.encode_summary ~block_size:1024 s) = Some s)

(* The header checksum of a summary at byte 0, taken again: what a
   malformed body needs to reach the decoder's structural checks. *)
let reseal b =
  let sum = Lfs_util.Checksum.adler32 ~pos:8 ~len:(Bytes.length b - 8) b in
  Bytes.set_int32_le b 0 (Int32.of_int sum)

(* The decoder is total: over a summary with inline records and inodes,
   any byte flips and any truncation, with the checksum taken again
   before or after the cut or not at all, give a value, [None] or
   [Types.Corrupt], never another exception. *)
let prop_summary_decoder_total =
  QCheck.Test.make ~count:1000 ~name:"summary decoder is total"
    QCheck.(
      triple
        (small_list (pair (int_bound 1023) (int_bound 255)))
        (option (int_bound 1024))
        (int_bound 2))
    (fun (flips, cut, resealed) ->
      let b = Helpers.encode_summary ~block_size:1024 inline_fixture in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) flips;
      if resealed = 1 then reseal b;
      let b = match cut with Some n -> Bytes.sub b 0 n | None -> b in
      if resealed = 2 && Bytes.length b >= 8 then reseal b;
      match Summary.decode b with
      | Some s -> flips <> [] || cut <> None || s = inline_fixture
      | None -> flips <> [] || cut <> None
      | exception Types.Corrupt _ -> true)

(* The dir-log decoder is total too: over a block of every record kind,
   byte flips (most land in the records' first 96 bytes) and any
   truncation give the records back, other records, or
   [Types.Corrupt], never another exception. *)
let dir_log_fixture =
  Dir_log.
    [
      Add { dir = 1; name = "alpha"; ino = 7; nlink = 1; fresh = true };
      Remove { dir = 1; name = "beta"; ino = 8; nlink = 0 };
      Rename { odir = 1; oname = "gamma"; ndir = 9; nname = "delta"; ino = 10 };
    ]

let prop_dir_log_decoder_total =
  QCheck.Test.make ~count:1000 ~name:"dir-log decoder is total"
    QCheck.(
      pair
        (small_list (pair (int_bound 95) (int_bound 255)))
        (option (int_bound 1024)))
    (fun (flips, cut) ->
      let b = Bytes.create 1024 in
      Dir_log.encode_block_into ~block_size:1024 dir_log_fixture b ~pos:0;
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) flips;
      let b = match cut with Some n -> Bytes.sub b 0 n | None -> b in
      match Dir_log.decode_block b with
      | records -> flips <> [] || cut <> None || records = dir_log_fixture
      | exception Types.Corrupt _ -> true)

let suite =
  ( "structures",
    [
      Alcotest.test_case "layout segments fit" `Quick test_layout_segments_fit;
      Alcotest.test_case "layout seg_of_block" `Quick test_layout_seg_of_block;
      Alcotest.test_case "layout rejects tiny disk" `Quick test_layout_rejects_tiny_disk;
      Alcotest.test_case "layout segment minimum" `Quick test_layout_segment_minimum;
      Alcotest.test_case "layout max file" `Quick test_layout_max_file;
      Alcotest.test_case "superblock roundtrip" `Quick test_superblock_roundtrip;
      Alcotest.test_case "superblock corruption" `Quick test_superblock_detects_corruption;
      Alcotest.test_case "superblock unformatted" `Quick test_superblock_rejects_unformatted;
      Alcotest.test_case "inode roundtrip" `Quick test_inode_roundtrip;
      Alcotest.test_case "inode empty slot" `Quick test_inode_empty_slot;
      Alcotest.test_case "inode clear slot" `Quick test_inode_clear_slot;
      Alcotest.test_case "inode slots independent" `Quick test_inode_slots_independent;
      Alcotest.test_case "inode bad magic" `Quick test_inode_bad_magic;
      Alcotest.test_case "inode nblocks" `Quick test_inode_nblocks;
      Alcotest.test_case "summary roundtrip" `Quick test_summary_roundtrip;
      Alcotest.test_case "summary inline roundtrip" `Quick test_summary_inline_roundtrip;
      Alcotest.test_case "summary inline capacity" `Quick test_summary_inline_capacity;
      Alcotest.test_case "summary corruption" `Quick test_summary_detects_corruption;
      Alcotest.test_case "summary garbage" `Quick test_summary_garbage_rejected;
      Alcotest.test_case "summary capacity" `Quick test_summary_capacity_enforced;
      Alcotest.test_case "summary entry addr" `Quick test_summary_entry_addr;
      Alcotest.test_case "summary payload checksum" `Quick test_summary_payload_checksum;
      Alcotest.test_case "imap allocate/free" `Quick test_imap_allocate_free;
      Alcotest.test_case "imap version bumps" `Quick test_imap_version_bumps;
      Alcotest.test_case "table blocks read in runs" `Quick test_table_read_runs;
      Alcotest.test_case "imap block roundtrip" `Quick test_imap_block_roundtrip;
      Alcotest.test_case "imap full" `Quick test_imap_full;
      Alcotest.test_case "imap dirty tracking" `Quick test_imap_dirty_tracking;
      Alcotest.test_case "imap count allocated" `Quick test_imap_count_allocated;
      Alcotest.test_case "usage accounting" `Quick test_usage_accounting;
      Alcotest.test_case "usage utilization" `Quick test_usage_utilization;
      Alcotest.test_case "usage clean lists" `Quick test_usage_clean_lists;
      Alcotest.test_case "usage block roundtrip" `Quick test_usage_block_roundtrip;
      Alcotest.test_case "usage kill underflow" `Quick test_usage_kill_underflow_detected;
      Alcotest.test_case "usage histogram excludes" `Quick test_usage_histogram_excludes;
      Alcotest.test_case "dir roundtrip" `Quick test_dir_roundtrip;
      Alcotest.test_case "dir ops" `Quick test_dir_ops;
      Alcotest.test_case "dir duplicate" `Quick test_dir_duplicate_rejected;
      Alcotest.test_case "dir remove missing" `Quick test_dir_remove_missing_rejected;
      Alcotest.test_case "dir bad names" `Quick test_dir_bad_names_rejected;
      Alcotest.test_case "dir replace" `Quick test_dir_replace;
      Alcotest.test_case "dir order" `Quick test_dir_order_preserved;
      Alcotest.test_case "dir corrupt" `Quick test_dir_corrupt_rejected;
      Alcotest.test_case "dir duplicate image first wins" `Quick
        test_dir_duplicate_image_first_wins;
      Alcotest.test_case "dir truncated image" `Quick test_dir_truncated_image_rejected;
      Alcotest.test_case "drop_dirty trims tail" `Quick test_drop_dirty_trims_tail;
      Alcotest.test_case "dirlog roundtrip" `Quick test_dirlog_roundtrip;
      Alcotest.test_case "dirlog splits blocks" `Quick test_dirlog_splits_blocks;
      Alcotest.test_case "dirlog empty" `Quick test_dirlog_empty;
      Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint multi-head roundtrip" `Quick
        test_checkpoint_multihead_roundtrip;
      Alcotest.test_case "checkpoint latest wins" `Quick test_checkpoint_latest_wins;
      Alcotest.test_case "checkpoint torn write" `Quick test_checkpoint_torn_write_invalid;
      QCheck_alcotest.to_alcotest prop_inode_roundtrip;
      QCheck_alcotest.to_alcotest prop_directory_roundtrip;
      QCheck_alcotest.to_alcotest prop_directory_model;
      QCheck_alcotest.to_alcotest prop_summary_roundtrip;
      QCheck_alcotest.to_alcotest prop_summary_decoder_total;
      QCheck_alcotest.to_alcotest prop_dir_log_decoder_total;
    ] )
