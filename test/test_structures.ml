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
    entries =
      [
        { Summary.kind = Types.Data; ino = 4; blockno = 2; version = 1; mtime = 50.0 };
        { Summary.kind = Types.Inode_block; ino = 0; blockno = 0; version = 0; mtime = 60.0 };
        { Summary.kind = Types.Indirect; ino = 4; blockno = -2; version = 1; mtime = 55.0 };
      ];
  }

let test_summary_roundtrip () =
  let b = Summary.encode ~block_size:1024 summary_fixture in
  match Summary.decode b with
  | None -> Alcotest.fail "should decode"
  | Some s -> Alcotest.(check bool) "equal" true (s = summary_fixture)

let test_summary_detects_corruption () =
  let b = Summary.encode ~block_size:1024 summary_fixture in
  Bytes.set b 100 'X';
  Alcotest.(check bool) "corrupt rejected" true (Summary.decode b = None)

let test_summary_garbage_rejected () =
  Alcotest.(check bool) "zeros" true (Summary.decode (Bytes.make 1024 '\000') = None);
  Alcotest.(check bool) "noise" true
    (Summary.decode (Helpers.bytes_of_pattern ~seed:1 1024) = None)

let test_summary_capacity_enforced () =
  let too_many =
    List.init (Summary.max_entries ~block_size:1024 + 1) (fun i ->
        { Summary.kind = Types.Data; ino = i; blockno = i; version = 0; mtime = 0.0 })
  in
  match Summary.encode ~block_size:1024 { summary_fixture with entries = too_many } with
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

let test_imap_version_bumps () =
  let m = Inode_map.create layout in
  let i = Inode_map.allocate m in
  Inode_map.set_location m i (Types.Iaddr.make ~block:5 ~slot:3);
  let v0 = Inode_map.version m i in
  Inode_map.bump_version m i;
  Alcotest.(check int) "bump" (v0 + 1) (Inode_map.version m i);
  Inode_map.free m i;
  Alcotest.(check int) "free bumps too" (v0 + 2) (Inode_map.version m i)

let test_imap_block_roundtrip () =
  let m = Inode_map.create layout in
  for i = 1 to 40 do
    let ino = Inode_map.allocate m in
    Inode_map.set_location m ino (Types.Iaddr.make ~block:(200 + i) ~slot:(i mod 8));
    Inode_map.set_atime m ino (float_of_int i)
  done;
  (* Write the dirty blocks out the way a checkpoint does. *)
  let disk = Hashtbl.create 8 in
  List.iter
    (fun i ->
      Hashtbl.replace disk (1000 + i) (Inode_map.encode_block m i);
      Inode_map.set_block_addr m i (1000 + i);
      Inode_map.clear_block_dirty m i)
    (Inode_map.dirty_blocks m);
  Alcotest.(check bool) "no dirty blocks left" true (Inode_map.dirty_blocks m = []);
  let addrs = Array.init (Inode_map.nblocks m) (Inode_map.block_addr m) in
  let m' = Inode_map.load layout ~read:(Hashtbl.find disk) ~block_addrs:addrs in
  for ino = 0 to Inode_map.max_inodes m - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "ino %d location" ino)
      true
      (Types.Iaddr.equal (Inode_map.location m ino) (Inode_map.location m' ino));
    Alcotest.(check int) "version" (Inode_map.version m ino) (Inode_map.version m' ino)
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
      Hashtbl.replace store (500 + i) (Seg_usage.encode_block u i);
      Seg_usage.set_block_addr u i (500 + i);
      Seg_usage.clear_block_dirty u i)
    (Seg_usage.dirty_blocks u);
  let addrs = Array.init (Seg_usage.nblocks u) (Seg_usage.block_addr u) in
  let u' = Seg_usage.load layout ~read:(Hashtbl.find store) ~block_addrs:addrs in
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

let test_dir_roundtrip () =
  let d =
    Directory.add (Directory.add Directory.empty "alpha" 10) "beta" 20
  in
  let d' = Directory.of_bytes (Directory.to_bytes d) in
  Alcotest.(check bool) "entries preserved" true
    (Directory.entries d = Directory.entries d')

let test_dir_ops () =
  let d = Directory.add Directory.empty "x" 5 in
  Alcotest.(check bool) "mem" true (Directory.mem d "x");
  Alcotest.(check (option int)) "find" (Some 5) (Directory.find d "x");
  Alcotest.(check (option int)) "missing" None (Directory.find d "y");
  let d = Directory.remove d "x" in
  Alcotest.(check bool) "removed" true (Directory.is_empty d)

let test_dir_duplicate_rejected () =
  let d = Directory.add Directory.empty "a" 1 in
  match Directory.add d "a" 2 with
  | _ -> Alcotest.fail "duplicate should be rejected"
  | exception Types.Fs_error _ -> ()

let test_dir_remove_missing_rejected () =
  match Directory.remove Directory.empty "ghost" with
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
  let d = Directory.add Directory.empty "f" 1 in
  let d = Directory.replace d "f" 2 in
  Alcotest.(check (option int)) "replaced" (Some 2) (Directory.find d "f");
  let d = Directory.replace d "g" 3 in
  Alcotest.(check (option int)) "added" (Some 3) (Directory.find d "g")

let test_dir_order_preserved () =
  let names = [ "c"; "a"; "b" ] in
  let d =
    List.fold_left (fun d (i, n) -> Directory.add d n i)
      Directory.empty
      (List.mapi (fun i n -> (i, n)) names)
  in
  Alcotest.(check (list string)) "insertion order" names
    (List.map fst (Directory.entries d))

let test_dir_corrupt_rejected () =
  match Directory.of_bytes (Bytes.make 4 '\255') with
  | _ -> Alcotest.fail "should reject"
  | exception Types.Corrupt _ -> ()

(* ----- Directory operation log ----- *)

let dirlog_records =
  [
    Dir_log.Add { dir = 1; name = "new"; ino = 7; nlink = 1; fresh = true };
    Dir_log.Remove { dir = 1; name = "old"; ino = 8; nlink = 0 };
    Dir_log.Rename { odir = 1; oname = "a"; ndir = 2; nname = "b"; ino = 9 };
  ]

let test_dirlog_roundtrip () =
  match Dir_log.encode_blocks ~block_size:1024 dirlog_records with
  | [ b ] ->
      Alcotest.(check bool) "records preserved" true
        (Dir_log.decode_block b = dirlog_records)
  | blocks -> Alcotest.failf "expected 1 block, got %d" (List.length blocks)

let test_dirlog_splits_blocks () =
  let many =
    List.init 100 (fun i ->
        Dir_log.Add { dir = 1; name = Printf.sprintf "file-%04d" i; ino = i; nlink = 1; fresh = true })
  in
  let blocks = Dir_log.encode_blocks ~block_size:256 many in
  Alcotest.(check bool) "multiple blocks" true (List.length blocks > 1);
  let decoded = List.concat_map Dir_log.decode_block blocks in
  Alcotest.(check bool) "order preserved" true (decoded = many)

let test_dirlog_empty () =
  Alcotest.(check int) "no blocks for no records" 0
    (List.length (Dir_log.encode_blocks ~block_size:1024 []))

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
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~region:0 fixture;
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
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~region:0 fixture;
  match Checkpoint.read ckpt_layout (Helpers.vdev disk) ~region:0 with
  | Some c -> Alcotest.(check bool) "heads roundtrip" true (c = fixture)
  | None -> Alcotest.fail "should read back"

let test_checkpoint_latest_wins () =
  let disk = Helpers.fresh_disk () in
  let mk ts = { ckpt_fixture with Checkpoint.timestamp = ts;
                imap_addrs = Array.make ckpt_layout.Layout.imap_blocks 1;
                usage_addrs = Array.make ckpt_layout.Layout.usage_blocks 2 } in
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~region:0 (mk 10.0);
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~region:1 (mk 20.0);
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
  Checkpoint.write ckpt_layout (Helpers.vdev disk) ~region:0 fixture;
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
      let d =
        List.fold_left
          (fun d (name, ino) ->
            if Directory.mem d name then d else Directory.add d name ino)
          Directory.empty entries
      in
      Directory.entries (Directory.of_bytes (Directory.to_bytes d))
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
      Summary.decode (Summary.encode ~block_size:1024 s) = Some s)

let suite =
  ( "structures",
    [
      Alcotest.test_case "layout segments fit" `Quick test_layout_segments_fit;
      Alcotest.test_case "layout seg_of_block" `Quick test_layout_seg_of_block;
      Alcotest.test_case "layout rejects tiny disk" `Quick test_layout_rejects_tiny_disk;
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
      Alcotest.test_case "summary corruption" `Quick test_summary_detects_corruption;
      Alcotest.test_case "summary garbage" `Quick test_summary_garbage_rejected;
      Alcotest.test_case "summary capacity" `Quick test_summary_capacity_enforced;
      Alcotest.test_case "summary entry addr" `Quick test_summary_entry_addr;
      Alcotest.test_case "summary payload checksum" `Quick test_summary_payload_checksum;
      Alcotest.test_case "imap allocate/free" `Quick test_imap_allocate_free;
      Alcotest.test_case "imap version bumps" `Quick test_imap_version_bumps;
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
      QCheck_alcotest.to_alcotest prop_summary_roundtrip;
    ] )
