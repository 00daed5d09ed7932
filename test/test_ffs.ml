(* Tests for the FFS baseline: same functional behaviour as LFS (so
   benchmarks compare like with like) plus its characteristic IO
   patterns (synchronous metadata, in-place updates). *)

module Ffs = Lfs_ffs.Ffs
module Bitmap = Lfs_ffs.Bitmap
module Disk = Lfs_disk.Disk
module Io_stats = Lfs_disk.Io_stats
module Types = Lfs_core.Types

let config =
  {
    Ffs.default_config with
    Ffs.cg_blocks = 256;
    inodes_per_cg = 128;
    write_buffer_blocks = 16;
    cache_blocks = 64;
  }

let fresh () =
  let disk = Disk.create (Lfs_disk.Geometry.instant ~blocks:1024) in
  Ffs.format (Helpers.vdev disk) config;
  (disk, Ffs.mount (Helpers.vdev disk))

(* ----- Bitmap ----- *)

let test_bitmap_basic () =
  let b = Bitmap.create ~bits:100 in
  Alcotest.(check bool) "initially clear" false (Bitmap.get b 50);
  Bitmap.set b 50;
  Alcotest.(check bool) "set" true (Bitmap.get b 50);
  Bitmap.clear b 50;
  Alcotest.(check bool) "cleared" false (Bitmap.get b 50);
  Alcotest.(check int) "popcount" 0 (Bitmap.popcount b)

let test_bitmap_find_free () =
  let b = Bitmap.create ~bits:10 in
  for i = 0 to 4 do
    Bitmap.set b i
  done;
  Alcotest.(check (option int)) "first free" (Some 5) (Bitmap.find_free_from b 0);
  Alcotest.(check (option int)) "from hint" (Some 8) (Bitmap.find_free_from b 8);
  Bitmap.set b 8;
  Bitmap.set b 9;
  Alcotest.(check (option int)) "wraps" (Some 5) (Bitmap.find_free_from b 8);
  Bitmap.clear b 8;
  Bitmap.clear b 9;
  for i = 5 to 9 do
    Bitmap.set b i
  done;
  Alcotest.(check (option int)) "full" None (Bitmap.find_free_from b 0)

let test_bitmap_roundtrip () =
  let b = Bitmap.create ~bits:64 in
  List.iter (Bitmap.set b) [ 0; 7; 8; 63 ];
  let b' = Bitmap.of_bytes (Bitmap.to_bytes b ~block_size:512) ~bits:64 in
  for i = 0 to 63 do
    Alcotest.(check bool) (Printf.sprintf "bit %d" i) (Bitmap.get b i) (Bitmap.get b' i)
  done

(* ----- Functional behaviour ----- *)

let test_write_read () =
  let _, fs = fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "f" in
  let data = Helpers.bytes_of_pattern ~seed:3 30_000 in
  Ffs.write fs ino ~off:0 data;
  Helpers.check_bytes "read back" data (Ffs.read fs ino ~off:0 ~len:30_000)

let test_directories () =
  let _, fs = fresh () in
  let d = Ffs.mkdir fs ~dir:Ffs.root "sub" in
  let f = Ffs.create fs ~dir:d "inner" in
  Alcotest.(check (option int)) "resolve" (Some f) (Ffs.resolve fs "/sub/inner");
  Alcotest.(check (list string)) "listing" [ "inner" ]
    (List.map fst (Ffs.readdir fs d))

let test_unlink_frees_space () =
  let _, fs = fresh () in
  let free0 = Ffs.free_blocks fs in
  let ino = Ffs.create fs ~dir:Ffs.root "f" in
  Ffs.write fs ino ~off:0 (Bytes.make 40_000 'x');
  Ffs.sync fs;
  Alcotest.(check bool) "space consumed" true (Ffs.free_blocks fs < free0);
  Ffs.unlink fs ~dir:Ffs.root "f";
  Alcotest.(check bool) "space mostly back" true (Ffs.free_blocks fs >= free0 - 2)

let test_persistence () =
  let disk, fs = fresh () in
  let data = Helpers.bytes_of_pattern ~seed:4 20_000 in
  ignore (Ffs.mkdir_path fs "/d");
  Ffs.write_path fs "/d/file" data;
  Ffs.sync fs;
  let fs2 = Ffs.mount (Helpers.vdev disk) in
  Helpers.check_bytes "after remount" data (Option.get (Ffs.read_path fs2 "/d/file"))

(* A directory of 2,000 entries spans several blocks; unlinking every
   entry that reaches into its last block shrinks it across the boundary
   and frees that block, and a remount reads the shrunk image back. *)
let test_multiblock_dir_shrink () =
  let disk = Disk.create (Lfs_disk.Geometry.instant ~blocks:8192) in
  let config = { config with inodes_per_cg = 1024 } in
  Ffs.format (Helpers.vdev disk) config;
  let fs = Ffs.mount (Helpers.vdev disk) in
  let inos =
    List.init 2000 (fun i ->
        let name = Printf.sprintf "f%04d" i in
        (name, Ffs.create fs ~dir:Ffs.root name))
  in
  let bs = config.Ffs.block_size in
  let victims, lo = Helpers.last_block_entries ~block_size:bs (Ffs.readdir fs Ffs.root) in
  Alcotest.(check bool) "several blocks" true (lo >= 4 * bs);
  Ffs.sync fs;
  let free0 = Ffs.free_blocks fs in
  List.iter (fun n -> Ffs.unlink fs ~dir:Ffs.root n) victims;
  Alcotest.(check bool) "shrank below the last block" true
    (Ffs.file_size fs Ffs.root <= lo);
  Ffs.sync fs;
  Alcotest.(check int) "last block freed" (free0 + 1) (Ffs.free_blocks fs);
  let fs2 = Ffs.mount (Helpers.vdev disk) in
  List.iter
    (fun (name, ino) ->
      let want = if List.mem name victims then None else Some ino in
      Alcotest.(check (option int)) name want (Ffs.lookup fs2 ~dir:Ffs.root name))
    inos;
  Alcotest.(check int) "size survives" (Ffs.file_size fs Ffs.root)
    (Ffs.file_size fs2 Ffs.root);
  Ffs.fsck_scan fs2

let test_truncate () =
  let _, fs = fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "t" in
  Ffs.write fs ino ~off:0 (Bytes.make 20_000 't');
  Ffs.truncate fs ino ~len:1000;
  Alcotest.(check int) "size" 1000 (Ffs.file_size fs ino);
  Alcotest.(check int) "read truncated" 1000
    (Bytes.length (Ffs.read fs ino ~off:0 ~len:20_000))

(* Shrinking to mid-block must not leave the cut bytes in the kept
   block: a later write past the new end would otherwise expose them
   instead of the zeros of the gap (the semantics of [Fs.truncate]). *)
let test_truncate_zeroes_cut_tail () =
  let disk, fs = fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "z" in
  Ffs.write fs ino ~off:0 (Bytes.make 300 'x');
  Ffs.truncate fs ino ~len:100;
  Ffs.write fs ino ~off:200 (Bytes.make 10 'y');
  let expected =
    Bytes.concat Bytes.empty
      [ Bytes.make 100 'x'; Bytes.make 100 '\000'; Bytes.make 10 'y' ]
  in
  Helpers.check_bytes "gap reads as zeros" expected
    (Ffs.read fs ino ~off:0 ~len:1000);
  Ffs.sync fs;
  let fs = Ffs.mount (Helpers.vdev disk) in
  Helpers.check_bytes "and still after a remount" expected
    (Ffs.read fs ino ~off:0 ~len:1000)

let test_truncate_extends () =
  let _, fs = fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "e" in
  Ffs.write fs ino ~off:0 (Bytes.make 210 'x');
  Ffs.truncate fs ino ~len:5000;
  Alcotest.(check int) "size" 5000 (Ffs.file_size fs ino);
  Helpers.check_bytes "hole reads as zeros" (Bytes.make 4790 '\000')
    (Ffs.read fs ino ~off:210 ~len:5000)

let test_negative_offset_rejected () =
  let _, fs = fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "n" in
  Ffs.write fs ino ~off:0 (Bytes.make 10 'x');
  let rejects what f =
    match f () with
    | exception Types.Fs_error _ -> ()
    | _ -> Alcotest.failf "%s at a negative offset accepted" what
  in
  rejects "write" (fun () -> Ffs.write fs ino ~off:(-1) (Bytes.make 10 'y'));
  rejects "read" (fun () -> ignore (Ffs.read fs ino ~off:(-1) ~len:5));
  Helpers.check_bytes "contents untouched" (Bytes.make 10 'x')
    (Ffs.read fs ino ~off:0 ~len:10)

let test_inode_fixed_location () =
  (* FFS inodes persist at fixed locations: deleting and re-creating
     reuses the inode number from the same cylinder group. *)
  let _, fs = fresh () in
  let a = Ffs.create fs ~dir:Ffs.root "a" in
  Ffs.unlink fs ~dir:Ffs.root "a";
  let b = Ffs.create fs ~dir:Ffs.root "b" in
  Alcotest.(check int) "inode number reused" a b

let test_disk_full () =
  let _, fs = fresh () in
  (match
     for i = 0 to 50 do
       Ffs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 200_000 'F')
     done
   with
  | () -> Alcotest.fail "should fill up"
  | exception Types.Fs_error _ -> ())

let test_out_of_inodes () =
  let _, fs = fresh () in
  match
    for i = 0 to 2000 do
      ignore (Ffs.create fs ~dir:Ffs.root (Printf.sprintf "f%d" i))
    done
  with
  | () -> Alcotest.fail "should run out of inodes"
  | exception Types.Fs_error _ -> ()

(* ----- IO-pattern characteristics ----- *)

let wren_fresh () =
  let disk = Disk.create (Lfs_disk.Geometry.wren_iv ~blocks:4096) in
  Ffs.format (Helpers.vdev disk) Ffs.{ config with cg_blocks = 512; inodes_per_cg = 256 };
  (disk, Ffs.mount (Helpers.vdev disk))

let test_create_is_synchronous () =
  let disk, fs = wren_fresh () in
  let before = Io_stats.copy (Disk.stats disk) in
  ignore (Ffs.create fs ~dir:Ffs.root "sync");
  let d = Io_stats.diff (Disk.stats disk) before in
  (* Paper, Section 2.3: at least the inode (twice), the directory data
     and the directory inode are written before create returns. *)
  Alcotest.(check bool) "several synchronous writes" true (d.Io_stats.writes >= 4)

let test_data_is_buffered () =
  let disk, fs = wren_fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "buf" in
  let before = Io_stats.copy (Disk.stats disk) in
  Ffs.write fs ino ~off:0 (Bytes.make 4096 'b');
  let d = Io_stats.diff (Disk.stats disk) before in
  Alcotest.(check int) "no data write yet" 0 d.Io_stats.writes;
  Ffs.sync fs;
  let d = Io_stats.diff (Disk.stats disk) before in
  Alcotest.(check bool) "written at sync" true (d.Io_stats.writes > 0)

let test_random_writes_in_place () =
  let disk, fs = wren_fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "rw" in
  Ffs.write fs ino ~off:0 (Bytes.make (64 * 4096) 'i');
  Ffs.sync fs;
  let free_before = Ffs.free_blocks fs in
  (* Overwrite every block; in-place updates allocate nothing new. *)
  for i = 0 to 63 do
    Ffs.write fs ino ~off:(i * 4096) (Bytes.make 4096 'j')
  done;
  Ffs.sync fs;
  Alcotest.(check int) "no new allocation" free_before (Ffs.free_blocks fs);
  ignore disk

let test_sequential_allocation_contiguous () =
  let disk, fs = wren_fresh () in
  let ino = Ffs.create fs ~dir:Ffs.root "seq" in
  Ffs.write fs ino ~off:0 (Bytes.make (32 * 4096) 's');
  Ffs.sync fs;
  Ffs.drop_caches fs;
  (* Sequential read of a sequentially written file: few seeks. *)
  let before = Io_stats.copy (Disk.stats disk) in
  ignore (Ffs.read fs ino ~off:0 ~len:(32 * 4096));
  let d = Io_stats.diff (Disk.stats disk) before in
  Alcotest.(check bool) "mostly contiguous" true (d.Io_stats.seeks <= 4)

let test_clustering_coalesces_ios () =
  let mk cluster_writes =
    let disk = Disk.create (Lfs_disk.Geometry.wren_iv ~blocks:4096) in
    Ffs.format (Helpers.vdev disk)
      { config with Ffs.cg_blocks = 512; inodes_per_cg = 256; cluster_writes };
    (disk, Ffs.mount (Helpers.vdev disk))
  in
  let run (disk, fs) =
    let ino = Ffs.create fs ~dir:Ffs.root "big" in
    let before = Io_stats.copy (Disk.stats disk) in
    Ffs.write fs ino ~off:0 (Bytes.make (64 * 4096) 'c');
    Ffs.sync fs;
    let d = Io_stats.diff (Disk.stats disk) before in
    (d.Io_stats.writes, d.Io_stats.busy_s)
  in
  let ios_plain, time_plain = run (mk false) in
  let ios_clustered, time_clustered = run (mk true) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer IOs (%d vs %d)" ios_clustered ios_plain)
    true
    (ios_clustered < ios_plain / 4);
  Alcotest.(check bool) "faster" true (time_clustered < time_plain);
  (* And the data is still correct. *)
  let disk, fs = mk true in
  let ino = Ffs.create fs ~dir:Ffs.root "check" in
  let data = Helpers.bytes_of_pattern ~seed:21 (40 * 4096) in
  Ffs.write fs ino ~off:0 data;
  Ffs.sync fs;
  Ffs.drop_caches fs;
  Helpers.check_bytes "clustered contents" data (Ffs.read fs ino ~off:0 ~len:(40 * 4096));
  ignore disk

let suite =
  ( "ffs",
    [
      Alcotest.test_case "bitmap basic" `Quick test_bitmap_basic;
      Alcotest.test_case "bitmap find free" `Quick test_bitmap_find_free;
      Alcotest.test_case "bitmap roundtrip" `Quick test_bitmap_roundtrip;
      Alcotest.test_case "write/read" `Quick test_write_read;
      Alcotest.test_case "directories" `Quick test_directories;
      Alcotest.test_case "unlink frees" `Quick test_unlink_frees_space;
      Alcotest.test_case "persistence" `Quick test_persistence;
      Alcotest.test_case "multi-block dir shrink" `Quick test_multiblock_dir_shrink;
      Alcotest.test_case "truncate" `Quick test_truncate;
      Alcotest.test_case "truncate zeroes cut tail" `Quick test_truncate_zeroes_cut_tail;
      Alcotest.test_case "truncate extends" `Quick test_truncate_extends;
      Alcotest.test_case "negative offset rejected" `Quick test_negative_offset_rejected;
      Alcotest.test_case "fixed inode locations" `Quick test_inode_fixed_location;
      Alcotest.test_case "disk full" `Quick test_disk_full;
      Alcotest.test_case "out of inodes" `Quick test_out_of_inodes;
      Alcotest.test_case "create synchronous" `Quick test_create_is_synchronous;
      Alcotest.test_case "data buffered" `Quick test_data_is_buffered;
      Alcotest.test_case "random writes in place" `Quick test_random_writes_in_place;
      Alcotest.test_case "sequential contiguous" `Quick test_sequential_allocation_contiguous;
      Alcotest.test_case "clustering coalesces" `Quick test_clustering_coalesces_ios;
    ] )
