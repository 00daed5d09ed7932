(* Integration tests for the LFS public API: file IO, namespace
   operations, persistence across remounts, and fsck invariants. *)

module Fs = Lfs_core.Fs
module Types = Lfs_core.Types
module Disk = Lfs_disk.Disk
module Prng = Lfs_util.Prng

let test_format_mount_empty () =
  let _, fs = Helpers.fresh_fs () in
  Alcotest.(check (list (pair string int))) "empty root" [] (Fs.readdir fs Fs.root);
  Helpers.fsck_clean fs

let test_write_read_small () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "hello" in
  let data = Bytes.of_string "hello, log-structured world" in
  Fs.write fs ino ~off:0 data;
  Helpers.check_bytes "read back" data (Fs.read fs ino ~off:0 ~len:(Bytes.length data));
  Alcotest.(check int) "size" (Bytes.length data) (Fs.file_size fs ino)

let test_write_read_multiblock () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "big" in
  let data = Helpers.bytes_of_pattern ~seed:1 50_000 in
  Fs.write fs ino ~off:0 data;
  Helpers.check_bytes "read back" data (Fs.read fs ino ~off:0 ~len:50_000)

let test_write_at_offset () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "f" in
  Fs.write fs ino ~off:0 (Bytes.of_string "aaaa");
  Fs.write fs ino ~off:2 (Bytes.of_string "BB");
  Helpers.check_bytes "overlapped" (Bytes.of_string "aaBB")
    (Fs.read fs ino ~off:0 ~len:4)

let test_sparse_hole_reads_zero () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "sparse" in
  Fs.write fs ino ~off:20_000 (Bytes.of_string "end");
  Alcotest.(check int) "size covers hole" 20_003 (Fs.file_size fs ino);
  let hole = Fs.read fs ino ~off:5_000 ~len:100 in
  Alcotest.(check bool) "hole is zeros" true
    (Bytes.for_all (fun c -> c = '\000') hole)

let test_read_past_eof_truncated () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "short" in
  Fs.write fs ino ~off:0 (Bytes.of_string "xyz");
  Alcotest.(check int) "short read" 3 (Bytes.length (Fs.read fs ino ~off:0 ~len:100));
  Alcotest.(check int) "read at eof" 0 (Bytes.length (Fs.read fs ino ~off:3 ~len:10));
  Alcotest.(check int) "read past eof" 0 (Bytes.length (Fs.read fs ino ~off:50 ~len:10))

let test_empty_write_noop () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "empty" in
  Fs.write fs ino ~off:0 (Bytes.create 0);
  Alcotest.(check int) "still empty" 0 (Fs.file_size fs ino)

let test_truncate_shrinks () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "t" in
  Fs.write fs ino ~off:0 (Helpers.bytes_of_pattern ~seed:2 10_000);
  Fs.truncate fs ino ~len:100;
  Alcotest.(check int) "new size" 100 (Fs.file_size fs ino);
  Alcotest.(check int) "reads stop at size" 100
    (Bytes.length (Fs.read fs ino ~off:0 ~len:10_000));
  Helpers.fsck_clean fs

let test_truncate_then_extend_zeros () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "tz" in
  Fs.write fs ino ~off:0 (Bytes.make 5000 'x');
  Fs.truncate fs ino ~len:2500;
  Fs.write fs ino ~off:4000 (Bytes.of_string "!");
  let gap = Fs.read fs ino ~off:2500 ~len:1500 in
  Alcotest.(check bool) "gap re-reads as zeros" true
    (Bytes.for_all (fun c -> c = '\000') gap)

let test_truncate_zero_bumps_version () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "v" in
  Fs.write fs ino ~off:0 (Bytes.of_string "data");
  let v0 = (Fs.stat fs ino).Fs.st_version in
  Fs.truncate fs ino ~len:0;
  Alcotest.(check int) "version bumped" (v0 + 1) (Fs.stat fs ino).Fs.st_version

let test_stat_fields () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "s" in
  Fs.write fs ino ~off:0 (Bytes.of_string "abc");
  let st = Fs.stat fs ino in
  Alcotest.(check int) "ino" ino st.Fs.st_ino;
  Alcotest.(check int) "size" 3 st.Fs.st_size;
  Alcotest.(check int) "nlink" 1 st.Fs.st_nlink;
  Alcotest.(check bool) "regular" true (st.Fs.st_ftype = Types.Regular)

(* ----- Namespace ----- *)

let test_mkdir_and_nesting () =
  let _, fs = Helpers.fresh_fs () in
  let a = Fs.mkdir fs ~dir:Fs.root "a" in
  let b = Fs.mkdir fs ~dir:a "b" in
  let f = Fs.create fs ~dir:b "f" in
  Alcotest.(check (option int)) "resolve nested" (Some f) (Fs.resolve fs "/a/b/f");
  Alcotest.(check (option int)) "resolve dir" (Some b) (Fs.resolve fs "/a/b");
  Alcotest.(check (option int)) "missing" None (Fs.resolve fs "/a/zzz")

let test_duplicate_create_rejected () =
  let _, fs = Helpers.fresh_fs () in
  ignore (Fs.create fs ~dir:Fs.root "dup");
  (match Fs.create fs ~dir:Fs.root "dup" with
  | _ -> Alcotest.fail "duplicate should fail"
  | exception Types.Fs_error _ -> ());
  (match Fs.mkdir fs ~dir:Fs.root "dup" with
  | _ -> Alcotest.fail "mkdir over file should fail"
  | exception Types.Fs_error _ -> ())

let test_unlink_removes () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "gone" in
  Fs.write fs ino ~off:0 (Bytes.make 8000 'g');
  Fs.unlink fs ~dir:Fs.root "gone";
  Alcotest.(check (option int)) "no longer resolves" None (Fs.resolve fs "/gone");
  (match Fs.stat fs ino with
  | _ -> Alcotest.fail "stat of deleted inode should fail"
  | exception Types.Fs_error _ -> ());
  Helpers.fsck_clean fs

let test_unlink_missing_rejected () =
  let _, fs = Helpers.fresh_fs () in
  match Fs.unlink fs ~dir:Fs.root "ghost" with
  | () -> Alcotest.fail "should fail"
  | exception Types.Fs_error _ -> ()

let test_unlink_directory_rejected () =
  let _, fs = Helpers.fresh_fs () in
  ignore (Fs.mkdir fs ~dir:Fs.root "d");
  match Fs.unlink fs ~dir:Fs.root "d" with
  | () -> Alcotest.fail "unlink of dir should fail"
  | exception Types.Fs_error _ -> ()

let test_rmdir () =
  let _, fs = Helpers.fresh_fs () in
  let d = Fs.mkdir fs ~dir:Fs.root "d" in
  ignore (Fs.create fs ~dir:d "inner");
  (match Fs.rmdir fs ~dir:Fs.root "d" with
  | () -> Alcotest.fail "non-empty rmdir should fail"
  | exception Types.Fs_error _ -> ());
  Fs.unlink fs ~dir:d "inner";
  Fs.rmdir fs ~dir:Fs.root "d";
  Alcotest.(check (option int)) "gone" None (Fs.resolve fs "/d");
  Helpers.fsck_clean fs

let test_hard_links () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "orig" in
  Fs.write fs ino ~off:0 (Bytes.of_string "shared");
  Fs.link fs ~dir:Fs.root "alias" ino;
  Alcotest.(check int) "nlink 2" 2 (Fs.stat fs ino).Fs.st_nlink;
  Alcotest.(check (option int)) "alias resolves" (Some ino) (Fs.resolve fs "/alias");
  Fs.unlink fs ~dir:Fs.root "orig";
  Helpers.check_bytes "alive through alias" (Bytes.of_string "shared")
    (Fs.read fs ino ~off:0 ~len:6);
  Alcotest.(check int) "nlink 1" 1 (Fs.stat fs ino).Fs.st_nlink;
  Fs.unlink fs ~dir:Fs.root "alias";
  Helpers.fsck_clean fs

let test_rename_same_dir () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "before" in
  Fs.rename fs ~odir:Fs.root "before" ~ndir:Fs.root "after";
  Alcotest.(check (option int)) "new name" (Some ino) (Fs.resolve fs "/after");
  Alcotest.(check (option int)) "old gone" None (Fs.resolve fs "/before");
  Helpers.fsck_clean fs

let test_rename_across_dirs () =
  let _, fs = Helpers.fresh_fs () in
  let a = Fs.mkdir fs ~dir:Fs.root "a" in
  let b = Fs.mkdir fs ~dir:Fs.root "b" in
  let ino = Fs.create fs ~dir:a "f" in
  Fs.rename fs ~odir:a "f" ~ndir:b "g";
  Alcotest.(check (option int)) "moved" (Some ino) (Fs.resolve fs "/b/g");
  Alcotest.(check (option int)) "source gone" None (Fs.resolve fs "/a/f");
  Helpers.fsck_clean fs

let test_rename_replaces_target () =
  let _, fs = Helpers.fresh_fs () in
  let src = Fs.create fs ~dir:Fs.root "src" in
  Fs.write fs src ~off:0 (Bytes.of_string "SRC");
  let tgt = Fs.create fs ~dir:Fs.root "tgt" in
  Fs.write fs tgt ~off:0 (Bytes.of_string "TGT");
  Fs.rename fs ~odir:Fs.root "src" ~ndir:Fs.root "tgt";
  Alcotest.(check (option int)) "target is source" (Some src) (Fs.resolve fs "/tgt");
  (match Fs.stat fs tgt with
  | _ -> Alcotest.fail "old target should be deleted"
  | exception Types.Fs_error _ -> ());
  Helpers.fsck_clean fs

let test_rename_noop_same_file () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "x" in
  Fs.link fs ~dir:Fs.root "y" ino;
  Fs.rename fs ~odir:Fs.root "x" ~ndir:Fs.root "y";
  (* POSIX: both links remain. *)
  Alcotest.(check (option int)) "x stays" (Some ino) (Fs.resolve fs "/x");
  Alcotest.(check (option int)) "y stays" (Some ino) (Fs.resolve fs "/y");
  Helpers.fsck_clean fs

let test_readdir_lists_everything () =
  let _, fs = Helpers.fresh_fs () in
  let names = [ "one"; "two"; "three" ] in
  List.iter (fun n -> ignore (Fs.create fs ~dir:Fs.root n)) names;
  Alcotest.(check (list string)) "listing" names
    (List.map fst (Fs.readdir fs Fs.root))

let test_many_files_in_dir () =
  let _, fs = Helpers.fresh_fs ~blocks:4096 () in
  for i = 0 to 199 do
    ignore (Fs.create fs ~dir:Fs.root (Printf.sprintf "file%03d" i))
  done;
  Alcotest.(check int) "200 entries" 200 (List.length (Fs.readdir fs Fs.root));
  Helpers.fsck_clean fs

(* A directory of 2,000 entries spans several blocks; unlinking every
   entry that reaches into its last block shrinks it across the boundary
   and frees that block, and roll-forward replays the unlinks onto the
   checkpointed multi-block image. *)
let test_multiblock_dir_shrink () =
  let config = { Helpers.test_config with max_inodes = 4096 } in
  let disk, fs = Helpers.fresh_fs ~blocks:8192 ~config () in
  let bs = (Fs.layout fs).Lfs_core.Layout.block_size in
  let inos =
    List.init 2000 (fun i ->
        let name = Printf.sprintf "f%04d" i in
        (name, Fs.create fs ~dir:Fs.root name))
  in
  Fs.checkpoint fs;
  let victims, lo = Helpers.last_block_entries ~block_size:bs (Fs.readdir fs Fs.root) in
  Alcotest.(check bool) "several blocks" true (lo >= 4 * bs);
  List.iter (fun n -> Fs.unlink fs ~dir:Fs.root n) victims;
  Alcotest.(check bool) "shrank below the last block" true
    (Fs.file_size fs Fs.root <= lo);
  Fs.with_handle fs Fs.root (fun _ fmap ->
      Alcotest.(check bool) "last block unmapped" true
        (Lfs_core.Filemap.get fmap (lo / bs) = Types.nil_addr));
  Helpers.fsck_clean fs;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "unlinks rolled forward" true
    (report.Fs.dirops_applied >= List.length victims);
  List.iter
    (fun (name, ino) ->
      let want = if List.mem name victims then None else Some ino in
      Alcotest.(check (option int)) name want (Fs.lookup fs2 ~dir:Fs.root name))
    inos;
  Alcotest.(check int) "size survives" (Fs.file_size fs Fs.root)
    (Fs.file_size fs2 Fs.root);
  Helpers.fsck_clean fs2

(* Dirty blocks past a truncation point are dropped, not left to resurface
   when the file grows back over them. *)
let test_truncate_drops_dirty_tail () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "f" in
  Fs.write fs ino ~off:0 (Bytes.make (8 * 4096) 'x');
  Fs.truncate fs ino ~len:(2 * 4096 + 100);
  Fs.write fs ino ~off:(7 * 4096) (Bytes.of_string "end");
  let gap = Fs.read fs ino ~off:(2 * 4096 + 100) ~len:(5 * 4096 - 100) in
  Alcotest.(check bool) "gap reads zeros" true
    (Bytes.for_all (fun c -> c = '\000') gap)

let test_path_helpers () =
  let _, fs = Helpers.fresh_fs () in
  ignore (Fs.mkdir_path fs "/x");
  ignore (Fs.mkdir_path fs "/x/y");
  Fs.write_path fs "/x/y/z" (Bytes.of_string "deep");
  Helpers.check_bytes "read_path" (Bytes.of_string "deep") (Option.get (Fs.read_path fs "/x/y/z"));
  Fs.write_path fs "/x/y/z" (Bytes.of_string "replaced");
  Helpers.check_bytes "write_path replaces" (Bytes.of_string "replaced")
    (Option.get (Fs.read_path fs "/x/y/z"))

(* ----- Persistence ----- *)

let test_remount_preserves_everything () =
  let disk, fs = Helpers.fresh_fs () in
  let prng = Prng.create ~seed:31 in
  let model = Helpers.random_ops ~ops:120 fs prng in
  Fs.unmount fs;
  let fs2 = Fs.mount (Helpers.vdev disk) in
  Helpers.check_model fs2 model;
  Helpers.fsck_clean fs2

let test_mount_discards_after_checkpoint () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/durable" (Bytes.of_string "saved");
  Fs.checkpoint fs;
  Fs.write_path fs "/volatile" (Bytes.of_string "lost");
  Fs.sync fs;
  (* A plain mount (no roll-forward) returns to the checkpoint. *)
  let fs2 = Fs.mount (Helpers.vdev disk) in
  Alcotest.(check bool) "durable present" true (Fs.resolve fs2 "/durable" <> None);
  Alcotest.(check (option int)) "volatile discarded" None (Fs.resolve fs2 "/volatile");
  Helpers.fsck_clean fs2

let test_mount_unformatted_fails () =
  let disk = Helpers.fresh_disk () in
  match Fs.mount (Helpers.vdev disk) with
  | _ -> Alcotest.fail "should fail"
  | exception Types.Corrupt _ -> ()

let test_double_remount () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/f" (Bytes.of_string "1");
  Fs.unmount fs;
  let fs2 = Fs.mount (Helpers.vdev disk) in
  Fs.write_path fs2 "/g" (Bytes.of_string "2");
  Fs.unmount fs2;
  let fs3 = Fs.mount (Helpers.vdev disk) in
  Alcotest.(check bool) "both survive" true
    (Fs.resolve fs3 "/f" <> None && Fs.resolve fs3 "/g" <> None);
  Helpers.fsck_clean fs3

let test_atime_updates_on_read () =
  let _, fs = Helpers.fresh_fs () in
  let ino = Fs.create fs ~dir:Fs.root "r" in
  Fs.write fs ino ~off:0 (Bytes.of_string "data");
  let before = (Fs.stat fs ino).Fs.st_atime in
  ignore (Fs.read fs ino ~off:0 ~len:4);
  Alcotest.(check bool) "atime advanced" true ((Fs.stat fs ino).Fs.st_atime >= before)

let test_out_of_space () =
  (* A tiny disk filled beyond capacity must fail cleanly; the durable
     state (last checkpoint) stays consistent. *)
  let disk = Helpers.fresh_disk ~blocks:512 () in
  Lfs_core.Fs.format (Helpers.vdev disk) Helpers.test_config;
  let fs = Fs.mount (Helpers.vdev disk) in
  (match
     for i = 0 to 100 do
       Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 60_000 'F')
     done
   with
  | () -> Alcotest.fail "should run out of space"
  | exception Types.Fs_error _ -> ());
  let fs2 = Fs.mount (Helpers.vdev disk) in
  Helpers.fsck_clean fs2

let test_deterministic_runs () =
  let run () =
    let _, fs = Helpers.fresh_fs () in
    let prng = Prng.create ~seed:99 in
    let _ = Helpers.random_ops ~ops:80 fs prng in
    Fs.sync fs;
    Helpers.fs_total fs "fs.log.blocks_new"
  in
  Alcotest.(check int) "identical traffic" (run ()) (run ())

(* ----- Randomised integration (model-checked) ----- *)

let test_random_ops_model ~seed () =
  let disk, fs = Helpers.fresh_fs ~blocks:2048 () in
  let prng = Prng.create ~seed in
  let model = Helpers.random_ops ~ops:300 fs prng in
  Helpers.check_model fs model;
  Helpers.fsck_clean fs;
  Fs.unmount fs;
  let fs2 = Fs.mount (Helpers.vdev disk) in
  Helpers.check_model fs2 model;
  Helpers.fsck_clean fs2

(* ----- Recycled buffers ----- *)

(* Every recycled buffer is dead once given back: a random run
   (whole-file and partial writes, creates, truncates, unlinks, renames,
   syncs and cleaner steps) under buffer poisoning leaves every file
   byte-exact and the volume clean, before and after a remount, whether
   the device lands writes at submit (Direct) or queues them until the
   elevator commits them (Queued). *)
let test_recycled_buffers_dead ~queued =
  Helpers.poisoned @@ fun () ->
  let disk, fs =
    Helpers.fresh_fs ~blocks:2048 ~config:Helpers.eager_cleaning_config ()
  in
  let now = ref 0.0 in
  if queued then Disk.set_mode disk (Lfs_disk.Io_queue.Queued (fun () -> !now));
  let ops = ref 0 in
  let after_op () =
    incr ops;
    now := !now +. 0.01;
    if !ops mod 7 = 0 then Fs.sync fs;
    if !ops mod 11 = 0 then ignore (Fs.clean_step fs : int);
    (* Commit part of the queue, leaving later writes pending. *)
    if queued && !ops mod 3 = 0 then ignore (Disk.pump disk ~now:!now)
  in
  let prng = Prng.create ~seed:(if queued then 41 else 40) in
  let model = Helpers.random_ops ~ops:400 ~after_op fs prng in
  Alcotest.(check bool) "cleaner ran" true
    (Helpers.fs_total fs "fs.cleaner.segments_cleaned" > 0);
  Helpers.check_model fs model;
  Helpers.fsck_clean fs;
  Fs.unmount fs;
  ignore (Disk.drain disk : float);
  Disk.set_mode disk Lfs_disk.Io_queue.Direct;
  let fs = Fs.mount (Helpers.vdev disk) in
  Helpers.check_model fs model;
  Helpers.fsck_clean fs

(* On a warm mount over a queued device (its block cache full, so new
   entries reuse departed ones' buffers), a small synced write takes its
   write-buffer block and its log batch's staging blocks from recycled
   buffers, and its inode is rendered into the log writer's transfer
   buffer: 100 cycles of a 1 KB write and a sync add fewer words to the
   major heap than one block, where a block buffer per cycle would add
   100. *)
let test_no_block_buffer_per_write () =
  let config =
    {
      Helpers.test_config with
      Lfs_core.Config.checkpoint_interval_ops = 0;
      checkpoint_interval_blocks = 0;
    }
  in
  let disk, fs = Helpers.fresh_fs ~blocks:4096 ~config () in
  let now = ref 0.0 in
  Disk.set_mode disk (Lfs_disk.Io_queue.Queued (fun () -> !now));
  let ino = Fs.create_path fs "/small" in
  let data = Bytes.make 1024 'w' in
  let cycle i =
    now := !now +. 0.01;
    Fs.write fs ino ~off:(1024 * (i mod 16)) data;
    Fs.sync fs;
    ignore (Disk.pump disk ~now:!now)
  in
  (* Each cycle writes two blocks (the summary, carrying the inode, and
     the data block), so this fills the 128-block cache. *)
  for i = 1 to 100 do
    cycle i
  done;
  let words =
    Helpers.major_words (fun () ->
        for i = 1 to 100 do
          cycle i
        done)
  in
  let bound = float_of_int (config.Lfs_core.Config.block_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words in 100 cycles < one block (%.0f)" words
       bound)
    true (words < bound);
  ignore (Disk.drain disk : float);
  Helpers.check_bytes "contents" (Bytes.make 16_384 'w')
    (Fs.read fs ino ~off:0 ~len:16_384)

(* A file's blocks at consecutive log addresses come back from a cold
   cache in one device read per run: whole blocks, a range that ends
   part-way into its last block, and one that starts part-way into its
   first.  A block in the write buffer ends a run. *)
let test_read_run_one_transfer () =
  let disk, fs = Helpers.fresh_fs () in
  let k = 8 and bs = 4096 in
  let data = Helpers.bytes_of_pattern ~seed:3 (k * bs) in
  let ino = Fs.create fs ~dir:Fs.root "run" in
  Fs.write fs ino ~off:0 data;
  Fs.sync fs;
  let addrs =
    Fs.with_handle fs ino (fun _ fmap -> List.init k (Lfs_core.Filemap.get fmap))
  in
  Alcotest.(check (list int)) "laid out at consecutive addresses"
    (List.init k (fun i -> List.hd addrs + i))
    addrs;
  let cold_read ~off ~len =
    Fs.drop_caches fs;
    ignore (Fs.file_size fs ino : int);
    let before = Lfs_disk.Io_stats.copy (Disk.stats disk) in
    let got = Fs.read fs ino ~off ~len in
    let d = Lfs_disk.Io_stats.diff (Disk.stats disk) before in
    Helpers.check_bytes "bytes" (Bytes.sub data off len) got;
    (d.Lfs_disk.Io_stats.reads, d.Lfs_disk.Io_stats.blocks_read)
  in
  let reads = Alcotest.(check (pair int int)) in
  reads "whole blocks: one read" (1, k) (cold_read ~off:0 ~len:(k * bs));
  reads "short last block: one read" (1, k) (cold_read ~off:0 ~len:((k * bs) - 100));
  reads "short first block: one read" (1, k - 1)
    (cold_read ~off:(bs + 10) ~len:((k - 1) * bs - 10));
  Fs.drop_caches fs;
  Fs.write fs ino ~off:(3 * bs) (Bytes.sub data (3 * bs) 10);
  let before = Lfs_disk.Io_stats.copy (Disk.stats disk) in
  Helpers.check_bytes "around a buffered block" data (Fs.read fs ino ~off:0 ~len:(k * bs));
  Alcotest.(check int) "a buffered block splits the run" 2
    (Lfs_disk.Io_stats.diff (Disk.stats disk) before).Lfs_disk.Io_stats.reads

(* A block can die while its log write is still in flight: on a queued
   device, a buffer flush writes /a's block and nothing serves the write
   before a synced overwrite kills it.  The write entered the block into
   the cache at submit; the kill takes it out, and the new copy goes in.
   Nothing resident is dead. *)
let test_dies_in_flight () =
  let module Layout = Lfs_core.Layout in
  let disk = Helpers.fresh_disk ~blocks:2048 () in
  let dev = Helpers.vdev disk in
  Fs.format dev Helpers.test_config;
  let fs = Fs.mount dev in
  Lfs_disk.Vdev.set_mode dev (Lfs_disk.Vdev.Queued (Fun.const 0.0));
  let bs = (Fs.layout fs).Layout.block_size in
  let addr_of a =
    fst
      (List.find
         (fun (_, w) -> w = Printf.sprintf "data %d.0" a)
         (Lfs_core.Fsck.live_blocks fs))
  in
  Fs.write_path fs "/a" (Bytes.make bs 'a');
  let a = Option.get (Fs.resolve fs "/a") in
  (* More than the write buffer holds: a flush with no barrier. *)
  Fs.write_path fs "/b" (Bytes.make (20 * bs) 'b');
  let old = addr_of a in
  Alcotest.(check bool) "writes are in flight" true
    (Lfs_disk.Vdev.outstanding_in dev ~lo:0 ~hi:max_int > 0);
  Alcotest.(check bool) "and its block cached" true (Fs.block_cached fs old);
  Fs.write fs a ~off:0 (Bytes.make bs 'c');
  Fs.sync fs;
  Alcotest.(check bool) "the dead copy left the cache" false (Fs.block_cached fs old);
  Alcotest.(check bool) "the new copy is cached" true (Fs.block_cached fs (addr_of a));
  let live = List.map fst (Lfs_core.Fsck.live_blocks fs) in
  Alcotest.(check (list int)) "no dead block resident" []
    (List.filter
       (fun b -> Fs.block_cached fs b && not (List.mem b live))
       (List.init (Lfs_disk.Vdev.nblocks dev) Fun.id));
  ignore (Lfs_disk.Vdev.drain dev : float);
  Lfs_disk.Vdev.set_mode dev Lfs_disk.Vdev.Direct;
  Helpers.check_bytes "/a" (Bytes.make bs 'c') (Option.get (Fs.read_path fs "/a"));
  Helpers.fsck_clean fs

let suite =
  ( "fs",
    [
      Alcotest.test_case "format/mount empty" `Quick test_format_mount_empty;
      Alcotest.test_case "write/read small" `Quick test_write_read_small;
      Alcotest.test_case "write/read multiblock" `Quick test_write_read_multiblock;
      Alcotest.test_case "write at offset" `Quick test_write_at_offset;
      Alcotest.test_case "sparse holes" `Quick test_sparse_hole_reads_zero;
      Alcotest.test_case "read: a run is one transfer" `Quick test_read_run_one_transfer;
      Alcotest.test_case "read past eof" `Quick test_read_past_eof_truncated;
      Alcotest.test_case "empty write" `Quick test_empty_write_noop;
      Alcotest.test_case "truncate shrinks" `Quick test_truncate_shrinks;
      Alcotest.test_case "truncate then extend" `Quick test_truncate_then_extend_zeros;
      Alcotest.test_case "truncate bumps version" `Quick test_truncate_zero_bumps_version;
      Alcotest.test_case "stat fields" `Quick test_stat_fields;
      Alcotest.test_case "mkdir nesting" `Quick test_mkdir_and_nesting;
      Alcotest.test_case "duplicate create" `Quick test_duplicate_create_rejected;
      Alcotest.test_case "unlink removes" `Quick test_unlink_removes;
      Alcotest.test_case "unlink missing" `Quick test_unlink_missing_rejected;
      Alcotest.test_case "unlink directory" `Quick test_unlink_directory_rejected;
      Alcotest.test_case "rmdir" `Quick test_rmdir;
      Alcotest.test_case "hard links" `Quick test_hard_links;
      Alcotest.test_case "rename same dir" `Quick test_rename_same_dir;
      Alcotest.test_case "rename across dirs" `Quick test_rename_across_dirs;
      Alcotest.test_case "rename replaces" `Quick test_rename_replaces_target;
      Alcotest.test_case "rename noop same file" `Quick test_rename_noop_same_file;
      Alcotest.test_case "readdir" `Quick test_readdir_lists_everything;
      Alcotest.test_case "many files in dir" `Quick test_many_files_in_dir;
      Alcotest.test_case "multi-block dir shrink" `Quick test_multiblock_dir_shrink;
      Alcotest.test_case "truncate drops dirty tail" `Quick test_truncate_drops_dirty_tail;
      Alcotest.test_case "path helpers" `Quick test_path_helpers;
      Alcotest.test_case "remount preserves" `Quick test_remount_preserves_everything;
      Alcotest.test_case "mount discards post-ckpt" `Quick test_mount_discards_after_checkpoint;
      Alcotest.test_case "mount unformatted" `Quick test_mount_unformatted_fails;
      Alcotest.test_case "double remount" `Quick test_double_remount;
      Alcotest.test_case "atime on read" `Quick test_atime_updates_on_read;
      Alcotest.test_case "out of space" `Quick test_out_of_space;
      Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
      Alcotest.test_case "random ops model (seed 1)" `Quick (test_random_ops_model ~seed:1);
      Alcotest.test_case "random ops model (seed 2)" `Quick (test_random_ops_model ~seed:2);
      Alcotest.test_case "random ops model (seed 3)" `Quick (test_random_ops_model ~seed:3);
      Alcotest.test_case "recycled buffers dead (direct)" `Quick
        (test_recycled_buffers_dead ~queued:false);
      Alcotest.test_case "recycled buffers dead (queued)" `Quick
        (test_recycled_buffers_dead ~queued:true);
      Alcotest.test_case "no block buffer per foreground write" `Quick
        test_no_block_buffer_per_write;
      Alcotest.test_case "a block dies in flight" `Quick test_dies_in_flight;
    ] )
