(* Crash-recovery tests: roll-forward of data, inodes and directory
   operations; torn writes; crash injection at arbitrary points. *)

module Fs = Lfs_core.Fs
module Disk = Lfs_disk.Disk
module Types = Lfs_core.Types
module Prng = Lfs_util.Prng

let test_recover_nothing_to_do () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/f" (Bytes.of_string "data");
  Fs.checkpoint fs;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check int) "nothing replayed" 0 report.Fs.writes_replayed;
  Helpers.check_bytes "file intact" (Bytes.of_string "data") (Option.get (Fs.read_path fs2 "/f"));
  Helpers.fsck_clean fs2

let test_recover_new_file () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  Fs.write_path fs "/post" (Bytes.of_string "after checkpoint");
  Fs.sync fs;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "writes replayed" true (report.Fs.writes_replayed > 0);
  Alcotest.(check bool) "inodes recovered" true (report.Fs.inodes_recovered > 0);
  Helpers.check_bytes "file recovered" (Bytes.of_string "after checkpoint")
    (Option.get (Fs.read_path fs2 "/post"));
  Helpers.fsck_clean fs2

let test_recover_overwrite () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/f" (Bytes.make 9000 'o');
  Fs.checkpoint fs;
  Fs.write_path fs "/f" (Bytes.make 5000 'n');
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Helpers.check_bytes "newest version wins" (Bytes.make 5000 'n')
    (Option.get (Fs.read_path fs2 "/f"));
  Helpers.fsck_clean fs2

let test_recover_delete () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/doomed" (Bytes.make 8000 'd');
  Fs.checkpoint fs;
  Fs.unlink fs ~dir:Fs.root "doomed";
  Fs.sync fs;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "dirop applied" true (report.Fs.dirops_applied > 0);
  Alcotest.(check (option int)) "file stays deleted" None (Fs.resolve fs2 "/doomed");
  Helpers.fsck_clean fs2

let test_recover_rename_atomic () =
  let disk, fs = Helpers.fresh_fs () in
  ignore (Fs.mkdir_path fs "/a");
  ignore (Fs.mkdir_path fs "/b");
  Fs.write_path fs "/a/f" (Bytes.of_string "payload");
  Fs.checkpoint fs;
  let a = Option.get (Fs.resolve fs "/a") in
  let b = Option.get (Fs.resolve fs "/b") in
  Fs.rename fs ~odir:a "f" ~ndir:b "f";
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  let in_a = Fs.resolve fs2 "/a/f" <> None in
  let in_b = Fs.resolve fs2 "/b/f" <> None in
  Alcotest.(check bool) "exactly one location" true (in_a <> in_b);
  Alcotest.(check bool) "rename completed" true in_b;
  Helpers.fsck_clean fs2

let test_recover_link_counts () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/orig" (Bytes.of_string "x");
  Fs.checkpoint fs;
  let ino = Option.get (Fs.resolve fs "/orig") in
  Fs.link fs ~dir:Fs.root "alias" ino;
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check int) "nlink recovered" 2
    (Fs.stat fs2 (Option.get (Fs.resolve fs2 "/orig"))).Fs.st_nlink;
  Helpers.fsck_clean fs2

let test_torn_tail_ignored () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/safe" (Bytes.of_string "safe");
  Fs.checkpoint fs;
  Fs.write_path fs "/torn" (Bytes.make 30_000 't');
  (* Tear the final log write a few blocks in. *)
  Helpers.plan_crash disk ~after_blocks:3;
  (match Fs.sync fs with () -> () | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "safe file present" true (Fs.resolve fs2 "/safe" <> None);
  Helpers.fsck_clean fs2

let test_recovery_is_idempotent () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  Fs.write_path fs "/f" (Bytes.of_string "once");
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Helpers.fsck_clean fs2;
  (* Recover again from the new checkpoint: no-op, still consistent. *)
  let fs3, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check int) "second recovery replays nothing" 0 report.Fs.writes_replayed;
  Helpers.check_bytes "data still there" (Bytes.of_string "once")
    (Option.get (Fs.read_path fs3 "/f"));
  Helpers.fsck_clean fs3

let test_recover_multiple_checkpoint_cycles () =
  let disk, fs = Helpers.fresh_fs () in
  for round = 1 to 5 do
    Fs.write_path fs (Printf.sprintf "/r%d" round) (Bytes.make 4000 'r');
    Fs.checkpoint fs
  done;
  Fs.write_path fs "/tail" (Bytes.of_string "tail");
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  for round = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "round %d present" round)
      true
      (Fs.resolve fs2 (Printf.sprintf "/r%d" round) <> None)
  done;
  Alcotest.(check bool) "tail recovered" true (Fs.resolve fs2 "/tail" <> None);
  Helpers.fsck_clean fs2

let test_recover_create_without_inode_drops_entry () =
  (* The paper's one uncompletable operation: a directory entry whose
     inode never reached the log is removed during roll-forward.  We
     build it by tearing the flush right after the dir-log block. *)
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  ignore (Fs.create fs ~dir:Fs.root "phantom");
  Helpers.plan_crash disk ~after_blocks:2;  (* summary + dirlog, then power cut *)
  (match Fs.sync fs with () -> () | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check (option int)) "phantom dropped" None (Fs.resolve fs2 "/phantom");
  Helpers.fsck_clean fs2

(* Exhaustive crash points over a fixed op sequence: cut power after
   every possible number of written blocks and verify recovery. *)
let test_crash_every_point () =
  let scenario disk =
    let fs = Fs.mount (Helpers.vdev disk) in
    Fs.write_path fs "/a" (Bytes.make 3000 'a');
    Fs.checkpoint fs;
    Fs.write_path fs "/b" (Bytes.make 12_000 'b');
    Fs.sync fs;
    ignore (Fs.mkdir_path fs "/d");
    Fs.write_path fs "/d/c" (Bytes.make 2000 'c');
    Fs.unlink fs ~dir:Fs.root "a";
    Fs.checkpoint fs
  in
  (* How many blocks does the whole scenario write? *)
  let probe = Helpers.fresh_disk () in
  Lfs_core.Fs.format (Helpers.vdev probe) Helpers.test_config;
  let base = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written in
  scenario probe;
  let total = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written - base in
  let failures = ref [] in
  for cut = 0 to total - 1 do
    let disk = Helpers.fresh_disk () in
    Lfs_core.Fs.format (Helpers.vdev disk) Helpers.test_config;
    Helpers.plan_crash disk ~after_blocks:cut;
    (match scenario disk with () -> () | exception Disk.Crashed -> ());
    Helpers.reboot disk;
    match Fs.recover (Helpers.vdev disk) with
    | fs2, _ ->
        let r = Lfs_core.Fsck.check fs2 in
        if not (Lfs_core.Fsck.is_clean r) then failures := cut :: !failures
    | exception e ->
        failures := cut :: !failures;
        ignore e
  done;
  if !failures <> [] then
    Alcotest.failf "crash points with broken recovery: %s"
      (String.concat ", " (List.map string_of_int (List.rev !failures)))

(* Crash injection while the segment cleaner is running: churn a small
   disk until cleaning must happen, then cut power at sampled points
   throughout and verify recovery every time.  This exercises the
   "cleaned segments only become reusable after a checkpoint" rule. *)
let test_crash_during_cleaning () =
  let scenario disk =
    let fs = Fs.mount (Helpers.vdev disk) in
    for i = 0 to 19 do
      Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 50_000 'a')
    done;
    for round = 0 to 2 do
      for i = 0 to 19 do
        Fs.write_path fs
          (Printf.sprintf "/f%d" i)
          (Bytes.make 50_000 (Char.chr (98 + round)))
      done
    done;
    Fs.checkpoint fs;
    Helpers.fs_total fs "fs.cleaner.segments_cleaned"
  in
  let probe = Helpers.fresh_disk ~blocks:1536 () in
  Lfs_core.Fs.format (Helpers.vdev probe) Helpers.test_config;
  let base = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written in
  let cleaned = scenario probe in
  Alcotest.(check bool) "scenario forces cleaning" true (cleaned > 0);
  let total = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written - base in
  let failures = ref [] in
  let cut = ref 1 in
  while !cut < total do
    let disk = Helpers.fresh_disk ~blocks:1536 () in
    Lfs_core.Fs.format (Helpers.vdev disk) Helpers.test_config;
    Helpers.plan_crash disk ~after_blocks:!cut;
    (match scenario disk with (_ : int) -> () | exception Disk.Crashed -> ());
    Helpers.reboot disk;
    (match Fs.recover (Helpers.vdev disk) with
    | fs2, _ ->
        if not (Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs2)) then
          failures := !cut :: !failures
    | exception _ -> failures := !cut :: !failures);
    cut := !cut + 37  (* sample points coprime with block patterns *)
  done;
  if !failures <> [] then
    Alcotest.failf "broken recovery at cuts: %s"
      (String.concat ", " (List.map string_of_int (List.rev !failures)))

(* Randomised crash torture, as in the development smoke tests. *)
let test_crash_torture ~seed () =
  let prng = Prng.create ~seed in
  let disk, fs0 = Helpers.fresh_fs ~blocks:2048 () in
  let fs = ref fs0 in
  let crash_after = 100 + Prng.int prng 3000 in
  Helpers.plan_crash disk ~after_blocks:crash_after;
  (try
     for i = 0 to 1500 do
       let name = Printf.sprintf "f%d" (Prng.int prng 30) in
       try
         match Prng.int prng 8 with
         | 0 | 1 | 2 | 3 ->
             Fs.write_path !fs ("/" ^ name)
               (Bytes.make (256 + Prng.int prng 40_000) (Char.chr (65 + (i mod 26))))
         | 4 ->
             (match Fs.resolve !fs ("/" ^ name) with
             | Some _ -> Fs.unlink !fs ~dir:Fs.root name
             | None -> ())
         | 5 -> Fs.sync !fs
         | 6 -> Fs.checkpoint !fs
         | _ ->
             (match Fs.resolve !fs ("/" ^ name) with
             | Some ino -> ignore (Fs.read !fs ino ~off:0 ~len:4096)
             | None -> ())
       with Types.Fs_error _ -> ()
     done;
     raise Disk.Crashed
   with Disk.Crashed -> ());
  Helpers.reboot disk;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Helpers.fsck_clean fs2

let test_recovery_report_counts () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/n%d" i) (Bytes.make 2000 'n')
  done;
  Fs.sync fs;
  let _, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "10 files + root recovered" true
    (report.Fs.inodes_recovered >= 10);
  Alcotest.(check bool) "dirops for each create" true (report.Fs.dirops_applied >= 10);
  Alcotest.(check bool) "data blocks seen" true (report.Fs.data_blocks_recovered >= 10)

let suite =
  ( "recovery",
    [
      Alcotest.test_case "nothing to do" `Quick test_recover_nothing_to_do;
      Alcotest.test_case "new file" `Quick test_recover_new_file;
      Alcotest.test_case "overwrite" `Quick test_recover_overwrite;
      Alcotest.test_case "delete" `Quick test_recover_delete;
      Alcotest.test_case "rename atomic" `Quick test_recover_rename_atomic;
      Alcotest.test_case "link counts" `Quick test_recover_link_counts;
      Alcotest.test_case "torn tail" `Quick test_torn_tail_ignored;
      Alcotest.test_case "idempotent" `Quick test_recovery_is_idempotent;
      Alcotest.test_case "multiple cycles" `Quick test_recover_multiple_checkpoint_cycles;
      Alcotest.test_case "phantom create dropped" `Quick
        test_recover_create_without_inode_drops_entry;
      Alcotest.test_case "crash at every block" `Slow test_crash_every_point;
      Alcotest.test_case "crash during cleaning" `Slow test_crash_during_cleaning;
      Alcotest.test_case "crash torture (seed 41)" `Quick (test_crash_torture ~seed:41);
      Alcotest.test_case "crash torture (seed 42)" `Quick (test_crash_torture ~seed:42);
      Alcotest.test_case "crash torture (seed 43)" `Quick (test_crash_torture ~seed:43);
      Alcotest.test_case "crash torture (seed 44)" `Quick (test_crash_torture ~seed:44);
      Alcotest.test_case "report counts" `Quick test_recovery_report_counts;
    ] )
