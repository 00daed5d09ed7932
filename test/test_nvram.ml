(* Tests for the NVRAM write-buffer extension: zero data loss across
   crashes, journal replay semantics, remapping and capacity. *)

module Fs = Lfs_core.Fs
module Nvram = Lfs_core.Nvram
module Nfs = Lfs_core.Nvram_fs
module Disk = Lfs_disk.Disk
module Types = Lfs_core.Types
module Prng = Lfs_util.Prng

let fresh () =
  let disk, fs = Helpers.fresh_fs ~blocks:2048 () in
  let nvram = Nvram.create () in
  (disk, nvram, Nfs.wrap fs nvram)

(* Crash without any sync: everything acknowledged lives only in the
   volatile cache and the NVRAM. *)
let crash disk = Helpers.reboot disk

let test_journal_accounting () =
  let n = Nvram.create ~capacity_bytes:1024 () in
  Alcotest.(check int) "empty" 0 (Nvram.used_bytes n);
  Nvram.append n (Nvram.Unlink { dir = 1; name = "abc"; ino = 9 });
  Alcotest.(check bool) "used grows" true (Nvram.used_bytes n > 0);
  Alcotest.(check int) "one record" 1 (List.length (Nvram.records n));
  Nvram.clear n;
  Alcotest.(check int) "cleared" 0 (Nvram.used_bytes n)

let test_no_data_loss_without_sync () =
  let disk, nvram, nfs = fresh () in
  let data = Helpers.bytes_of_pattern ~seed:50 20_000 in
  let ino = Nfs.create nfs ~dir:Fs.root "precious" in
  Nfs.write nfs ino ~off:0 data;
  (* Power cut before any sync or checkpoint. *)
  crash disk;
  let nfs2, replay = Nfs.recover (Helpers.vdev disk) nvram in
  Alcotest.(check bool) "records replayed" true (replay.Nfs.replayed >= 2);
  Helpers.check_bytes "nothing lost" data (Option.get (Nfs.read_path nfs2 "/precious"));
  Helpers.fsck_clean (Nfs.fs nfs2)

let test_replay_is_ordered () =
  let disk, nvram, nfs = fresh () in
  let ino = Nfs.create nfs ~dir:Fs.root "f" in
  Nfs.write nfs ino ~off:0 (Bytes.of_string "AAAA");
  Nfs.write nfs ino ~off:2 (Bytes.of_string "bb");
  Nfs.truncate nfs ino ~len:3;
  crash disk;
  let nfs2, _ = Nfs.recover (Helpers.vdev disk) nvram in
  Helpers.check_bytes "history order preserved" (Bytes.of_string "AAb")
    (Option.get (Nfs.read_path nfs2 "/f"))

let test_delete_not_resurrected () =
  let disk, nvram, nfs = fresh () in
  let ino = Nfs.create nfs ~dir:Fs.root "ghost" in
  Nfs.write nfs ino ~off:0 (Bytes.of_string "boo");
  Nfs.unlink nfs ~dir:Fs.root "ghost";
  crash disk;
  let nfs2, _ = Nfs.recover (Helpers.vdev disk) nvram in
  Alcotest.(check (option int)) "stays deleted" None (Nfs.resolve nfs2 "/ghost");
  Helpers.fsck_clean (Nfs.fs nfs2)

let test_replay_on_partially_durable_state () =
  (* Some journalled work also reached the log (sync); replay must not
     duplicate or corrupt it. *)
  let disk, nvram, nfs = fresh () in
  Nfs.write_path nfs "/a" (Bytes.of_string "first");
  Fs.sync (Nfs.fs nfs);
  Nfs.write_path nfs "/b" (Bytes.of_string "second");
  crash disk;
  let nfs2, _ = Nfs.recover (Helpers.vdev disk) nvram in
  Helpers.check_bytes "durable file" (Bytes.of_string "first") (Option.get (Nfs.read_path nfs2 "/a"));
  Helpers.check_bytes "volatile file" (Bytes.of_string "second") (Option.get (Nfs.read_path nfs2 "/b"));
  Helpers.fsck_clean (Nfs.fs nfs2)

let test_rename_replay () =
  let disk, nvram, nfs = fresh () in
  let d1 = Nfs.mkdir nfs ~dir:Fs.root "d1" in
  let d2 = Nfs.mkdir nfs ~dir:Fs.root "d2" in
  let ino = Nfs.create nfs ~dir:d1 "x" in
  Nfs.write nfs ino ~off:0 (Bytes.of_string "move me");
  Nfs.rename nfs ~odir:d1 "x" ~ndir:d2 "y";
  crash disk;
  let nfs2, _ = Nfs.recover (Helpers.vdev disk) nvram in
  Helpers.check_bytes "moved with contents" (Bytes.of_string "move me")
    (Option.get (Nfs.read_path nfs2 "/d2/y"));
  Alcotest.(check (option int)) "old gone" None (Nfs.resolve nfs2 "/d1/x")

let test_remap_after_create_replay () =
  (* A create whose inode never reached the log gets a fresh inode at
     replay; later writes must follow the remap. *)
  let disk, nvram, nfs = fresh () in
  Fs.checkpoint (Nfs.fs nfs);
  Nvram.clear nvram;
  let ino = Nfs.create nfs ~dir:Fs.root "fresh" in
  Nfs.write nfs ino ~off:0 (Bytes.of_string "remapped");
  crash disk;
  let nfs2, _ = Nfs.recover (Helpers.vdev disk) nvram in
  Helpers.check_bytes "write followed remap" (Bytes.of_string "remapped")
    (Option.get (Nfs.read_path nfs2 "/fresh"))

let test_checkpoint_clears_journal () =
  let _, nvram, nfs = fresh () in
  Nfs.write_path nfs "/x" (Bytes.make 5000 'x');
  Alcotest.(check bool) "journal non-empty" true (Nvram.used_bytes nvram > 0);
  Nfs.checkpoint nfs;
  Alcotest.(check int) "journal cleared" 0 (Nvram.used_bytes nvram)

let test_capacity_forces_checkpoint () =
  let disk, _ = Helpers.fresh_fs ~blocks:2048 () in
  let fs = Fs.mount (Helpers.vdev disk) in
  let nvram = Nvram.create ~capacity_bytes:(128 * 1024) () in
  let nfs = Nfs.wrap fs nvram in
  for i = 0 to 30 do
    Nfs.write_path nfs (Printf.sprintf "/f%d" i) (Bytes.make 10_000 'c')
  done;
  (* The journal never exceeds capacity: checkpoints drained it. *)
  Alcotest.(check bool) "bounded" true
    (Nvram.used_bytes nvram <= Nvram.capacity_bytes nvram);
  Alcotest.(check bool) "checkpoints happened" true
    (Helpers.fs_total fs "fs.checkpoints" > 1)

let test_randomised_no_loss ~seed () =
  let disk, nvram, nfs = fresh () in
  let prng = Prng.create ~seed in
  let model : (string, bytes) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to 200 do
    let name = Printf.sprintf "/f%d" (Prng.int prng 15) in
    if Prng.int prng 5 = 0 && Hashtbl.mem model name then begin
      Nfs.unlink nfs ~dir:Fs.root (String.sub name 1 (String.length name - 1));
      Hashtbl.remove model name
    end
    else begin
      let data = Helpers.bytes_of_pattern ~seed:(i * 7) (100 + Prng.int prng 20_000) in
      Nfs.write_path nfs name data;
      Hashtbl.replace model name data
    end;
    if Prng.int prng 20 = 0 then Fs.sync (Nfs.fs nfs)
  done;
  crash disk;
  let nfs2, _ = Nfs.recover (Helpers.vdev disk) nvram in
  Hashtbl.iter
    (fun path data ->
      Helpers.check_bytes ("content of " ^ path) data (Option.get (Nfs.read_path nfs2 path)))
    model;
  Helpers.fsck_clean (Nfs.fs nfs2)

let test_write_path_missing_dir_rejected () =
  let _, _, nfs = fresh () in
  match Nfs.write_path nfs "/nodir/f" (Bytes.of_string "x") with
  | () -> Alcotest.fail "should reject missing directory"
  | exception Types.Fs_error _ -> ()

let test_internal_checkpoint_clears_journal () =
  (* The hook fires for the file system's own automatic checkpoints. *)
  let disk, _ = Helpers.fresh_fs ~blocks:2048 () in
  let fs =
    Fs.mount
      ~config:{ Helpers.test_config with Lfs_core.Config.checkpoint_interval_ops = 5 }
      (Helpers.vdev disk)
  in
  let nvram = Nvram.create () in
  let nfs = Nfs.wrap fs nvram in
  for i = 0 to 19 do
    Nfs.write_path nfs (Printf.sprintf "/f%d" i) (Bytes.make 2000 'h')
  done;
  (* 20 ops with a 5-op interval: several internal checkpoints, so only
     a suffix of the work is still journalled. *)
  Alcotest.(check bool) "journal holds a suffix only" true
    (List.length (Nvram.records nvram) < 20);
  crash disk;
  let nfs2, _ = Nfs.recover (Helpers.vdev disk) nvram in
  for i = 0 to 19 do
    Alcotest.(check bool)
      (Printf.sprintf "f%d survives" i)
      true
      (Nfs.resolve nfs2 (Printf.sprintf "/f%d" i) <> None)
  done;
  Helpers.fsck_clean (Nfs.fs nfs2)

let suite =
  ( "nvram",
    [
      Alcotest.test_case "journal accounting" `Quick test_journal_accounting;
      Alcotest.test_case "no loss without sync" `Quick test_no_data_loss_without_sync;
      Alcotest.test_case "replay ordered" `Quick test_replay_is_ordered;
      Alcotest.test_case "delete not resurrected" `Quick test_delete_not_resurrected;
      Alcotest.test_case "partially durable" `Quick test_replay_on_partially_durable_state;
      Alcotest.test_case "rename replay" `Quick test_rename_replay;
      Alcotest.test_case "create remap" `Quick test_remap_after_create_replay;
      Alcotest.test_case "checkpoint clears" `Quick test_checkpoint_clears_journal;
      Alcotest.test_case "capacity bound" `Quick test_capacity_forces_checkpoint;
      Alcotest.test_case "random no loss (seed 60)" `Quick (test_randomised_no_loss ~seed:60);
      Alcotest.test_case "random no loss (seed 61)" `Quick (test_randomised_no_loss ~seed:61);
      Alcotest.test_case "write_path missing dir" `Quick test_write_path_missing_dir_rejected;
      Alcotest.test_case "internal checkpoints clear journal" `Quick
        test_internal_checkpoint_clears_journal;
    ] )
