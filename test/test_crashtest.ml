(* Tests for the crash-point enumeration harness (lib/crashtest) and
   the fault-injecting vdev it is built on. *)

module Fs = Lfs_core.Fs
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Vdev_fault = Lfs_disk.Vdev_fault
module Geometry = Lfs_disk.Geometry
module Crashtest = Lfs_crashtest.Crashtest

let lfs = Lfs_spec.Spec.of_string "lfs"

let check_clean report =
  if not (Crashtest.is_clean report) then
    Alcotest.failf "crashtest not clean:@\n%a" Crashtest.pp_report report

(* Every crash point of the smallfile workload recovers fsck-clean and
   oracle-consistent. *)
let test_smallfile_every_point () =
  let report = Crashtest.run lfs (Crashtest.smallfile ()) in
  Alcotest.(check bool) "has crash points" true (report.Crashtest.total_blocks > 0);
  Alcotest.(check int) "every point crashed" report.Crashtest.points
    report.Crashtest.crashes;
  check_clean report

(* Mixed create/overwrite/append/delete scripts, full enumeration.
   Seed 3 is the run that exposed the inode-reuse resurrection bug in
   roll-forward (a durably unlinked file's content reappearing when its
   inode number was reallocated but the new inode never reached the
   log), so it stays pinned here as a regression. *)
let test_script_seeds () =
  List.iter
    (fun seed ->
      check_clean (Crashtest.run ~seed lfs (Crashtest.script ~seed ())))
    [ 3; 7; 11 ]

(* The same harness runs against FFS through the shared interface.  FFS
   has no recovery protocol, so failures are allowed — the contract is
   that the harness reports them rather than dying. *)
let test_ffs_reports () =
  let report =
    Crashtest.run ~stride:5 ~seed:3 (Lfs_spec.Spec.of_string "ffs")
      (Crashtest.script ~seed:3 ())
  in
  Alcotest.(check bool) "replayed points" true (report.Crashtest.points > 0);
  Alcotest.(check int) "every point crashed" report.Crashtest.points
    report.Crashtest.crashes

(* A cut's crash mode is keyed by (seed, cut), so it cannot depend on
   how the sweep was thinned: the FFS script run fails at cuts that a
   full sweep, a stride-5 sweep and a single-cut run all replay, and
   each such cut must report the same mode every time. *)
let test_mode_independent_of_stride () =
  let run ?stride ?cuts () =
    let r =
      Crashtest.run ?stride ?cuts ~seed:3 (Lfs_spec.Spec.of_string "ffs")
        (Crashtest.script ~seed:3 ())
    in
    r.Crashtest.fsck_failures @ r.Crashtest.oracle_failures
  in
  let full = run ~stride:1 () and thinned = run ~stride:5 () in
  let shared =
    List.filter
      (fun (f : Crashtest.failure) ->
        List.exists (fun (g : Crashtest.failure) -> g.cut = f.cut) thinned)
      full
  in
  Alcotest.(check bool) "some cut fails in both sweeps" true (shared <> []);
  let singles =
    List.concat_map
      (fun (f : Crashtest.failure) -> run ~cuts:[ f.cut ] ())
      (List.filteri (fun i _ -> i < 3) shared)
  in
  List.iter
    (fun (f : Crashtest.failure) ->
      List.iter
        (fun (g : Crashtest.failure) ->
          if g.cut = f.cut && g.mode <> f.mode then
            Alcotest.failf "cut %d: %s in one run, %s in another" f.cut
              (Vdev_fault.mode_name f.mode)
              (Vdev_fault.mode_name g.mode))
        (thinned @ singles))
    full

(* Property: a random script workload crashed at a random point always
   recovers fsck-clean and oracle-consistent. *)
let prop_random_cut =
  QCheck.Test.make ~count:30 ~name:"random workload, random crash point"
    QCheck.(pair (int_bound 10_000) (int_bound 60))
    (fun (wseed, cut) ->
      let report =
        Crashtest.run ~seed:wseed ~cuts:[ cut ] lfs
          (Crashtest.script ~ops:30 ~seed:wseed ())
      in
      Crashtest.is_clean report)

(* Build the deterministic two-file scenario used by the checkpoint
   crash tests; returns the fault layer and the mounted fs. *)
let checkpoint_scenario ~seed ~mode_plan =
  let fault = Vdev_fault.create ~seed (Vdev.of_disk (Disk.create (Geometry.instant ~blocks:1024))) in
  let dev = Vdev_fault.vdev fault in
  Fs.format dev Helpers.test_config;
  let fs = Fs.mount dev in
  Fs.write_path fs "/one" (Bytes.of_string "first file");
  Fs.checkpoint fs;
  Fs.write_path fs "/two" (Bytes.of_string "second file");
  Fs.sync fs;
  mode_plan fault fs;
  (fault, dev)

(* Enumerate every crash point inside the checkpoint machinery itself —
   including the multi-block region write — under all three crash
   modes.  Recovery must fall back to the surviving region and roll the
   log forward: both files survive every cut. *)
let test_crash_inside_checkpoint () =
  (* Reference runs: how many blocks does the final checkpoint write? *)
  let before =
    let fault, _ = checkpoint_scenario ~seed:0 ~mode_plan:(fun _ _ -> ()) in
    Vdev_fault.blocks_written fault
  in
  let total =
    let fault, _ =
      checkpoint_scenario ~seed:0 ~mode_plan:(fun _ fs -> Fs.checkpoint fs)
    in
    Vdev_fault.blocks_written fault - before
  in
  Alcotest.(check bool) "checkpoint writes blocks" true (total > 0);
  List.iter
    (fun mode ->
      for cut = 0 to total - 1 do
        let fault, dev =
          checkpoint_scenario ~seed:0 ~mode_plan:(fun fault fs ->
              Vdev_fault.plan_crash fault ~mode ~after_blocks:cut ();
              match Fs.checkpoint fs with
              | () -> Alcotest.failf "cut %d never fired" cut
              | exception Vdev.Crashed -> ())
        in
        Vdev_fault.reboot fault;
        let fs2, _ = Fs.recover dev in
        Helpers.fsck_clean fs2;
        Helpers.check_bytes
          (Printf.sprintf "/one after %s cut %d" (Vdev_fault.mode_name mode) cut)
          (Bytes.of_string "first file")
          (Option.get (Fs.read_path fs2 "/one"));
        Helpers.check_bytes
          (Printf.sprintf "/two after %s cut %d" (Vdev_fault.mode_name mode) cut)
          (Bytes.of_string "second file")
          (Option.get (Fs.read_path fs2 "/two"))
      done)
    [ Vdev_fault.Torn; Vdev_fault.Dropped; Vdev_fault.Reordered ]

(* Bit-rot in the newest checkpoint region: its checksum fails, the
   older region takes over, and roll-forward recovers everything that
   was synced. *)
let test_checkpoint_bitrot_fallback () =
  let fault, dev = checkpoint_scenario ~seed:5 ~mode_plan:(fun _ fs -> Fs.checkpoint fs) in
  let layout = (Lfs_core.Superblock.load dev).Lfs_core.Superblock.layout in
  let region, _ =
    Option.get (Lfs_core.Checkpoint.read_latest layout dev)
  in
  let first_block =
    if region = 0 then layout.Lfs_core.Layout.ckpt_a
    else layout.Lfs_core.Layout.ckpt_b
  in
  Vdev_fault.rot_read fault ~addr:first_block;
  let region', _ = Option.get (Lfs_core.Checkpoint.read_latest layout dev) in
  Alcotest.(check bool) "fell back to the other region" true (region' <> region);
  let fs2, _ = Fs.recover dev in
  Helpers.fsck_clean fs2;
  Helpers.check_bytes "/one survives rot" (Bytes.of_string "first file")
    (Option.get (Fs.read_path fs2 "/one"));
  Helpers.check_bytes "/two survives rot" (Bytes.of_string "second file")
    (Option.get (Fs.read_path fs2 "/two"))

(* Write-rot reaches the medium once and is then visible to fsck. *)
let test_write_rot_detected () =
  let fault = Vdev_fault.create ~seed:1 (Vdev.of_disk (Disk.create (Geometry.instant ~blocks:64))) in
  let dev = Vdev_fault.vdev fault in
  let payload = Bytes.make (Vdev.block_size dev) 'q' in
  Vdev_fault.rot_write fault ~addr:7;
  Vdev.write_blocks dev 7 payload;
  let back = Vdev.read_blocks dev 7 1 in
  Alcotest.(check bool) "medium corrupted" false (Bytes.equal payload back);
  (* the rot plan was consumed: a rewrite heals the block *)
  Vdev.write_blocks dev 7 payload;
  Alcotest.(check bool) "rewrite heals" true
    (Bytes.equal payload (Vdev.read_blocks dev 7 1))

let suite =
  ( "crashtest",
    [
      Alcotest.test_case "smallfile: every crash point recovers" `Quick
        test_smallfile_every_point;
      Alcotest.test_case "script seeds (incl. inode-reuse regression)" `Quick
        test_script_seeds;
      Alcotest.test_case "ffs: harness reports, does not die" `Quick
        test_ffs_reports;
      Alcotest.test_case "crash mode independent of stride" `Quick
        test_mode_independent_of_stride;
      QCheck_alcotest.to_alcotest prop_random_cut;
      Alcotest.test_case "every crash point inside a checkpoint" `Quick
        test_crash_inside_checkpoint;
      Alcotest.test_case "checkpoint bit-rot falls back a region" `Quick
        test_checkpoint_bitrot_fallback;
      Alcotest.test_case "write bit-rot reaches the medium once" `Quick
        test_write_rot_detected;
    ] )
