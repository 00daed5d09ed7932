(* Crash-recovery tests: roll-forward of data, inodes and directory
   operations; torn writes; crash injection at arbitrary points. *)

module Fs = Lfs_core.Fs
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Types = Lfs_core.Types
module Config = Lfs_core.Config
module Layout = Lfs_core.Layout
module Summary = Lfs_core.Summary
module Checkpoint = Lfs_core.Checkpoint
module Recovery = Lfs_core.Recovery
module Log_writer = Lfs_core.Log_writer
module Dir_log = Lfs_core.Dir_log
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

(* {2 The roll-forward digest, from hand-built log writes} *)

let digest_layout = Layout.compute Helpers.test_config ~disk_blocks:1024

(* A log write at [seq] (in segment [seq], slot 0) carrying [records] in
   one dir-log block, [data] data blocks and a copy of each of [inos] in
   one inode block, in that order. *)
let hand_write ~seq ?(records = []) ?(data = 0) ?(inos = []) () =
  let bs = digest_layout.Layout.block_size in
  let entry kind = { Summary.kind; ino = 0; blockno = 0; version = 0; mtime = 0.0 } in
  let dirlog =
    match Dir_log.encode_blocks ~block_size:bs records with
    | [] -> []
    | [ b ] -> [ (entry Types.Dir_log, Some b) ]
    | _ -> Alcotest.fail "hand-built records span blocks"
  in
  let inode_block =
    if inos = [] then []
    else begin
      let b = Bytes.make bs '\000' in
      List.iteri
        (fun slot ino ->
          Lfs_core.Inode.encode
            (Lfs_core.Inode.create ~ino ~ftype:Types.Regular ~mtime:0.0)
            b ~slot)
        inos;
      [ (entry Types.Inode_block, Some b) ]
    end
  in
  let parts =
    dirlog @ List.init data (fun _ -> (entry Types.Data, None)) @ inode_block
  in
  {
    Recovery.summary =
      {
        Summary.seq;
        seg = seq;
        slot = 0;
        next_seg = seq + 1;
        timestamp = 0.0;
        payload_sum = 0;
        entries = List.map fst parts;
      };
    blocks =
      List.concat
        (List.mapi (fun i (_, b) -> Option.to_list (Option.map (fun b -> (i, b)) b)) parts);
  }

let digest writes = Recovery.digest digest_layout writes

let facts d =
  List.map (fun o -> (o.Recovery.stale_add, o.Recovery.survives_reuse)) d.Recovery.dirops

let dir = Types.root_ino
let remove ?(nlink = 0) name ino = Dir_log.Remove { dir; name; ino; nlink }
let add ?(fresh = true) name ino = Dir_log.Add { dir; name; ino; nlink = 1; fresh }

(* Ino 5 dies, then a create reuses it.  Its only copy (seq 9) is the
   dead incarnation's: the create's own inode never reached the log. *)
let test_digest_stale_fresh_add () =
  let d =
    digest
      [
        hand_write ~seq:9 ~inos:[ 5 ] ();
        hand_write ~seq:10 ~records:[ remove "a" 5 ] ();
        hand_write ~seq:11 ~records:[ add "b" 5; add "c" 6 ] ();
      ]
  in
  Alcotest.(check (list (pair bool bool))) "only the reusing create is stale"
    [ (false, false); (true, false); (false, false) ]
    (facts d);
  let d =
    digest
      [
        hand_write ~seq:10 ~records:[ remove "a" 5 ] ();
        hand_write ~seq:11 ~records:[ add "b" 5 ] ~inos:[ 5 ] ();
      ]
  in
  Alcotest.(check (list (pair bool bool)))
    "a copy in the create's write is the new incarnation"
    [ (false, true); (false, false) ]
    (facts d);
  let d = digest [ hand_write ~seq:10 ~records:[ add ~fresh:false "l" 5; remove ~nlink:1 "a" 5; add "b" 5 ] () ] in
  Alcotest.(check (list (pair bool bool)))
    "no earlier free, no stale create"
    [ (false, false); (false, false); (false, false) ]
    (facts d)

(* A Remove whose ino a later create reuses survives reuse only when a
   copy of the new incarnation reached the log. *)
let test_digest_remove_survives_reuse () =
  let writes ~copy_seq =
    [
      hand_write ~seq:9 ~inos:[ 5 ] ();
      hand_write ~seq:10 ~records:[ remove "a" 5 ] ();
      hand_write ~seq:11 ~records:[ add "b" 5 ] ();
    ]
    @ Option.to_list (Option.map (fun seq -> hand_write ~seq ~inos:[ 5 ] ()) copy_seq)
  in
  Alcotest.(check (list (pair bool bool))) "copy after the create: survives"
    [ (false, true); (false, false) ]
    (facts (digest (writes ~copy_seq:(Some 12))));
  Alcotest.(check (list (pair bool bool))) "no later copy: the Remove applies"
    [ (false, false); (true, false) ]
    (facts (digest (writes ~copy_seq:None)));
  let d = digest (writes ~copy_seq:(Some 12)) in
  (* Write 12's inode block is its first payload block. *)
  let copy12 =
    Types.Iaddr.make ~block:(Layout.seg_first_block digest_layout 12 + 1) ~slot:0
  in
  Alcotest.(check (list (pair int int))) "the latest copy of 5 wins"
    [ (5, Types.Iaddr.to_int copy12) ]
    (List.map (fun (i, a) -> (i, Types.Iaddr.to_int a)) d.Recovery.inodes)

(* A rename onto an existing name logs (Remove old-dst, Rename); replay
   looks at the pair, so the digest keeps them adjacent in log order even
   when they arrive in different writes. *)
let test_digest_remove_then_rename () =
  let rename = Dir_log.Rename { odir = dir; oname = "src"; ndir = dir; nname = "dst"; ino = 7 } in
  let d =
    digest
      [
        hand_write ~seq:10 ~records:[ add "src" 7; remove "dst" 6 ] ();
        hand_write ~seq:11 ~records:[ rename ] ~inos:[ 7 ] ();
      ]
  in
  Alcotest.(check (list string)) "log order"
    (List.map (Fmt.to_to_string Dir_log.pp_record) [ add "src" 7; remove "dst" 6; rename ])
    (List.map (fun o -> Fmt.to_to_string Dir_log.pp_record o.Recovery.op) d.Recovery.dirops);
  Alcotest.(check (list (pair bool bool))) "no reuse, nothing stale"
    [ (false, false); (false, false); (false, false) ]
    (facts d)

(* Recovery's report counts exactly what the digest of the scan holds. *)
let test_digest_matches_report () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/n%d" i) (Bytes.make 6000 'n')
  done;
  Fs.unlink fs ~dir:Fs.root "n3";
  Fs.rename fs ~odir:Fs.root "n4" ~ndir:Fs.root "n5";
  Fs.sync fs;
  let vdev = Helpers.vdev disk in
  let layout = Fs.layout fs in
  let _, ckpt = Option.get (Checkpoint.read_latest layout vdev) in
  let scan = Recovery.scan layout vdev ~ckpt in
  let d = Recovery.digest layout scan.Recovery.writes in
  let _, report = Fs.recover vdev in
  Alcotest.(check int) "inodes" report.Fs.inodes_recovered (List.length d.Recovery.inodes);
  Alcotest.(check int) "data blocks" report.Fs.data_blocks_recovered d.Recovery.data_blocks;
  Alcotest.(check int) "dir ops" report.Fs.dirops_applied (List.length d.Recovery.dirops);
  Alcotest.(check int) "writes" report.Fs.writes_replayed (List.length scan.Recovery.writes);
  Alcotest.(check bool) "non-trivial" true
    (d.Recovery.data_blocks > 0 && List.length d.Recovery.dirops >= 12)

(* Geometry is fixed at format time: both ways onto a volume refuse a
   config that would reinterpret it. *)
let test_geometry_overrides_rejected () =
  let disk, _ = Helpers.fresh_fs () in
  let overrides =
    [
      ("log_heads", { Helpers.test_config with Config.log_heads = 2 });
      ("seg_blocks", { Helpers.test_config with Config.seg_blocks = 64 });
      ("max_inodes", { Helpers.test_config with Config.max_inodes = 1024 });
    ]
  in
  List.iter
    (fun (field, config) ->
      let rejected name f =
        match f () with
        | () -> Alcotest.failf "%s accepted a %s override" name field
        | exception Invalid_argument _ -> ()
      in
      rejected "mount" (fun () -> ignore (Fs.mount ~config (Helpers.vdev disk)));
      rejected "recover" (fun () ->
          ignore (Fs.recover ~config (Helpers.vdev disk))))
    overrides

(* A stale summary (lower seq) planted just past a segment's live tail
   is where the summary walkers' own rules part ways: roll-forward's
   sequence floor and fsck's stop there, while the cleaner applies no
   sequence rule and walks into it: it reads 12 blocks with the plant,
   where stopping at the stale summary would read 10. *)
let stale_summary layout ~(at : Log_writer.position) ~seq ~payload_sum entries =
  Summary.encode ~block_size:layout.Layout.block_size
    {
      Summary.seq;
      seg = at.Log_writer.seg;
      slot = at.Log_writer.off;
      next_seg = at.Log_writer.next_seg;
      timestamp = 0.0;
      payload_sum;
      entries;
    }

let entry kind =
  { Summary.kind; ino = 7; blockno = 0; version = 0; mtime = 0.0 }

let plant dev layout (at : Log_writer.position) summary =
  Vdev.write_block dev (Layout.seg_first_block layout at.Log_writer.seg + at.Log_writer.off)
    summary

let test_stale_summary_past_tail_rollforward () =
  let disk, fs = Helpers.fresh_fs () in
  let dev = Helpers.vdev disk in
  let layout = Fs.layout fs in
  Fs.write_path fs "/a" (Bytes.make 5000 'a');
  Fs.checkpoint fs;
  Fs.write_path fs "/b" (Bytes.make 5000 'b');
  Fs.sync fs;
  let _, ck = Option.get (Checkpoint.read_latest layout dev) in
  let scan = Recovery.scan layout dev ~ckpt:ck in
  let tail = scan.Recovery.tails.(0) in
  Alcotest.(check bool) "post-checkpoint writes to roll forward" true
    (scan.Recovery.writes <> []);
  Alcotest.(check bool) "room past the tail" true
    (tail.Log_writer.off <= layout.Layout.seg_blocks - 2);
  (* Its seq is the checkpoint's, below the chain's last, and its payload
     checksum matches what lies behind it: only the floor rejects it. *)
  let behind =
    Vdev.read_blocks dev
      (Layout.seg_first_block layout tail.Log_writer.seg + tail.Log_writer.off + 1)
      1
  in
  plant dev layout tail
    (stale_summary layout ~at:tail ~seq:ck.Checkpoint.log_seq
       ~payload_sum:(Summary.payload_checksum behind)
       [ entry Types.Data ]);
  Helpers.fsck_clean fs;
  let fs2, report = Fs.recover dev in
  Alcotest.(check int) "roll-forward ignores the stale write"
    (List.length scan.Recovery.writes) report.Fs.writes_replayed;
  Helpers.check_bytes "post-checkpoint file" (Bytes.make 5000 'b')
    (Option.get (Fs.read_path fs2 "/b"));
  Helpers.fsck_clean fs2

let test_stale_summary_past_tail_cleaner () =
  let config =
    {
      Helpers.test_config with
      Config.cleaner_read = Config.Live_blocks;
      bg_clean_start = 100;
      bg_clean_stop = 102;
    }
  in
  let disk, fs = Helpers.fresh_fs ~config () in
  let dev = Helpers.vdev disk in
  let layout = Fs.layout fs in
  Fs.write_path fs "/f" (Bytes.make 5000 'f');
  Fs.checkpoint fs;
  let region, ck = Option.get (Checkpoint.read_latest layout dev) in
  let h = ck.Checkpoint.heads.(0) in
  Alcotest.(check (list int)) "head still in its first segment" [ 0; 1 ]
    [ h.Log_writer.seg; h.Log_writer.next_seg ];
  plant dev layout h
    (stale_summary layout ~at:h ~seq:0 ~payload_sum:0
       [ entry Types.Inode_block; entry Types.Data ]);
  (* Move the head on to its reservation, as if it had filled segment 0,
     so segment 0 — the only one with live data — becomes the victim. *)
  Checkpoint.write layout dev ~region
    {
      ck with
      Checkpoint.heads = [| { Log_writer.seg = 1; off = 0; next_seg = 2 } |];
    };
  let fs = Fs.mount ~config dev in
  let read () = Helpers.fs_total fs "fs.cleaner.blocks_read" in
  let before = read () in
  ignore (Fs.clean_step ~max_segments:1 fs);
  Alcotest.(check int) "segment 0 cleaned" 0 (Fs.segment_live_bytes fs 0);
  Alcotest.(check int) "blocks the cleaner read" 12 (read () - before);
  Helpers.check_bytes "file survives" (Bytes.make 5000 'f')
    (Option.get (Fs.read_path fs "/f"));
  Helpers.fsck_clean fs

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
      Alcotest.test_case "digest: stale fresh add" `Quick test_digest_stale_fresh_add;
      Alcotest.test_case "digest: remove survives reuse" `Quick
        test_digest_remove_survives_reuse;
      Alcotest.test_case "digest: remove then rename" `Quick
        test_digest_remove_then_rename;
      Alcotest.test_case "digest matches the report" `Quick test_digest_matches_report;
      Alcotest.test_case "geometry overrides rejected" `Quick
        test_geometry_overrides_rejected;
      Alcotest.test_case "stale summary: roll-forward, fsck" `Quick
        test_stale_summary_past_tail_rollforward;
      Alcotest.test_case "stale summary: cleaner reads" `Quick
        test_stale_summary_past_tail_cleaner;
    ] )
