(* Tests for the model-based crash refinement checker (lib/model): the
   pure model's semantics, the oracle's judgement, replay determinism,
   QCheck-driven random sequences with shrinking, proof that the checker
   rejects a subject without crash consistency, and fsck completeness
   against injected corruption the structural checks cannot see. *)

module M = Lfs_model.Fs_model
module Spec = Lfs_spec.Spec
module Opgen = Lfs_model.Opgen
module Refine = Lfs_model.Refine
module Fs = Lfs_core.Fs
module Fsck = Lfs_core.Fsck
module Layout = Lfs_core.Layout
module Filemap = Lfs_core.Filemap
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Vdev_fault = Lfs_disk.Vdev_fault
module Geometry = Lfs_disk.Geometry
module SL = (val Spec.subject (Spec.of_string "lfs"))
module SF = (val Spec.subject (Spec.of_string "ffs"))
module RL = Refine.Make (SL)
module RF = Refine.Make (SF)

let check_clean r =
  if not (Refine.seq_clean r) then
    Alcotest.failf "refinement not clean:@\n%a" Refine.pp_seq_report r

(* ------------------------------------------------------------------ *)
(* The pure model's transition semantics                               *)
(* ------------------------------------------------------------------ *)

let ok st op =
  match M.step st op with
  | Ok (st', _) -> st'
  | Error m -> Alcotest.failf "%s refused: %s" (M.op_to_string op) m

let refused st op =
  match M.step st op with
  | Ok _ -> Alcotest.failf "%s accepted" (M.op_to_string op)
  | Error _ -> ()

let test_step_semantics () =
  let st = M.empty in
  let st = ok st (M.Mkdir "/d") in
  refused st (M.Mkdir "/d");
  (* no implicit ancestor creation *)
  refused st (M.Create "/missing/f");
  let st = ok st (M.Create "/d/f") in
  refused st (M.Create "/d/f");
  (* truncate extends with zeros *)
  let st = ok st (M.Write { path = "/d/f"; off = 0; data = Bytes.make 3 'a' }) in
  let st = ok st (M.Truncate { path = "/d/f"; len = 5 }) in
  (match M.files st with
  | [ (p, c) ] ->
      Alcotest.(check string) "path" "/d/f" p;
      Alcotest.(check string) "zero-extended" "aaa\000\000" (Bytes.to_string c)
  | fs -> Alcotest.failf "expected one file, got %d" (List.length fs));
  (* directory renames refused; non-empty rmdir refused *)
  refused st (M.Rename { src = "/d"; dst = "/e" });
  refused st (M.Rmdir "/d");
  refused st (M.Rmdir "/");
  let st = ok st (M.Remove "/d/f") in
  let st = ok st (M.Rmdir "/d") in
  Alcotest.(check int) "empty again" 0 (List.length (M.files st))

(* ------------------------------------------------------------------ *)
(* The oracle's judgement on hand-built recovered states               *)
(* ------------------------------------------------------------------ *)

let tbl kvs =
  let t = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) kvs;
  t

let dirset ps = tbl (List.map (fun p -> (p, ())) ps)

let b s = Bytes.of_string s

let test_oracle_flags_durable_loss () =
  (* /f written and synced; a recovered state without it diverges. *)
  let events = [ (1, M.Efile ("/f", Some (b "abc"))) ] in
  let divs =
    M.check ~bs:4 ~events ~durable:1 ~upto:2 ~files:(tbl []) ~dirs:(dirset [ "" ])
  in
  Alcotest.(check bool) "flagged" true (divs <> []);
  (* the same state is fine while /f is still in the in-flight window *)
  let divs =
    M.check ~bs:4 ~events ~durable:0 ~upto:2 ~files:(tbl []) ~dirs:(dirset [ "" ])
  in
  Alcotest.(check (list string)) "window absence ok" [] divs

let test_oracle_flags_foreign_content () =
  let events =
    [ (1, M.Efile ("/f", Some (b "aaaa"))); (2, M.Efile ("/f", Some (b "bbbb"))) ]
  in
  let clean =
    M.check ~bs:2 ~events ~durable:1 ~upto:2
      ~files:(tbl [ ("/f", b "aabb") ]) (* block-mix of the two versions *)
      ~dirs:(dirset [ "" ])
  in
  Alcotest.(check (list string)) "mixed blocks ok" [] clean;
  let divs =
    M.check ~bs:2 ~events ~durable:1 ~upto:2
      ~files:(tbl [ ("/f", b "zzzz") ])
      ~dirs:(dirset [ "" ])
  in
  Alcotest.(check bool) "foreign content flagged" true (divs <> []);
  let divs =
    M.check ~bs:2 ~events ~durable:1 ~upto:2
      ~files:(tbl [ ("/g", b "aaaa") ])
      ~dirs:(dirset [ "" ])
  in
  Alcotest.(check bool) "never-written path flagged" true (divs <> [])

let test_oracle_rename_rollback () =
  (* rename in the window: the dirent can persist while the moved
     inode's data rolls back to content it held under the old name. *)
  let events =
    [
      (1, M.Efile ("/src", Some (b "old!")));
      (2, M.Efile ("/src", Some (b "new!")));
      (3, M.Erename { src = "/src"; dst = "/dst" });
      (3, M.Efile ("/dst", Some (b "new!")));
      (3, M.Efile ("/src", None));
    ]
  in
  let ok files =
    M.check ~bs:4 ~events ~durable:1 ~upto:3 ~files ~dirs:(dirset [ "" ])
  in
  Alcotest.(check (list string)) "pre-rename version under new name ok" []
    (ok (tbl [ ("/dst", b "old!") ]));
  Alcotest.(check (list string)) "latest version under new name ok" []
    (ok (tbl [ ("/dst", b "new!") ]));
  Alcotest.(check bool) "foreign content still flagged" true
    (ok (tbl [ ("/dst", b "!!!!") ]) <> [])

(* ------------------------------------------------------------------ *)
(* Refinement runs: determinism and random sequences                   *)
(* ------------------------------------------------------------------ *)

(* A (seed, seq, cut) triple must replay bit-identically: same crash
   mode, same divergences (none here), same report. *)
let test_replay_deterministic () =
  let ops = Opgen.sequence ~seed:7 ~seq:3 ~nops:40 in
  let run () = RL.check_ops ~io_depth:4 ~cuts:[ 9; 17 ] ~seed:7 ~seq:3 ops in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "two runs identical" true (r1 = r2);
  Alcotest.(check bool) "probed at least one cut" true (r1.Refine.points > 0);
  Alcotest.(check int) "every probed cut crashed" r1.Refine.points
    r1.Refine.crashes;
  check_clean r1

(* Random sequences from the CLI generator at strided crash points. *)
let test_generated_sequences () =
  for seq = 0 to 2 do
    let ops = Opgen.sequence ~seed:13 ~seq ~nops:40 in
    check_clean (RL.check_ops ~io_depth:4 ~stride:7 ~seed:13 ~seq ops)
  done

(* QCheck: arbitrary op sequences must refine the model at every probed
   crash point.  On failure QCheck's list shrinker drops ops to report
   a minimal counterexample sequence. *)
let op_gen =
  QCheck.Gen.(
    let file = oneofl [ "/f0"; "/f1"; "/d0/f0"; "/d0/f1" ] in
    let dir = oneofl [ "/d0"; "/d1" ] in
    frequency
      [
        (2, map (fun p -> M.Create p) file);
        (2, map (fun p -> M.Mkdir p) dir);
        ( 4,
          map3
            (fun p off (len, ch) ->
              M.Write { path = p; off; data = Bytes.make len ch })
            file (int_bound 3_000)
            (pair (int_range 1 5_000) (char_range 'a' 'z')) );
        ( 2,
          map2 (fun p len -> M.Truncate { path = p; len }) file (int_bound 5_000)
        );
        (1, map2 (fun s d -> M.Rename { src = s; dst = d }) file file);
        (2, map (fun p -> M.Remove p) file);
        (1, map (fun p -> M.Rmdir p) dir);
        (2, return M.Sync);
      ])

let prop_random_sequences =
  QCheck.Test.make ~count:12 ~name:"random op sequence refines the model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map M.op_to_string ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 30) op_gen))
    (fun ops ->
      Refine.seq_clean (RL.check_ops ~io_depth:4 ~stride:11 ~seed:3 ops))

(* The checker must reject a subject without crash consistency: FFS
   writes metadata in place and has no recovery protocol, so random
   sequences diverge.  (If this ever passes cleanly the checker has
   gone vacuous — exactly what it guards against.) *)
let test_checker_rejects_ffs () =
  let divergent = ref 0 in
  for seq = 0 to 2 do
    let ops = Opgen.sequence ~seed:2 ~seq ~nops:60 in
    let r = RF.check_ops ~io_depth:1 ~stride:4 ~seed:2 ~seq ops in
    if not (Refine.seq_clean r) then incr divergent
  done;
  Alcotest.(check bool) "ffs diverges" true (!divergent > 0)

(* ------------------------------------------------------------------ *)
(* Group-commit durability frontier (regression)                       *)
(* ------------------------------------------------------------------ *)

(* The frontier must advance when a sync's IO *completes*, not when ops
   are accepted.  Verifying with the recorder's frontier is clean at
   every crash point; pretending every op executed before the crash was
   durable must flag a divergence at some point — if it never does, the
   distinction has stopped being load-bearing and an "acked but not yet
   synced to disk" bug could slip through. *)
let test_frontier_is_sync_completion () =
  let ops = Opgen.sequence ~seed:1 ~seq:2 ~nops:40 in
  let driver = RL.scripted ~io_depth:4 ops in
  let reference = RL.once ~blocks:1024 ~seed:1 driver in
  let naive_flagged = ref false in
  let cut = ref (reference.RL.total - 1) in
  while (not !naive_flagged) && !cut >= 0 do
    let correct = RL.once ~blocks:1024 ~seed:1 ~cut:!cut driver in
    if correct.RL.crashed then begin
      (match RL.verify correct with
      | None -> ()
      | Some (stage, detail) ->
          Alcotest.failf "cut %d not clean with true frontier: %s %s" !cut
            stage detail);
      let naive = RL.once ~blocks:1024 ~seed:1 ~cut:!cut driver in
      let trace = naive.RL.trace in
      match
        RL.verify
          { naive with RL.trace = { trace with Refine.durable = trace.Refine.upto } }
      with
      | Some ("oracle", _) -> naive_flagged := true
      | _ -> ()
    end;
    decr cut
  done;
  Alcotest.(check bool) "acked-but-unsynced ops are not durable" true
    !naive_flagged

(* ------------------------------------------------------------------ *)
(* Commit-order crash countdown under queued submission (regression)   *)
(* ------------------------------------------------------------------ *)

(* Under Queued mode the fault countdown must tick as the elevator
   commits blocks, not as the client submits them: a crash point then
   cuts the durable prefix in commit order, which is what recovery sees
   on real hardware.  Submit three single-block writes with a 2-block
   [Dropped] countdown armed — nothing fires at submission; the drain
   commits one block, and the cut drops the second write whole. *)
let test_queued_countdown_commit_order () =
  let lower = Vdev.of_disk (Disk.create (Geometry.instant ~blocks:64)) in
  let fault = Vdev_fault.create ~seed:0 lower in
  let dev = Vdev_fault.vdev fault in
  let bs = dev.Vdev.block_size in
  let now = ref 0.0 in
  Vdev.set_mode dev (Vdev.Queued (fun () -> !now));
  Vdev_fault.plan_crash fault ~mode:Vdev_fault.Dropped ~after_blocks:2 ();
  let payload c = Bytes.make bs c in
  Vdev.write_blocks dev 10 (payload 'a');
  Vdev.write_blocks dev 11 (payload 'b');
  Vdev.write_blocks dev 12 (payload 'c');
  (* all three submissions were accepted without firing the cut *)
  Alcotest.(check int) "countdown counts commits, not submissions" 3
    (Vdev_fault.blocks_written fault);
  (match Vdev.drain dev with
  | _ -> Alcotest.fail "drain must hit the armed crash"
  | exception Vdev.Crashed -> ());
  Vdev_fault.reboot fault;
  Vdev.set_mode dev Vdev.Direct;
  let survived =
    List.filter
      (fun addr -> Bytes.get (Vdev.read_block dev addr) 0 <> '\000')
      [ 10; 11; 12 ]
  in
  Alcotest.(check (list int)) "commit-order prefix survived" [ 10 ]
    survived

(* ------------------------------------------------------------------ *)
(* Fsck completeness: corruption the structural checks cannot see      *)
(* ------------------------------------------------------------------ *)

(* A small LFS with one multi-block file; returns the fs, its device
   and the address of a live data block. *)
let fs_with_live_block () =
  let dev = Vdev.of_disk (Disk.create (Geometry.instant ~blocks:1024)) in
  Fs.format dev Spec.small_config;
  let fs = Fs.mount dev in
  let ino = Fs.create fs ~dir:Fs.root "f" in
  Fs.write fs ino ~off:0 (Bytes.make 10_000 'x');
  Fs.sync fs;
  let addr = ref (-1) in
  Fs.with_handle fs ino (fun _ fmap ->
      Filemap.iter_mapped fmap (fun _ a -> if !addr < 0 then addr := a));
  Alcotest.(check bool) "found a live data block" true (!addr >= 0);
  (fs, dev, !addr)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let assert_flags what needle report =
  if not (List.exists (fun e -> contains e needle) report.Fsck.errors) then
    Alcotest.failf "%s not flagged; errors: [%s]" what
      (String.concat "; " report.Fsck.errors)

let test_fsck_clean_baseline () =
  let fs, _, _ = fs_with_live_block () in
  let r = Fsck.check fs in
  Alcotest.(check (list string)) "clean" [] r.Fsck.errors

let test_fsck_flags_bitrot () =
  let fs, dev, addr = fs_with_live_block () in
  (* flip one byte of a live data block behind the filesystem's back *)
  let blk = Vdev.read_block dev addr in
  Bytes.set blk 100 (if Bytes.get blk 100 = 'x' then 'y' else 'x');
  Vdev.write_block dev addr blk;
  assert_flags "bit rot" "payload checksum" (Fsck.check fs)

let test_fsck_flags_truncated_chain () =
  let fs, dev, addr = fs_with_live_block () in
  (* smash the summary block at the head of the live block's segment:
     the chain no longer reaches the live blocks behind it *)
  let layout = Fs.layout fs in
  let seg = Layout.seg_of_block layout addr in
  let first = Layout.seg_first_block layout seg in
  Vdev.write_block dev first (Bytes.make layout.Layout.block_size '\255');
  assert_flags "truncated chain" "not covered by any summary chain"
    (Fsck.check fs)

(* Every composition of log heads, tiering and sharding refines the
   model: shapes that no single-feature subject could express, built by
   the same recipe the tools use, under buffer poisoning so a recycled
   buffer used after its give diverges the sweep. *)
let test_recipe_product_refines =
  Helpers.poisoned @@ fun () ->
  List.iter
    (fun spec ->
      let module S = (val Spec.subject (Spec.of_string spec)) in
      let module R = Refine.Make (S) in
      let r = R.check_seq ~io_depth:4 ~stride:9 ~seed:4 ~nops:40 ~seq:0 () in
      Alcotest.(check string) "subject is the recipe" spec r.Refine.subject;
      Alcotest.(check bool) (spec ^ " probed cuts") true (r.Refine.crashes > 0);
      check_clean r)
    [
      "lfs";
      "lfs:heads=2";
      "lfs:tier:25:promote=2";
      "lfs:heads=2:tier:25:promote=2";
      "shard:2:by_hash";
      "shard:2:by_hash:heads=2";
      "shard:2:by_hash:tier:25:promote=2";
      "shard:2:by_hash:heads=2:tier:25:promote=2";
      "shard:2:by_subtree:heads=2:tier:25:promote=2";
    ]

(* Seed 2's sequence 4 frees ino 2 (remove /f0), reuses it for /f2,
   renames /d3/f2 over /f2 and removes /f2, all between two syncs, with
   short-lived files reusing inos in between.  The renamed file never
   reached the log because it died, not because of the crash, so the
   rename-over's Remove of /f2 must apply; and the later creates and
   removes that reuse ino 2 name a lost incarnation that must not touch
   ino 2.  Roll-forward used to keep /f2's entry and then free its
   inode ("no such inode 2" in the orphan walk). *)
let test_rename_over_reused_ino () =
  check_clean (RL.check_seq ~io_depth:4 ~stride:1 ~seed:2 ~seq:4 ())

(* /src is renamed over a synced /dst, then /g is created (reusing
   /dst's freed ino) and removed, all in one flush; an 11-block file
   before it places the flush so that cuts 24-26 keep its dir-log
   records but not /src's inode.  The rename never completed, so /dst
   keeps its ino, and /g's create and remove name a lost incarnation
   that must leave that ino alone (it used to free it under /dst). *)
let test_lost_incarnation_after_dead_rename () =
  let write path n c = M.Write { path; off = 0; data = Bytes.make n c } in
  check_clean
    (RL.check_ops ~io_depth:4 ~stride:1 ~seed:11
       M.
         [
           Create "/dst"; write "/dst" 100 'd'; Sync;
           Create "/pad"; write "/pad" (11 * 4096) 'p'; Sync;
           Create "/src"; write "/src" 100 's'; Rename { src = "/src"; dst = "/dst" };
           Create "/g"; Remove "/g"; Sync;
         ])

let suite =
  ( "model",
    [
      Alcotest.test_case "step semantics" `Quick test_step_semantics;
      Alcotest.test_case "oracle flags durable loss" `Quick
        test_oracle_flags_durable_loss;
      Alcotest.test_case "oracle flags foreign content" `Quick
        test_oracle_flags_foreign_content;
      Alcotest.test_case "oracle accepts rename rollback" `Quick
        test_oracle_rename_rollback;
      Alcotest.test_case "replay is deterministic" `Quick
        test_replay_deterministic;
      Alcotest.test_case "generated sequences refine" `Slow
        test_generated_sequences;
      QCheck_alcotest.to_alcotest ~long:true prop_random_sequences;
      Alcotest.test_case "checker rejects ffs" `Slow test_checker_rejects_ffs;
      Alcotest.test_case "frontier is sync completion" `Slow
        test_frontier_is_sync_completion;
      Alcotest.test_case "queued countdown in commit order" `Quick
        test_queued_countdown_commit_order;
      Alcotest.test_case "fsck baseline clean" `Quick test_fsck_clean_baseline;
      Alcotest.test_case "fsck flags bit rot" `Quick test_fsck_flags_bitrot;
      Alcotest.test_case "fsck flags truncated chain" `Quick
        test_fsck_flags_truncated_chain;
      Alcotest.test_case "recipe product refines the model" `Quick
        test_recipe_product_refines;
      Alcotest.test_case "rename over a reused ino" `Quick
        test_rename_over_reused_ino;
      Alcotest.test_case "lost incarnation after a dead rename" `Quick
        test_lost_incarnation_after_dead_rename;
    ] )
