(* Tests for the cleaning policies (pure) and the full cleaning machinery
   under space pressure. *)

module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Cleaner = Lfs_core.Cleaner
module Fs_stats = Lfs_core.Fs_stats
module Prng = Lfs_util.Prng

(* ----- Policy math ----- *)

let cand seg u age = { Cleaner.seg; u; age }

let test_benefit_cost_formula () =
  Alcotest.(check (float 1e-9)) "(1-u)*age/(1+u)"
    (0.5 *. 100.0 /. 1.5)
    (Cleaner.benefit_cost (cand 0 0.5 100.0));
  Alcotest.(check (float 1e-9)) "full segment worthless" 0.0
    (Cleaner.benefit_cost (cand 0 1.0 1e9))

let test_greedy_picks_least_utilized () =
  let cands = [ cand 0 0.9 1.0; cand 1 0.1 1.0; cand 2 0.5 1.0 ] in
  Alcotest.(check (list int)) "order by u" [ 1; 2 ]
    (Cleaner.select ~policy:Config.Greedy ~candidates:cands ~count:2 ())

let test_cost_benefit_prefers_old_cold () =
  (* An old segment at moderate utilisation beats a young empty-ish one
     (the paper's key insight). *)
  let old_cold = cand 0 0.75 10_000.0 in
  let young_hot = cand 1 0.3 10.0 in
  Alcotest.(check (list int)) "old cold first" [ 0; 1 ]
    (Cleaner.select ~policy:Config.Cost_benefit
       ~candidates:[ young_hot; old_cold ] ~count:2 ())

let test_empty_segments_always_first () =
  let cands = [ cand 0 0.9 1e9; cand 1 0.0 0.0; cand 2 0.2 5.0 ] in
  List.iter
    (fun policy ->
      match Cleaner.select ~policy ~rand:(fun n -> n / 2) ~candidates:cands ~count:1 () with
      | [ 1 ] -> ()
      | other ->
          Alcotest.failf "policy %s picked %s"
            (Config.cleaning_policy_name policy)
            (String.concat "," (List.map string_of_int other)))
    [ Config.Greedy; Config.Cost_benefit; Config.Age_only; Config.Random_victim ]

let test_age_only_policy () =
  let cands = [ cand 0 0.5 10.0; cand 1 0.5 100.0; cand 2 0.5 50.0 ] in
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 0 ]
    (Cleaner.select ~policy:Config.Age_only ~candidates:cands ~count:3 ())

let test_select_respects_count () =
  let cands = List.init 10 (fun i -> cand i 0.5 1.0) in
  Alcotest.(check int) "count cap" 4
    (List.length (Cleaner.select ~policy:Config.Greedy ~candidates:cands ~count:4 ()))

let test_random_requires_rand () =
  match
    Cleaner.select ~policy:Config.Random_victim
      ~candidates:[ cand 0 0.5 1.0 ] ~count:1 ()
  with
  | _ -> Alcotest.fail "should require ~rand"
  | exception Invalid_argument _ -> ()

let test_random_victim_deterministic () =
  let cands = List.init 8 (fun i -> cand i (0.1 +. (0.1 *. float_of_int i)) 1.0) in
  let run () =
    let prng = Prng.create ~seed:9 in
    Cleaner.select ~policy:Config.Random_victim
      ~rand:(fun n -> Prng.int prng n)
      ~candidates:cands ~count:8 ()
  in
  let a = run () and b = run () in
  Alcotest.(check (list int)) "pinned seed replays the same order" a b;
  Alcotest.(check (list int)) "a permutation of the candidates"
    (List.init 8 Fun.id)
    (List.sort compare a)

let test_select_count_exceeds_candidates () =
  let cands = [ cand 0 0.5 1.0; cand 1 0.2 1.0; cand 2 0.8 1.0 ] in
  let prng = Prng.create ~seed:9 in
  List.iter
    (fun policy ->
      let picked =
        Cleaner.select ~policy
          ~rand:(fun n -> Prng.int prng n)
          ~candidates:cands ~count:10 ()
      in
      Alcotest.(check (list int))
        (Config.cleaning_policy_name policy ^ " returns everything, once")
        [ 0; 1; 2 ]
        (List.sort compare picked))
    [ Config.Greedy; Config.Cost_benefit; Config.Age_only; Config.Random_victim ]

let test_select_empty_candidates () =
  List.iter
    (fun policy ->
      Alcotest.(check (list int))
        (Config.cleaning_policy_name policy ^ " on no candidates")
        []
        (Cleaner.select ~policy ~rand:(fun n -> n / 2) ~candidates:[] ~count:4 ()))
    [ Config.Greedy; Config.Cost_benefit; Config.Age_only; Config.Random_victim ]

let test_tie_break_is_stable () =
  (* Equal keys keep submission order (stable sort), so victim choice
     does not depend on unrelated candidate-list churn. *)
  let ties = [ cand 7 0.5 40.0; cand 3 0.5 40.0; cand 5 0.5 40.0 ] in
  Alcotest.(check (list int)) "greedy keeps input order on equal u"
    [ 7; 3; 5 ]
    (Cleaner.select ~policy:Config.Greedy ~candidates:ties ~count:3 ());
  Alcotest.(check (list int)) "cost-benefit keeps input order on equal ratio"
    [ 7; 3; 5 ]
    (Cleaner.select ~policy:Config.Cost_benefit ~candidates:ties ~count:3 ())

(* The decorate-sort-undecorate rewrite (with its top-k fast path) must
   order victims exactly like the original sort-everything
   implementation: empties first in submission order, then ascending
   key with submission-order tie-break.  Checked against a straight
   reference re-implementation across list shapes that exercise both
   the top-k path (count << candidates) and the full sort. *)
let reference_select ~policy ~candidates ~count =
  let key =
    match policy with
    | Config.Greedy -> fun c -> c.Cleaner.u
    | Config.Cost_benefit -> fun c -> -.Cleaner.benefit_cost c
    | Config.Age_only -> fun c -> -.c.Cleaner.age
    | Config.Random_victim -> invalid_arg "reference_select: random"
  in
  let empty, nonempty = List.partition (fun c -> c.Cleaner.u = 0.0) candidates in
  let ordered =
    List.stable_sort (fun a b -> compare (key a) (key b)) nonempty
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take count (List.map (fun c -> c.Cleaner.seg) (empty @ ordered))

let test_select_matches_reference () =
  let prng = Prng.create ~seed:21 in
  for trial = 1 to 50 do
    let n = 1 + Prng.int prng 40 in
    let candidates =
      List.init n (fun i ->
          (* Coarse buckets force plenty of exact key ties. *)
          cand i
            (float_of_int (Prng.int prng 5) /. 4.0)
            (float_of_int (Prng.int prng 4) *. 10.0))
    in
    List.iter
      (fun policy ->
        List.iter
          (fun count ->
            Alcotest.(check (list int))
              (Printf.sprintf "trial %d: %s, %d of %d" trial
                 (Config.cleaning_policy_name policy)
                 count n)
              (reference_select ~policy ~candidates ~count)
              (Cleaner.select ~policy ~candidates ~count ()))
          [ 1; 2; n / 4; n / 2; n; n + 3 ])
      [ Config.Greedy; Config.Cost_benefit; Config.Age_only ]
  done

let test_grouping_age_sort () =
  let items = [ ("young", 5.0); ("ancient", 100.0); ("mid", 50.0) ] in
  Alcotest.(check (list string)) "oldest first"
    [ "ancient"; "mid"; "young" ]
    (Cleaner.order_for_grouping ~grouping:Config.Age_sort items);
  Alcotest.(check (list string)) "in order preserved"
    [ "young"; "ancient"; "mid" ]
    (Cleaner.order_for_grouping ~grouping:Config.In_order items)

(* ----- Full-FS cleaning ----- *)

let churn fs prng ~files ~rounds ~size =
  for i = 0 to files - 1 do
    Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make size 'i')
  done;
  for _ = 1 to rounds do
    let i = Prng.int prng files in
    Fs.write_path fs (Printf.sprintf "/f%d" i)
      (Bytes.make (size + Prng.int prng 1024) 'c')
  done

let test_cleaning_triggers_and_reclaims () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  let prng = Prng.create ~seed:5 in
  churn fs prng ~files:40 ~rounds:200 ~size:60_000;
  (* Single-block overwrites fragment segments so the cleaner has to
     read live data, not just reuse self-emptied segments. *)
  for _ = 1 to 600 do
    let i = Prng.int prng 40 in
    match Fs.resolve fs (Printf.sprintf "/f%d" i) with
    | Some ino ->
        Fs.write fs ino ~off:(4096 * Prng.int prng 14) (Bytes.make 4096 'z')
    | None -> ()
  done;
  Alcotest.(check bool) "cleaner ran" true
    (Helpers.fs_total fs "fs.cleaner.segments_cleaned" > 0);
  Alcotest.(check bool) "cleaner read segments" true
    (Helpers.fs_total fs "fs.cleaner.blocks_read" > 0);
  let cost = Fs_stats.write_cost (Fs.metrics fs) in
  Alcotest.(check bool) "write cost sane" true (cost >= 1.0 && cost < 20.0);
  Helpers.fsck_clean fs

let test_contents_survive_cleaning () =
  let disk, fs = Helpers.fresh_fs ~blocks:2048 () in
  let keep = Helpers.bytes_of_pattern ~seed:77 45_000 in
  Fs.write_path fs "/keeper" keep;
  let prng = Prng.create ~seed:6 in
  churn fs prng ~files:30 ~rounds:500 ~size:50_000;
  Helpers.check_bytes "survives in memory" keep (Option.get (Fs.read_path fs "/keeper"));
  Fs.unmount fs;
  let fs2 = Fs.mount (Helpers.vdev disk) in
  Helpers.check_bytes "survives remount" keep (Option.get (Fs.read_path fs2 "/keeper"));
  Helpers.fsck_clean fs2

let run_policy_churn policy =
  let config = Config.with_policy ~cleaning:policy Helpers.test_config in
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  let prng = Prng.create ~seed:8 in
  churn fs prng ~files:35 ~rounds:400 ~size:55_000;
  Helpers.fsck_clean fs;
  Fs_stats.write_cost (Fs.metrics fs)

let test_all_policies_safe () =
  List.iter
    (fun policy -> ignore (run_policy_churn policy))
    [ Config.Greedy; Config.Cost_benefit; Config.Age_only; Config.Random_victim ]

let test_grouping_policies_safe () =
  List.iter
    (fun grouping ->
      let config = Config.with_policy ~grouping Helpers.test_config in
      let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
      let prng = Prng.create ~seed:9 in
      churn fs prng ~files:35 ~rounds:300 ~size:55_000;
      Helpers.fsck_clean fs)
    [ Config.In_order; Config.Age_sort ]

let test_explicit_clean_call () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  Fs.write_path fs "/a" (Bytes.make 100_000 'a');
  Fs.write_path fs "/a" (Bytes.make 100_000 'b');
  Fs.clean fs;
  Alcotest.(check bool) "clean target reached" true
    (Fs.clean_segment_count fs >= Helpers.test_config.Config.clean_stop);
  Helpers.fsck_clean fs

let test_deletion_reclaims_without_cleaning () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/d%d" i) (Bytes.make 120_000 'd')
  done;
  let used_before = Fs.utilization fs in
  for i = 0 to 9 do
    Fs.unlink fs ~dir:Fs.root (Printf.sprintf "d%d" i)
  done;
  Fs.checkpoint fs;
  Alcotest.(check bool) "space reclaimed" true (Fs.utilization fs < used_before /. 4.0);
  Alcotest.(check bool) "empties counted as cleaned" true
    (Helpers.fs_total fs "fs.cleaner.segments_cleaned_empty" > 0);
  Helpers.fsck_clean fs

(* A segment whose last live byte dies outside a cleaning pass counts as
   cleaned-empty whatever that byte was — a data block, or the old slot
   of an inode written again.  Oracle: the segments seen to drop to zero
   live bytes between operations. *)
let test_self_emptied_counts_every_kill () =
  let _, fs = Helpers.fresh_fs ~blocks:4096 () in
  let nsegs = (Fs.layout fs).Lfs_core.Layout.nsegs in
  let live () = Array.init nsegs (Fs.segment_live_bytes fs) in
  let counted () = Helpers.fs_total fs "fs.cleaner.segments_cleaned_empty" in
  let start = counted () in
  let emptied = ref 0 in
  let last = ref (live ()) in
  let prng = Prng.create ~seed:7 in
  for i = 1 to 400 do
    Fs.write_path fs
      (Printf.sprintf "/f%d" (Prng.int prng 8))
      (Bytes.make (1 + Prng.int prng 40_000) (Char.chr (97 + (i mod 26))));
    if i mod 20 = 0 then Fs.checkpoint fs;
    let now = live () in
    Array.iteri (fun s l -> if !last.(s) > 0 && l = 0 then incr emptied) now;
    last := now
  done;
  Alcotest.(check int) "no cleaning pass ran" 0
    (Helpers.fs_total fs "fs.cleaner.fg.passes"
    + Helpers.fs_total fs "fs.cleaner.bg.passes");
  Alcotest.(check bool) "churn empties segments" true (!emptied > 0);
  Alcotest.(check int) "every emptied segment counted" !emptied
    (counted () - start);
  Helpers.fsck_clean fs

let test_segment_histogram_shape () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  let prng = Prng.create ~seed:10 in
  churn fs prng ~files:30 ~rounds:200 ~size:50_000;
  Fs.sync fs;
  let h = Fs.segment_histogram fs ~bins:10 in
  let sum = Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Lfs_util.Histogram.to_series h) in
  Alcotest.(check (float 1e-6)) "fractions sum to 1" 1.0 sum

let test_write_cost_accounting_consistent () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  let prng = Prng.create ~seed:12 in
  churn fs prng ~files:30 ~rounds:300 ~size:50_000;
  let total = Helpers.fs_total fs in
  let manual =
    float_of_int
      (total "fs.log.blocks_new" + total "fs.log.blocks_cleaner"
     + total "fs.cleaner.blocks_read")
    /. float_of_int (total "fs.log.blocks_new")
  in
  Alcotest.(check (float 1e-9)) "formula matches" manual
    (Fs_stats.write_cost (Fs.metrics fs))

let test_live_breakdown_sums () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  Fs.write_path fs "/x" (Bytes.make 50_000 'x');
  let b = Fs.live_breakdown fs in
  let sum = List.fold_left (fun acc (_, v) -> acc + v) 0 b.Fs.by_kind in
  Alcotest.(check int) "breakdown total consistent" b.Fs.total_bytes sum;
  Alcotest.(check bool) "data dominates" true
    (List.assoc Lfs_core.Types.Data b.Fs.by_kind > b.Fs.total_bytes / 2)

let test_live_blocks_cleaning_safe () =
  let config = { Helpers.test_config with Config.cleaner_read = Config.Live_blocks } in
  let disk, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  let keep = Helpers.bytes_of_pattern ~seed:88 45_000 in
  Fs.write_path fs "/keeper" keep;
  let prng = Prng.create ~seed:13 in
  churn fs prng ~files:35 ~rounds:400 ~size:55_000;
  Alcotest.(check bool) "cleaner ran" true
    (Helpers.fs_total fs "fs.cleaner.segments_cleaned" > 0);
  Helpers.check_bytes "contents survive" keep (Option.get (Fs.read_path fs "/keeper"));
  Helpers.fsck_clean fs;
  Fs.unmount fs;
  Helpers.fsck_clean (Fs.mount (Helpers.vdev disk))

let test_live_blocks_reads_less_when_sparse () =
  (* At low victim utilisation, reading only live blocks moves far less
     data than whole-segment reads (the paper's Section 3.4 footnote). *)
  let run cleaner_read =
    let config = { Helpers.test_config with Config.cleaner_read } in
    let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
    (* Interleave long-lived crumbs with churning files so victim
       segments keep a little live data instead of self-emptying. *)
    for i = 0 to 299 do
      Fs.write_path fs (Printf.sprintf "/stable%d" i) (Bytes.make 4096 's');
      Fs.write_path fs
        (Printf.sprintf "/churn%d" (i mod 40))
        (Bytes.make 16_384 'c')
    done;
    Fs.clean fs;
    Helpers.fs_total fs "fs.cleaner.blocks_read"
  in
  let whole = run Config.Whole_segment in
  let live = run Config.Live_blocks in
  Alcotest.(check bool)
    (Printf.sprintf "live (%d) < whole (%d)" live whole)
    true (live < whole)

(* ----- Budgeted background cleaning (clean_step) ----- *)

let counter fs name =
  match Lfs_obs.Metrics.value (Fs.metrics fs) name with
  | Some (Lfs_obs.Metrics.Int n) -> n
  | _ -> 0

(* Narrow background band just above the emergency one so tests can
   reach it with a few dozen writes. *)
let bg_config = { Helpers.test_config with Config.bg_clean_start = 6; bg_clean_stop = 8 }

(* Drain the clean pool to [pool] and leave reclaimable dirt behind:
   a fresh fill pins live data until [pool + 3] clean segments remain,
   then rewrites of alternate fill files (half a segment each) dig the
   rest of the way while turning their old segments half dead. *)
let drain_to fs ~pool =
  let n = ref 0 in
  while Fs.clean_segment_count fs > pool + 3 do
    Fs.write_path fs (Printf.sprintf "/fill%d" !n) (Bytes.make 32_768 'f');
    incr n
  done;
  let g = ref 0 in
  while Fs.clean_segment_count fs > pool && !g < !n do
    Fs.write_path fs (Printf.sprintf "/fill%d" !g) (Bytes.make 32_768 'r');
    g := !g + 2
  done

let test_clean_step_idle_above_watermark () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config:bg_config () in
  Fs.write_path fs "/a" (Bytes.make 20_000 'a');
  Alcotest.(check int) "nothing owed on a mostly-clean disk" 0
    (Fs.clean_step fs);
  Alcotest.(check int) "no background pass ran" 0
    (counter fs "fs.cleaner.bg.passes")

let test_clean_step_latch_needs_low_watermark () =
  (* In the middle of the band with the latch never engaged, a step is
     a no-op: hysteresis only arms below the low watermark. *)
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config:bg_config () in
  drain_to fs ~pool:7;
  Alcotest.(check int) "mid-band, latch off: nothing owed" 0
    (Fs.clean_step fs);
  Alcotest.(check int) "no background pass ran" 0
    (counter fs "fs.cleaner.bg.passes")

let test_clean_step_refills_to_high_watermark () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config:bg_config () in
  drain_to fs ~pool:5;
  let fg_before = counter fs "fs.cleaner.fg.passes" in
  let steps = ref 0 in
  while Fs.clean_step fs > 0 && !steps < 500 do
    incr steps
  done;
  Alcotest.(check bool) "terminates" true (!steps < 500);
  Alcotest.(check bool) "background passes ran" true
    (counter fs "fs.cleaner.bg.passes" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "pool refilled to the high watermark (%d)"
       (Fs.clean_segment_count fs))
    true
    (Fs.clean_segment_count fs >= bg_config.Config.bg_clean_stop);
  Alcotest.(check int) "no foreground pass charged" fg_before
    (counter fs "fs.cleaner.fg.passes");
  (* Refilled and disengaged: further steps are no-ops. *)
  let bg_passes = counter fs "fs.cleaner.bg.passes" in
  Alcotest.(check int) "disengaged after refill" 0 (Fs.clean_step fs);
  Alcotest.(check int) "no extra pass" bg_passes
    (counter fs "fs.cleaner.bg.passes");
  Helpers.fsck_clean fs

let test_clean_step_respects_budget () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config:bg_config () in
  drain_to fs ~pool:5;
  let segs0 = counter fs "fs.cleaner.bg.segments" in
  ignore (Fs.clean_step ~max_segments:1 fs);
  let cleaned = counter fs "fs.cleaner.bg.segments" - segs0 in
  Alcotest.(check bool)
    (Printf.sprintf "single step cleaned at most one victim (%d)" cleaned)
    true (cleaned <= 1);
  Helpers.fsck_clean fs

(* ----- Whole-segment vs live-blocks equivalence ----- *)

(* Property: the cleaner's read policy is an I/O strategy, not a
   semantic one — the same workload leaves the same live data whether
   victims are read wholesale or block-by-block through the cache. *)
let test_read_policy_equivalence () =
  List.iter
    (fun seed ->
      let run cleaner_read =
        let config = { Helpers.test_config with Config.cleaner_read } in
        let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
        let prng = Prng.create ~seed in
        let model = Helpers.random_ops ~ops:300 fs prng in
        Fs.clean fs;
        Fs.sync fs;
        Helpers.fsck_clean fs;
        (fs, model)
      in
      let fs_whole, model_whole = run Config.Whole_segment in
      let fs_live, model_live = run Config.Live_blocks in
      (* Same op stream on both: the models must agree, and each file
         system must hold exactly its model's live set. *)
      Alcotest.(check int)
        (Printf.sprintf "seed %d: same surviving file count" seed)
        (Hashtbl.length model_whole)
        (Hashtbl.length model_live);
      Helpers.check_model fs_whole model_whole;
      Helpers.check_model fs_live model_whole;
      let live fs = (Fs.live_breakdown fs).Fs.total_bytes in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: identical live bytes" seed)
        (live fs_whole) (live fs_live))
    [ 1; 2; 3 ]

let test_checkpoint_by_blocks () =
  let config =
    { Helpers.test_config with Config.checkpoint_interval_blocks = 64 }
  in
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 60_000 'b')
  done;
  (* 10 x 15 blocks of data >> 64-block interval: several checkpoints. *)
  Alcotest.(check bool) "volume-triggered checkpoints" true
    (Helpers.fs_total fs "fs.checkpoints" >= 2)

let test_checkpoint_by_blocks_bounds_recovery () =
  let config =
    { Helpers.test_config with Config.checkpoint_interval_blocks = 64 }
  in
  let disk, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 60_000 'b')
  done;
  Fs.sync fs;
  (* Crash: at most ~interval blocks of log to roll forward. *)
  let _, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool)
    (Printf.sprintf "replayed writes bounded (%d)" report.Fs.writes_replayed)
    true
    (report.Fs.writes_replayed <= 6);
  Helpers.fsck_clean (Fs.mount (Helpers.vdev disk))

let suite =
  ( "cleaner",
    [
      Alcotest.test_case "benefit/cost formula" `Quick test_benefit_cost_formula;
      Alcotest.test_case "greedy least-utilised" `Quick test_greedy_picks_least_utilized;
      Alcotest.test_case "cost-benefit old cold" `Quick test_cost_benefit_prefers_old_cold;
      Alcotest.test_case "empties first" `Quick test_empty_segments_always_first;
      Alcotest.test_case "age-only" `Quick test_age_only_policy;
      Alcotest.test_case "count cap" `Quick test_select_respects_count;
      Alcotest.test_case "random needs rand" `Quick test_random_requires_rand;
      Alcotest.test_case "random victim deterministic" `Quick test_random_victim_deterministic;
      Alcotest.test_case "count exceeds candidates" `Quick test_select_count_exceeds_candidates;
      Alcotest.test_case "empty candidates" `Quick test_select_empty_candidates;
      Alcotest.test_case "tie-break stable" `Quick test_tie_break_is_stable;
      Alcotest.test_case "select matches reference" `Quick test_select_matches_reference;
      Alcotest.test_case "grouping" `Quick test_grouping_age_sort;
      Alcotest.test_case "cleaning triggers" `Quick test_cleaning_triggers_and_reclaims;
      Alcotest.test_case "contents survive" `Quick test_contents_survive_cleaning;
      Alcotest.test_case "all policies safe" `Slow test_all_policies_safe;
      Alcotest.test_case "grouping policies safe" `Slow test_grouping_policies_safe;
      Alcotest.test_case "explicit clean" `Quick test_explicit_clean_call;
      Alcotest.test_case "deletion reclaims" `Quick test_deletion_reclaims_without_cleaning;
      Alcotest.test_case "self-emptied counts every kill" `Quick
        test_self_emptied_counts_every_kill;
      Alcotest.test_case "histogram shape" `Quick test_segment_histogram_shape;
      Alcotest.test_case "write-cost accounting" `Quick test_write_cost_accounting_consistent;
      Alcotest.test_case "live breakdown" `Quick test_live_breakdown_sums;
      Alcotest.test_case "live-blocks cleaning safe" `Quick test_live_blocks_cleaning_safe;
      Alcotest.test_case "live-blocks reads less" `Quick test_live_blocks_reads_less_when_sparse;
      Alcotest.test_case "clean_step idle above watermark" `Quick
        test_clean_step_idle_above_watermark;
      Alcotest.test_case "clean_step latch hysteresis" `Quick
        test_clean_step_latch_needs_low_watermark;
      Alcotest.test_case "clean_step refills to high watermark" `Quick
        test_clean_step_refills_to_high_watermark;
      Alcotest.test_case "clean_step respects budget" `Quick
        test_clean_step_respects_budget;
      Alcotest.test_case "read-policy equivalence" `Quick
        test_read_policy_equivalence;
      Alcotest.test_case "checkpoint by volume" `Quick test_checkpoint_by_blocks;
      Alcotest.test_case "volume checkpoint bounds recovery" `Quick
        test_checkpoint_by_blocks_bounds_recovery;
    ] )
