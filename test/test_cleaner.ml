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
    for i = 0 to 349 do
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

(* ----- The pass's read buffer ----- *)

(* A pass reads into one-segment buffers it gives back at its end, so
   nothing of them may outlive the pass: with buffer poisoning on,
   random writes (each of which may run foreground passes) and idle
   steps must leave every file byte-exact and the volume clean, under
   both read policies. *)
let test_read_buffer_dead_between_passes =
  Helpers.poisoned @@ fun () ->
  List.iter
    (fun cleaner_read ->
      let config = { Helpers.eager_cleaning_config with Config.cleaner_read } in
      let disk, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
      let prng = Prng.create ~seed:21 in
      let model = Hashtbl.create 64 in
      for op = 1 to 600 do
        let path = Printf.sprintf "/f%d" (Prng.int prng 40) in
        let data = Helpers.bytes_of_pattern ~seed:op (4096 + Prng.int prng 40_000) in
        Fs.write_path fs path data;
        Hashtbl.replace model path data;
        if op mod 5 = 0 then ignore (Fs.clean_step fs)
      done;
      Alcotest.(check bool) "cleaner ran" true
        (Helpers.fs_total fs "fs.cleaner.segments_cleaned" > 0);
      Fs.sync fs;
      Helpers.check_model fs model;
      Helpers.fsck_clean fs;
      Fs.unmount fs;
      let fs = Fs.mount (Helpers.vdev disk) in
      Helpers.check_model fs model;
      Helpers.fsck_clean fs)
    [ Config.Live_blocks; Config.Whole_segment ]

(* After warm-up, a single-victim live-blocks pass reads every run into
   the mount's buffer, renders its inode and indirect blocks into the
   log writer's transfer buffer and its checkpoint into the mount's
   region buffer: it adds fewer words to the major heap than the blocks
   it read would fill, where one buffer per run would add at least that
   many, and less than an eighth of a block, where one buffer per inode
   block or per checkpoint would add a block or more. *)
let test_live_blocks_pass_no_run_buffers () =
  let config =
    { Helpers.eager_cleaning_config with Config.cleaner_read = Config.Live_blocks }
  in
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  for i = 0 to 59 do
    Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 16_384 'a')
  done;
  for i = 0 to 29 do
    Fs.write_path fs (Printf.sprintf "/f%d" (2 * i)) (Bytes.make 16_384 'b')
  done;
  Fs.sync fs;
  for _ = 1 to 3 do
    ignore (Fs.clean_step ~max_segments:1 fs)
  done;
  let read0 = Helpers.fs_total fs "fs.cleaner.blocks_read" in
  let segs0 = Helpers.fs_total fs "fs.cleaner.segments_cleaned" in
  let words = Helpers.major_words (fun () -> ignore (Fs.clean_step ~max_segments:1 fs)) in
  let read = Helpers.fs_total fs "fs.cleaner.blocks_read" - read0 in
  Alcotest.(check int) "one victim" 1
    (Helpers.fs_total fs "fs.cleaner.segments_cleaned" - segs0);
  let read_words = float_of_int (read * Helpers.test_config.Config.block_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words < the %d blocks read (%.0f)" words read read_words)
    true (words < read_words);
  let eighth_block = float_of_int (Helpers.test_config.Config.block_size / 64) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words < an eighth of a block (%.0f)" words eighth_block)
    true (words < eighth_block);
  Helpers.fsck_clean fs

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

(* ----- When a background pass checkpoints ----- *)

(* Segments cleaned since the last checkpoint: clean in the usage
   table, not yet in the reusable pool. *)
let waiting fs = Fs.clean_segment_count fs - Fs.reusable_segment_count fs

(* Forty 16 KB files, every other one rewritten: the log's first
   segments are left half dead, so a pass has victims to compact. *)
let half_dead fs =
  for round = 0 to 1 do
    for i = 0 to 39 do
      if round = 0 || i mod 2 = 0 then
        Fs.write_path fs (Printf.sprintf "/h%d" i)
          (Helpers.bytes_of_pattern ~seed:((100 * round) + i) 16_384)
    done
  done;
  Fs.sync fs

let test_bg_pass_with_headroom_skips_checkpoint () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config:Helpers.eager_cleaning_config () in
  half_dead fs;
  Fs.checkpoint fs;
  let checkpoints = ref 0 in
  Fs.on_checkpoint fs (fun () -> incr checkpoints);
  let pool0 = Fs.reusable_segment_count fs and waiting0 = waiting fs in
  let segs0 = counter fs "fs.cleaner.bg.segments" in
  ignore (Fs.clean_step ~max_segments:1 fs : int);
  let cleaned = counter fs "fs.cleaner.bg.segments" - segs0 in
  Alcotest.(check int) "the step cleaned one victim" 1 cleaned;
  Alcotest.(check int) "the pass wrote no checkpoint" 0 !checkpoints;
  Alcotest.(check bool) "nothing was handed to the pool" true
    (Fs.reusable_segment_count fs <= pool0);
  Alcotest.(check bool)
    (Printf.sprintf "the victim waits outside the pool (%d -> %d)" waiting0 (waiting fs))
    true
    (waiting fs >= waiting0 + cleaned);
  let pool1 = Fs.reusable_segment_count fs in
  Fs.checkpoint fs;
  Alcotest.(check bool) "the next checkpoint hands it out" true
    (Fs.reusable_segment_count fs >= pool1 + cleaned);
  Helpers.fsck_clean fs

(* [Helpers.test_config] flushes at most two segments' worth and its
   foreground trigger sits at four reusable segments, so the headroom
   line is six. *)
let test_bg_pass_at_headroom_line_checkpoints () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config:bg_config () in
  drain_to fs ~pool:5;
  Fs.checkpoint fs;
  let pool = Fs.reusable_segment_count fs in
  Alcotest.(check bool) (Printf.sprintf "pool %d: under the line" pool) true (pool < 6);
  let checkpoints = ref 0 in
  Fs.on_checkpoint fs (fun () -> incr checkpoints);
  let passes0 = counter fs "fs.cleaner.bg.passes"
  and fg0 = counter fs "fs.cleaner.fg.passes" in
  ignore (Fs.clean_step ~max_segments:1 fs : int);
  Alcotest.(check int) "a background pass ran" (passes0 + 1)
    (counter fs "fs.cleaner.bg.passes");
  Alcotest.(check int) "no foreground pass" fg0 (counter fs "fs.cleaner.fg.passes");
  Alcotest.(check int) "the pass wrote one checkpoint" 1 !checkpoints;
  Helpers.fsck_clean fs

(* Passes that leave their victims uncheckpointed, among synced
   writes, then a power cut anywhere in that stretch, or after it.
   Half-dead files, a checkpoint, then new synced files, each followed
   by a one-victim idle step, until three passes ran (with one head the
   restock rule checkpoints once three segments wait, between the
   second pass and the third).  Recovery must keep every file whose
   sync returned, and fsck must be clean.  Under Direct submission, or
   queued with about four transfers in flight. *)
let uncheckpointed_passes_power_cut ~heads ~queued () =
  let config = { Helpers.eager_cleaning_config with Config.log_heads = heads } in
  let module Disk = Lfs_disk.Disk in
  let run ?cut () =
    let disk, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
    let dev = Helpers.vdev disk in
    let now = ref 0.0 in
    if queued then Disk.set_mode disk (Lfs_disk.Io_queue.Queued (fun () -> !now));
    let settle () =
      if queued then
        while Lfs_disk.Vdev.outstanding_in dev ~lo:0 ~hi:max_int > 4 do
          now := !now +. 1.0;
          ignore (Disk.pump disk ~now:!now)
        done
    in
    half_dead fs;
    Fs.checkpoint fs;
    let synced = Hashtbl.create 64 in
    for i = 0 to 39 do
      Hashtbl.replace synced (Printf.sprintf "/h%d" i)
        (Helpers.bytes_of_pattern ~seed:(if i mod 2 = 0 then 100 + i else i) 16_384)
    done;
    let passes = ref 0 and last_ckpt = ref 0 and steps = ref 0 in
    Fs.on_checkpoint fs (fun () -> last_ckpt := !passes);
    let start = (Disk.stats disk).Lfs_disk.Io_stats.blocks_written in
    Option.iter (fun c -> Helpers.plan_crash disk ~after_blocks:c) cut;
    (try
       while !passes < 3 && !steps < 40 do
         incr steps;
         let path = Printf.sprintf "/n%d" !steps in
         let data = Helpers.bytes_of_pattern ~seed:(1000 + !steps) 9_000 in
         Fs.write_path fs path data;
         Fs.sync fs;
         Hashtbl.replace synced path data;
         let p0 = counter fs "fs.cleaner.bg.passes" in
         ignore (Fs.clean_step ~max_segments:1 fs : int);
         passes := !passes + counter fs "fs.cleaner.bg.passes" - p0;
         settle ()
       done
     with Disk.Crashed -> ());
    let written = (Disk.stats disk).Lfs_disk.Io_stats.blocks_written - start in
    Helpers.reboot disk;
    Disk.set_mode disk Lfs_disk.Io_queue.Direct;
    let fs2, _ = Fs.recover dev in
    Hashtbl.iter
      (fun path data ->
        match Fs.read_path fs2 path with
        | Some got -> Helpers.check_bytes (path ^ " survives") data got
        | None -> Alcotest.failf "%s (synced) lost at cut %s" path
                    (match cut with Some c -> string_of_int c | None -> "none"))
      synced;
    Helpers.fsck_clean fs2;
    (!passes, !last_ckpt, written)
  in
  let passes, last_ckpt, written = run () in
  Alcotest.(check int) "three passes ran" 3 passes;
  Alcotest.(check bool)
    (Printf.sprintf "passes after the last checkpoint: %d" (passes - last_ckpt))
    true
    (passes - last_ckpt >= if heads = 1 then 1 else 3);
  let cut = ref 0 in
  while !cut < written do
    ignore (run ~cut:!cut ());
    cut := !cut + 5
  done

(* [hotcold-80]'s shape at test scale: 16 KB files filling 80% of the
   log, 90% of overwrites to the hottest 10% of files, and one
   single-victim idle step after each.  A segment's write buffer puts
   the foreground trigger at five reusable segments.  The passes that
   come within one flush of it checkpoint, so every step leaves the
   pool above the trigger and no overwrite stalls on a foreground pass.
   (Passes that never checkpoint, leaving it to the restock rule, let
   the pool sink to the trigger here.) *)
let test_one_victim_steps_keep_foreground_out () =
  let config =
    { Helpers.test_config with
      Config.cleaner_read = Config.Live_blocks;
      write_buffer_blocks = 32;
      bg_clean_start = 10;
      bg_clean_stop = 12 }
  in
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  let layout = Fs.layout fs in
  let capacity = layout.Lfs_core.Layout.nsegs * layout.Lfs_core.Layout.seg_blocks in
  let nfiles = int_of_float (0.80 *. float_of_int capacity) / 5 in
  let nhot = nfiles / 10 in
  let path i = Printf.sprintf "/f%d" i in
  for i = 0 to nfiles - 1 do
    Fs.write_path fs (path i) (Helpers.bytes_of_pattern ~seed:i 16_384)
  done;
  Fs.sync fs;
  let prng = Prng.create ~seed:1 in
  let low = ref max_int in
  for k = 1 to 2000 do
    let i =
      if Prng.bernoulli prng ~p:0.9 then Prng.int prng nhot
      else nhot + Prng.int prng (nfiles - nhot)
    in
    Fs.write_path fs (path i) (Bytes.make 16_384 (Char.chr (97 + (k mod 26))));
    ignore (Fs.clean_step ~max_segments:1 fs : int);
    low := min !low (Fs.reusable_segment_count fs)
  done;
  Alcotest.(check bool) "background passes ran" true
    (counter fs "fs.cleaner.bg.passes" > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "lowest pool after a step (%d) above the trigger" !low)
    true (!low > 5);
  Alcotest.(check int) "no foreground pass" 0 (counter fs "fs.cleaner.fg.passes");
  Helpers.fsck_clean fs

(* ----- Whole-segment vs live-blocks equivalence ----- *)

(* Property: the cleaner's read policy is an I/O strategy, not a
   semantic one — the same workload leaves the same live data whether
   victims are read wholesale or only in the blocks that classification
   and relocation need.  A stop watermark near the segment count makes
   [Fs.clean] run passes until they free nothing.  The live-blocks runs
   are pinned to the blocks they read and relocate: a reader that drops
   a needed block or reads a dead one changes the first. *)
let test_read_policy_equivalence () =
  List.iter
    (fun (seed, blocks_read, blocks_relocated) ->
      let run cleaner_read =
        let config = { Helpers.test_config with Config.cleaner_read; clean_stop = 60 } in
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
        (live fs_whole) (live fs_live);
      let total fs name = Helpers.fs_total fs name in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: same blocks relocated" seed)
        (total fs_whole "fs.log.blocks_cleaner")
        (total fs_live "fs.log.blocks_cleaner");
      Alcotest.(check int)
        (Printf.sprintf "seed %d: live-blocks blocks read" seed)
        blocks_read (total fs_live "fs.cleaner.blocks_read");
      Alcotest.(check int)
        (Printf.sprintf "seed %d: live-blocks blocks relocated" seed)
        blocks_relocated (total fs_live "fs.log.blocks_cleaner"))
    [ (1, 221, 200); (2, 277, 255); (3, 275, 248) ]

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

(* ----- Carried payload checksums ----- *)

(* Every log write still on disk verifies.  Each segment's summary
   chain is walked as fsck walks it (sequence numbers rising, so a stale
   summary from the segment's previous life ends the walk), and each
   write's [payload_sum] is compared with a checksum of its payload read
   back.  Returns the number of writes checked. *)
let writes_verify dev layout =
  let module Layout = Lfs_core.Layout in
  let module Summary = Lfs_core.Summary in
  let checked = ref 0 in
  for seg = 0 to layout.Layout.nsegs - 1 do
    let first = Layout.seg_first_block layout seg in
    let last_seq = ref (-1) in
    ignore
      (Summary.walk_segment layout ~seg
         ~read:(fun slot -> (Lfs_disk.Vdev.read_block dev (first + slot), 0))
         (fun s ->
           s.Summary.seq > !last_seq
           && begin
                last_seq := s.Summary.seq;
                let n = List.length s.Summary.entries in
                let payload =
                  Lfs_disk.Vdev.read_blocks dev (first + s.Summary.slot + 1) n
                in
                Alcotest.(check int)
                  (Printf.sprintf "segment %d slot %d: payload checksum" seg
                     s.Summary.slot)
                  s.Summary.payload_sum
                  (Summary.payload_checksum payload);
                incr checked;
                true
              end)
        : bool)
  done;
  !checked

(* Distinct contents per block, so a checksum carried to the wrong block
   could not pass for the right one. *)
let patterned prng len = Helpers.bytes_of_pattern ~seed:(Prng.int prng 1_000_000) len

(* Whole-file rewrites and single-block overwrites on a full disk, with
   foreground cleaning, explicit passes and idle steps (background
   passes, and demotion on a tiered volume): the cleaner relocates
   blocks this mount wrote, carrying their checksums, and every write it
   leaves on disk must still verify. *)
let carried_sums_verify ~tier config () =
  let dev, fs =
    if tier then begin
      let child blocks =
        Lfs_disk.Vdev.of_disk
          (Lfs_disk.Disk.create (Lfs_disk.Geometry.instant ~blocks))
      in
      let ti = Lfs_spec.Spec.tier_volume ~config ~fast:(child 768) ~slow:(child 1536) in
      let dev = Lfs_disk.Vdev_tier.vdev ti in
      Fs.format dev config;
      (dev, Fs.mount ~tier:ti dev)
    end
    else begin
      let disk, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
      (Helpers.vdev disk, fs)
    end
  in
  let prng = Prng.create ~seed:17 in
  let path i = Printf.sprintf "/f%d" i in
  let files = 110 in
  for i = 0 to files - 1 do
    Fs.write_path fs (path i) (patterned prng 40_000)
  done;
  for round = 1 to 400 do
    let p = path (Prng.int prng files) in
    (if Prng.int prng 3 = 0 then Fs.write_path fs p (patterned prng 40_000)
     else
       match Fs.resolve fs p with
       | Some ino ->
           Fs.write fs ino ~off:(4096 * Prng.int prng 9) (patterned prng 4096)
       | None -> ());
    if round mod 100 = 0 then Fs.clean fs;
    if round mod 7 = 0 then ignore (Fs.clean_step fs)
  done;
  Alcotest.(check bool) "the cleaner relocated blocks" true
    (Helpers.fs_total fs "fs.log.blocks_cleaner" > 0);
  Helpers.fsck_clean fs;
  let layout = Fs.layout fs in
  Fs.unmount fs;
  Alcotest.(check bool) "writes checked" true (writes_verify dev layout > 0)

let live_blocks = { Helpers.test_config with Config.cleaner_read = Config.Live_blocks }

(* A block whose bytes change on the medium after this mount logged it
   (bit rot: here every read of it comes back with one byte wrong) is
   relocated under the checksum recorded when it was written, not one
   taken over the rotted bytes, so the relocating write fails its
   payload check.  fsck reports the block at its new address; summing
   the rotted bytes afresh would have hidden the rot.  The pool has
   headroom, so the background pass writes no checkpoint and a power
   cut rolls forward from the one before it.  A later synced write
   vouches for the relocating write (it completed before the later
   batch was written), so roll-forward does not check its payload: the
   relocation is rolled forward, rot and all, nothing synced before
   the pass is lost, and fsck goes on reporting the block at its new
   address. *)
let test_rotted_block_relocated () =
  let module Vdev_fault = Lfs_disk.Vdev_fault in
  let fault =
    Vdev_fault.create ~seed:3
      (Lfs_disk.Vdev.of_disk
         (Lfs_disk.Disk.create (Lfs_disk.Geometry.instant ~blocks:2048)))
  in
  let dev = Vdev_fault.vdev fault in
  (* Background watermarks above the segment count: an idle step always
     runs a pass. *)
  let config =
    { Helpers.test_config with
      Config.cleaning_policy = Config.Greedy;
      bg_clean_start = 1000;
      bg_clean_stop = 1001 }
  in
  Fs.format dev config;
  let fs = Fs.mount dev in
  let keep = Helpers.bytes_of_pattern ~seed:1 20_000 in
  let rot = Helpers.bytes_of_pattern ~seed:2 4096 in
  Fs.write_path fs "/keep" keep;
  Fs.write_path fs "/rot" rot;
  (* Move the log past the files' segment, which a pass never cleans
     while the log is still writing it. *)
  Fs.write_path fs "/pad" (Bytes.make 200_000 'p');
  Fs.unlink fs ~dir:Fs.root "pad";
  Fs.checkpoint fs;
  let ino = Option.get (Fs.resolve fs "/rot") in
  let addr fs = Fs.with_handle fs ino (fun _ fm -> Lfs_core.Filemap.get fm 0) in
  let old = addr fs in
  Fs.drop_caches fs;
  Vdev_fault.rot_read fault ~addr:old;
  let checkpoints = ref 0 in
  Fs.on_checkpoint fs (fun () -> incr checkpoints);
  ignore (Fs.clean_step ~max_segments:64 fs);
  let moved = addr fs in
  Alcotest.(check bool) "the rotted block was relocated" true (moved <> old);
  Alcotest.(check int) "the pass wrote no checkpoint" 0 !checkpoints;
  let reports block fs =
    let msg = Printf.sprintf "block %d fails its write's payload checksum" block in
    List.exists
      (fun e ->
        let n = String.length msg in
        let rec at i =
          i + n <= String.length e && (String.sub e i n = msg || at (i + 1))
        in
        at 0)
      (Lfs_core.Fsck.check fs).Lfs_core.Fsck.errors
  in
  Alcotest.(check bool) "fsck reports the relocated block" true (reports moved fs);
  Fs.write_path fs "/later" (Bytes.make 100 'l');
  Fs.sync fs;
  let fs2, _ = Fs.recover dev in
  Alcotest.(check int) "the relocation was rolled forward" moved (addr fs2);
  Helpers.check_bytes "/keep survives" keep (Option.get (Fs.read_path fs2 "/keep"));
  Alcotest.(check bool) "fsck reports the relocated block" true (reports moved fs2)

(* A pass reads its victims into its own buffers, not into the block
   cache (Section 3.3), although the client blocks nearly fill the cache
   and a whole victim would not fit beside them.  Under either read
   policy: every data block the client had cached is still cached, the
   ones the pass relocated at their new address (the old copy died, and
   a dead block leaves the cache); no victim address stays in the cache
   or enters it (a summary a handle miss read in leaves as its inode
   is relocated: the inode lives on in its handle); and no other
   resident block is evicted. *)
let test_pass_leaves_cache_alone policy () =
  let module Layout = Lfs_core.Layout in
  let config =
    Config.with_policy ~cleaning:Config.Greedy
      { Helpers.eager_cleaning_config with Config.cleaner_read = policy; cache_blocks = 136 }
  in
  let _, fs = Helpers.fresh_fs ~config () in
  let bs = 4096 in
  let client i = Printf.sprintf "/c%d" i in
  let contents i = Bytes.make (16 * bs) (Char.chr (Char.code 'a' + i)) in
  for i = 0 to 5 do
    Fs.write_path fs (client i) (contents i)
  done;
  Fs.sync fs;
  (* A victim: a dead file beside a small live one. *)
  Fs.write_path fs "/g" (Bytes.make (24 * bs) 'g');
  Fs.write_path fs "/k" (Bytes.make bs 'k');
  Fs.sync fs;
  Fs.unlink fs ~dir:Fs.root "g";
  Fs.checkpoint fs;
  Fs.drop_caches fs;
  for i = 0 to 5 do
    Helpers.check_bytes "client file" (contents i) (Option.get (Fs.read_path fs (client i)))
  done;
  let layout = Fs.layout fs in
  let nblocks = Lfs_disk.Vdev.nblocks (List.hd (Fs.devices fs)) in
  let resident () = List.filter (Fs.block_cached fs) (List.init nblocks Fun.id) in
  let live () = List.init layout.Layout.nsegs (Fs.segment_live_bytes fs) in
  let before = resident () and live_before = live () in
  let whole =
    List.filter
      (fun (_, what) -> not (String.starts_with ~prefix:"inode" what))
      (Lfs_core.Fsck.live_blocks fs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d resident blocks leave no room for a segment" (List.length before))
    true
    (List.length before + layout.Layout.seg_blocks > config.Config.cache_blocks);
  ignore (Fs.clean_step ~max_segments:1 fs : int);
  let after = resident () in
  let victims =
    List.concat
      (List.mapi
         (fun seg (b, a) -> if b > 0 && a = 0 then [ seg ] else [])
         (List.combine live_before (live ())))
  in
  Alcotest.(check int) "one victim cleaned" 1 (List.length victims);
  let in_victim a = List.mem (Layout.seg_of_block layout a) victims in
  let moved, stayed = List.partition in_victim before in
  Alcotest.(check (list int)) "no other resident block evicted" []
    (List.filter (fun a -> not (List.mem a after)) stayed);
  Alcotest.(check (list int)) "no victim block in the cache" []
    (List.filter in_victim after);
  (* Each relocated data or indirect block is resident at the address
     the walk now finds it at. *)
  let relocated = List.filter (fun (a, _) -> List.mem a moved) whole in
  Alcotest.(check bool) "the pass relocated a cached data block" true (relocated <> []);
  let now = Lfs_core.Fsck.live_blocks fs in
  List.iter
    (fun (a, what) ->
      let b = fst (List.find (fun (_, w) -> w = what) now) in
      if not (List.mem b after) then
        Alcotest.failf "%s, cached at %d, is not cached at its new address %d" what a b)
    relocated;
  Helpers.check_bytes "the victim's live file" (Bytes.make bs 'k')
    (Option.get (Fs.read_path fs "/k"));
  Helpers.fsck_clean fs

(* One live-blocks victim is read in one ascending sweep.  With no
   block cache and every handle loaded beforehand, every read of a
   one-victim step reaches the device: the reads must ascend without
   overlap, cover exactly the summaries the chain walk reads, the
   victim's inode blocks and its live data blocks, and a write whose
   last block is read must bring the next summary in the same
   transfer.  A write whose live inodes ride in its summary costs no
   read beyond that summary. *)
let test_live_blocks_sweep () =
  let module Layout = Lfs_core.Layout in
  let module Summary = Lfs_core.Summary in
  let module Types = Lfs_core.Types in
  let config =
    Config.with_policy ~cleaning:Config.Greedy
      { Helpers.eager_cleaning_config with
        Config.cleaner_read = Config.Live_blocks; cache_blocks = 0 }
  in
  let disk = Helpers.fresh_disk ~blocks:2048 () in
  let view, _, log = Helpers.recording (Helpers.vdev disk) in
  Fs.format view config;
  let fs = Fs.mount view in
  let bs = 4096 in
  (* One segment of several writes: files written and synced one by
     one, then some deleted and some partly overwritten. *)
  for i = 0 to 5 do
    Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make ((i + 1) * bs) 'a');
    Fs.sync fs
  done;
  Fs.unlink fs ~dir:Fs.root "f1";
  Fs.unlink fs ~dir:Fs.root "f4";
  Fs.write fs (Option.get (Fs.resolve fs "/f5")) ~off:0 (Bytes.make bs 'b');
  Fs.write fs (Option.get (Fs.resolve fs "/f3")) ~off:(3 * bs) (Bytes.make bs 'b');
  Fs.write_path fs "/pad" (Bytes.make (40 * bs) 'p');
  Fs.unlink fs ~dir:Fs.root "pad";
  Fs.checkpoint fs;
  let layout = Fs.layout fs in
  let live_inos = Hashtbl.create 16 in
  Fs.iter_files fs (fun ino _ -> Hashtbl.replace live_inos ino ());
  (* What the sweep must read of [seg], as addresses, and the writes it
     walks, each with the blocks it must read of the write and the
     live inodes it carries inline: all as they stand before the
     pass. *)
  let expected seg =
    let first = Layout.seg_first_block layout seg in
    let walked = ref [] and summaries = ref [] in
    ignore
      (Summary.walk_segment layout ~seg
         ~read:(fun slot ->
           walked := (first + slot) :: !walked;
           (Lfs_disk.Disk.read_blocks disk (first + slot) 1, 0))
         (fun s ->
           summaries := s :: !summaries;
           true)
        : bool);
    let needed (s : Summary.t) =
      List.concat
        (List.mapi
           (fun i (e : Summary.entry) ->
             let addr = Summary.entry_addr s layout i in
             match e.Summary.kind with
             | Types.Inode_block -> [ addr ]
             | Types.Data
               when Hashtbl.mem live_inos e.Summary.ino
                    && Fs.with_handle fs e.Summary.ino (fun _ fm ->
                           Lfs_core.Filemap.get fm e.Summary.blockno = addr) ->
                 [ addr ]
             | _ -> [])
           s.Summary.entries)
    in
    let inline_live (s : Summary.t) =
      List.filter
        (fun (iaddr, (inode : Lfs_core.Inode.t)) ->
          Hashtbl.mem live_inos inode.Lfs_core.Inode.ino
          && Types.Iaddr.equal (Fs.imap_location fs inode.Lfs_core.Inode.ino) iaddr)
        (Summary.inline_inodes s layout)
    in
    let writes = List.rev_map (fun s -> (s, needed s, inline_live s)) !summaries in
    (List.sort_uniq compare (!walked @ List.concat_map needed !summaries), writes)
  in
  let live () = List.init layout.Layout.nsegs (Fs.segment_live_bytes fs) in
  let live_before = live () in
  let plans = List.mapi (fun seg b -> if b > 0 then Some (expected seg) else None) live_before in
  log := [];
  ignore (Fs.clean_step ~max_segments:1 fs : int);
  let reads = List.rev !log in
  let victim =
    match
      List.filter_map Fun.id
        (List.mapi
           (fun seg (b, a) -> if b > 0 && a = 0 then Some seg else None)
           (List.combine live_before (live ())))
    with
    | [ v ] -> v
    | vs -> Alcotest.failf "%d victims cleaned, expected one" (List.length vs)
  in
  let blocks, writes = Option.get (List.nth plans victim) in
  let pp = String.concat " " (List.map (fun (a, n) -> Printf.sprintf "%d+%d" a n) reads) in
  let rec ascending = function
    | (a, n) :: ((b, _) :: _ as rest) -> a + n <= b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) ("reads ascend without overlap: " ^ pp) true (ascending reads);
  let read_blocks =
    List.concat_map (fun (a, n) -> List.init n (fun i -> a + i)) reads
  in
  Alcotest.(check (list int)) "no block is read twice"
    (List.sort_uniq compare read_blocks) (List.sort compare read_blocks);
  Alcotest.(check (list int)) "summaries, inode blocks and live data, nothing else"
    blocks (List.sort compare read_blocks);
  (* Every write whose last block is read and whose next summary the walk
     reads: one transfer covers both. *)
  let seg_blocks = layout.Layout.seg_blocks in
  let fused =
    List.filter_map
      (fun ((s : Summary.t), needed, _) ->
        let n = List.length s.Summary.entries in
        if
          n > 0
          && Summary.next_slot s <= seg_blocks - 2
          && List.mem (Summary.entry_addr s layout (n - 1)) needed
        then Some s
        else None)
      writes
  in
  Alcotest.(check bool) "the victim has a write whose last block is read" true (fused <> []);
  List.iter
    (fun (s : Summary.t) ->
      let last = Summary.entry_addr s layout (List.length s.Summary.entries - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "block %d and the next summary in one transfer: %s" last pp)
        true
        (List.exists (fun (a, n) -> a <= last && last + 1 < a + n) reads))
    fused;
  (* [blocks] holds no inline inode's block but its summary's, so the
     reads' equality above is the claim. *)
  Alcotest.(check bool) "the victim has a write whose live inode rides in its summary"
    true
    (List.exists (fun (_, _, inline) -> inline <> []) writes);
  Helpers.fsck_clean fs

(* One whole-segment victim is read in one transfer.  With no block
   cache and every handle loaded beforehand, a one-victim step's only
   read is the victim, all [seg_blocks] blocks of it from its first
   block: the summary walk and the liveness checks read nothing more. *)
let test_whole_segment_one_transfer () =
  let module Layout = Lfs_core.Layout in
  let config =
    Config.with_policy ~cleaning:Config.Greedy
      { Helpers.eager_cleaning_config with
        Config.cleaner_read = Config.Whole_segment; cache_blocks = 0 }
  in
  let disk = Helpers.fresh_disk ~blocks:2048 () in
  let view, _, log = Helpers.recording (Helpers.vdev disk) in
  Fs.format view config;
  let fs = Fs.mount view in
  let bs = 4096 in
  for i = 0 to 5 do
    Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make ((i + 1) * bs) 'a');
    Fs.sync fs
  done;
  Fs.unlink fs ~dir:Fs.root "f1";
  Fs.unlink fs ~dir:Fs.root "f4";
  Fs.write fs (Option.get (Fs.resolve fs "/f5")) ~off:0 (Bytes.make bs 'b');
  Fs.write_path fs "/pad" (Bytes.make (40 * bs) 'p');
  Fs.unlink fs ~dir:Fs.root "pad";
  Fs.checkpoint fs;
  Fs.iter_files fs (fun _ _ -> ());
  let layout = Fs.layout fs in
  let live () = List.init layout.Layout.nsegs (Fs.segment_live_bytes fs) in
  let live_before = live () in
  log := [];
  ignore (Fs.clean_step ~max_segments:1 fs : int);
  let victims =
    List.filter_map Fun.id
      (List.mapi
         (fun seg (b, a) -> if b > 0 && a = 0 then Some seg else None)
         (List.combine live_before (live ())))
  in
  Alcotest.(check (list (pair int int))) "the victim, whole, in one transfer"
    (List.map (fun seg -> (Layout.seg_first_block layout seg, layout.Layout.seg_blocks)) victims)
    (List.rev !log);
  Alcotest.(check int) "one victim cleaned" 1 (List.length victims);
  Helpers.fsck_clean fs

(* ----- A victim whose only live bytes are inline inodes ----- *)

(* Inodes that ride in a summary are live bytes of the summary's own
   segment: a victim that keeps nothing else live is still read,
   classified and emptied, under either read policy, and its inodes
   survive the move with the usage table matching fsck's claims. *)
let test_inline_inode_victim cleaner_read () =
  let module Layout = Lfs_core.Layout in
  let module Types = Lfs_core.Types in
  let config =
    Config.with_policy ~cleaning:Config.Greedy
      { Helpers.eager_cleaning_config with Config.cleaner_read }
  in
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  let layout = Fs.layout fs in
  let bs = layout.Layout.block_size in
  let files = List.init 4 (fun i -> Printf.sprintf "/f%d" i) in
  let ino p = Option.get (Fs.resolve fs p) in
  List.iter (fun p -> Fs.write_path fs p (Bytes.make bs 'f')) files;
  Fs.write_path fs "/pad0" (Bytes.make (40 * bs) 'p');
  Fs.sync fs;
  (* Only the inodes change: the flush is a summary carrying them. *)
  List.iter (fun p -> Fs.truncate fs (ino p) ~len:(2 * bs)) files;
  Fs.sync fs;
  let at = Fs.imap_location fs (ino "/f0") in
  let seg = Layout.seg_of_block layout (Types.Iaddr.block at) in
  (* Everything else the segment holds dies, written from beyond it. *)
  Fs.write_path fs "/pad1" (Bytes.make (40 * bs) 'p');
  Fs.sync fs;
  Fs.unlink fs ~dir:Fs.root "pad0";
  Fs.unlink fs ~dir:Fs.root "pad1";
  Fs.checkpoint fs;
  List.iter
    (fun p ->
      Alcotest.(check int) (p ^ "'s inode rides in that summary") seg
        (Layout.seg_of_block layout (Types.Iaddr.block (Fs.imap_location fs (ino p)))))
    files;
  Alcotest.(check int) "the inline inodes are all it keeps live"
    (4 * layout.Layout.inode_size) (Fs.segment_live_bytes fs seg);
  ignore (Fs.clean_step ~max_segments:1 fs : int);
  Alcotest.(check int) "the victim is emptied" 0 (Fs.segment_live_bytes fs seg);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ "'s inode moved") false
        (Types.Iaddr.equal at (Fs.imap_location fs (ino p)));
      Alcotest.(check int) (p ^ " keeps its size") (2 * bs) (Fs.file_size fs (ino p));
      Helpers.check_bytes (p ^ " keeps its data")
        (Bytes.cat (Bytes.make bs 'f') (Bytes.make bs '\000'))
        (Option.get (Fs.read_path fs p)))
    files;
  Helpers.fsck_clean fs

let suite =
  ( "cleaner",
    [
      Alcotest.test_case "benefit/cost formula" `Quick test_benefit_cost_formula;
      Alcotest.test_case "whole-segment victim: one transfer" `Quick
        test_whole_segment_one_transfer;
      Alcotest.test_case "inline-inode victim (whole segment)" `Quick
        (test_inline_inode_victim Config.Whole_segment);
      Alcotest.test_case "inline-inode victim (live blocks)" `Quick
        (test_inline_inode_victim Config.Live_blocks);
      Alcotest.test_case "pass leaves the cache alone (whole segment)" `Quick
        (test_pass_leaves_cache_alone Config.Whole_segment);
      Alcotest.test_case "pass leaves the cache alone (live blocks)" `Quick
        (test_pass_leaves_cache_alone Config.Live_blocks);
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
      Alcotest.test_case "read buffer dead between passes" `Quick
        test_read_buffer_dead_between_passes;
      Alcotest.test_case "live-blocks victim: one ascending sweep" `Quick
        test_live_blocks_sweep;
      Alcotest.test_case "live-blocks pass: no run buffers" `Quick
        test_live_blocks_pass_no_run_buffers;
      Alcotest.test_case "clean_step idle above watermark" `Quick
        test_clean_step_idle_above_watermark;
      Alcotest.test_case "clean_step latch hysteresis" `Quick
        test_clean_step_latch_needs_low_watermark;
      Alcotest.test_case "clean_step refills to high watermark" `Quick
        test_clean_step_refills_to_high_watermark;
      Alcotest.test_case "clean_step respects budget" `Quick
        test_clean_step_respects_budget;
      Alcotest.test_case "bg pass with headroom: no checkpoint" `Quick
        test_bg_pass_with_headroom_skips_checkpoint;
      Alcotest.test_case "bg pass at the headroom line checkpoints" `Quick
        test_bg_pass_at_headroom_line_checkpoints;
      Alcotest.test_case "uncheckpointed passes: power cut, direct" `Quick
        (uncheckpointed_passes_power_cut ~heads:1 ~queued:false);
      Alcotest.test_case "uncheckpointed passes: power cut, io-depth 4" `Quick
        (uncheckpointed_passes_power_cut ~heads:1 ~queued:true);
      Alcotest.test_case "uncheckpointed passes: power cut, two heads, direct" `Quick
        (uncheckpointed_passes_power_cut ~heads:2 ~queued:false);
      Alcotest.test_case "uncheckpointed passes: power cut, two heads, io-depth 4" `Quick
        (uncheckpointed_passes_power_cut ~heads:2 ~queued:true);
      Alcotest.test_case "one-victim steps at 80%: no foreground pass" `Quick
        test_one_victim_steps_keep_foreground_out;
      Alcotest.test_case "carried sums: live blocks" `Quick
        (carried_sums_verify ~tier:false live_blocks);
      Alcotest.test_case "carried sums: whole segment" `Quick
        (carried_sums_verify ~tier:false Helpers.test_config);
      Alcotest.test_case "carried sums: two heads" `Quick
        (carried_sums_verify ~tier:false
           { live_blocks with Config.log_heads = 2 });
      Alcotest.test_case "carried sums: tiered" `Quick
        (carried_sums_verify ~tier:true
           { Helpers.test_config with Config.demote_age_s = 16.0; promote_reads = 2 });
      Alcotest.test_case "carried sums: rotted block relocated" `Quick
        test_rotted_block_relocated;
      Alcotest.test_case "read-policy equivalence" `Quick
        test_read_policy_equivalence;
      Alcotest.test_case "checkpoint by volume" `Quick test_checkpoint_by_blocks;
      Alcotest.test_case "volume checkpoint bounds recovery" `Quick
        test_checkpoint_by_blocks_bounds_recovery;
    ] )
