(* Tests for the Section 3.5 cleaning-policy simulator and the analytic
   write-cost model. *)

module Sim = Lfs_sim.Simulator
module Access = Lfs_sim.Access
module Config = Lfs_core.Config
module Wc = Lfs_sim.Write_cost
module Prng = Lfs_util.Prng

(* Small, fast parameters for unit tests. *)
let small =
  {
    Sim.default_params with
    nsegs = 64;
    blocks_per_seg = 32;
    warmup_writes = 60_000;
    measured_writes = 30_000;
  }

let test_formula () =
  Alcotest.(check (float 1e-9)) "u=0 costs 1" 1.0 (Wc.lfs ~u:0.0);
  Alcotest.(check (float 1e-9)) "u=0.5 costs 4" 4.0 (Wc.lfs ~u:0.5);
  Alcotest.(check (float 1e-9)) "u=0.8 costs 10" 10.0 (Wc.lfs ~u:0.8);
  Alcotest.(check bool) "monotone" true (Wc.lfs ~u:0.9 > Wc.lfs ~u:0.8)

let test_formula_series () =
  let s = Wc.series ~points:10 () in
  Alcotest.(check int) "points" 10 (Array.length s);
  Alcotest.(check (float 1e-9)) "starts at u=0" 1.0 (snd s.(0))

let test_access_uniform_covers () =
  let p = Prng.create ~seed:1 in
  let sample = Access.sampler Access.Uniform ~nfiles:10 p in
  let seen = Array.make 10 false in
  for _ = 1 to 500 do
    seen.(sample ()) <- true
  done;
  Alcotest.(check bool) "all files hit" true (Array.for_all Fun.id seen)

let test_access_hot_cold_bias () =
  let p = Prng.create ~seed:2 in
  let sample = Access.sampler Access.default_hot_cold ~nfiles:1000 p in
  let hot_hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if sample () < 100 then incr hot_hits
  done;
  let frac = float_of_int !hot_hits /. float_of_int n in
  Alcotest.(check bool) "~90% to hot files" true (frac > 0.85 && frac < 0.95)

let test_sim_write_cost_reasonable () =
  let r = Sim.run { small with utilization = 0.5 } in
  Alcotest.(check bool) "at least 1" true (r.Sim.write_cost >= 1.0);
  Alcotest.(check bool) "below no-variance bound + slack" true
    (r.Sim.write_cost < Wc.lfs ~u:0.75)

let test_sim_low_utilization_cheap () =
  let r = Sim.run { small with utilization = 0.1 } in
  Alcotest.(check bool) "write cost near 1-2" true (r.Sim.write_cost < 2.5)

let test_sim_cost_increases_with_utilization () =
  let lo = Sim.run { small with utilization = 0.3 } in
  let hi = Sim.run { small with utilization = 0.8 } in
  Alcotest.(check bool) "monotone in utilisation" true
    (hi.Sim.write_cost > lo.Sim.write_cost)

let test_sim_deterministic () =
  let a = Sim.run small and b = Sim.run small in
  Alcotest.(check (float 0.0)) "same cost" a.Sim.write_cost b.Sim.write_cost;
  Alcotest.(check int) "same cleanings" a.Sim.segments_cleaned b.Sim.segments_cleaned

let test_sim_seed_changes_result () =
  let a = Sim.run small and b = Sim.run { small with seed = small.Sim.seed + 1 } in
  Alcotest.(check bool) "different streams differ" true
    (a.Sim.write_cost <> b.Sim.write_cost)

let test_sim_cost_benefit_beats_greedy_hot_cold () =
  (* The paper's headline simulator result, at paper-scale segments. *)
  let base =
    {
      Sim.default_params with
      nsegs = 128;
      blocks_per_seg = 256;
      utilization = 0.85;
      pattern = Access.default_hot_cold;
      warmup_writes = 1_000_000;
      measured_writes = 300_000;
    }
  in
  let greedy =
    Sim.run { base with policy = { selection = Config.Greedy; grouping = Config.Age_sort } }
  in
  let cb =
    Sim.run
      { base with policy = { selection = Config.Cost_benefit; grouping = Config.Age_sort } }
  in
  Alcotest.(check bool)
    (Printf.sprintf "cost-benefit (%.2f) < greedy (%.2f)" cb.Sim.write_cost
       greedy.Sim.write_cost)
    true
    (cb.Sim.write_cost < greedy.Sim.write_cost)

let test_sim_histograms_populated () =
  let r = Sim.run { small with utilization = 0.7 } in
  Alcotest.(check bool) "cleaner histogram has samples" true
    (Lfs_util.Histogram.total r.Sim.cleaner_histogram > 0.0);
  Alcotest.(check bool) "final histogram has samples" true
    (Lfs_util.Histogram.total r.Sim.final_histogram > 0.0)

let test_sim_avg_cleaned_u_bounds () =
  let r = Sim.run { small with utilization = 0.75 } in
  Alcotest.(check bool) "in [0,1]" true
    (r.Sim.avg_cleaned_u >= 0.0 && r.Sim.avg_cleaned_u <= 1.0);
  (* Variance means victims are cleaner than the disk average. *)
  Alcotest.(check bool) "below overall utilisation + margin" true
    (r.Sim.avg_cleaned_u < 0.95)

let test_sim_rejects_impossible_utilization () =
  match Sim.run { small with utilization = 0.99 } with
  | _ -> Alcotest.fail "should reject"
  | exception Invalid_argument _ -> ()

let test_sweep_is_ordered () =
  let results = Sim.sweep_utilization ~points:3 ~lo:0.2 ~hi:0.6 small in
  let us = List.map fst results in
  Alcotest.(check (list (float 1e-9))) "x axis" [ 0.2; 0.4; 0.6 ] us

let suite =
  ( "sim",
    [
      Alcotest.test_case "write-cost formula" `Quick test_formula;
      Alcotest.test_case "formula series" `Quick test_formula_series;
      Alcotest.test_case "uniform covers" `Quick test_access_uniform_covers;
      Alcotest.test_case "hot-cold bias" `Quick test_access_hot_cold_bias;
      Alcotest.test_case "write cost reasonable" `Quick test_sim_write_cost_reasonable;
      Alcotest.test_case "low utilisation cheap" `Quick test_sim_low_utilization_cheap;
      Alcotest.test_case "cost rises with utilisation" `Quick
        test_sim_cost_increases_with_utilization;
      Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
      Alcotest.test_case "seed sensitivity" `Quick test_sim_seed_changes_result;
      Alcotest.test_case "cost-benefit beats greedy" `Slow
        test_sim_cost_benefit_beats_greedy_hot_cold;
      Alcotest.test_case "histograms populated" `Quick test_sim_histograms_populated;
      Alcotest.test_case "avg cleaned u bounds" `Quick test_sim_avg_cleaned_u_bounds;
      Alcotest.test_case "impossible utilisation" `Quick
        test_sim_rejects_impossible_utilization;
      Alcotest.test_case "sweep ordered" `Quick test_sweep_is_ordered;
    ] )
