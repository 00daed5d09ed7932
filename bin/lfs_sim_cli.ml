(* lfs_sim_cli: run the Section 3.5 cleaning-policy simulator from the
   command line.

     lfs_sim_cli --utilization 0.75 --pattern hot-cold --policy cost-benefit
     lfs_sim_cli --sweep --pattern uniform --policy greedy
     lfs_sim_cli --histogram ...   # print the cleaner-visible distribution *)

open Cmdliner

module Sim = Lfs_sim.Simulator
module Access = Lfs_sim.Access
module Config = Lfs_core.Config

let pattern_conv =
  let parse = function
    | "uniform" -> Ok Access.Uniform
    | "hot-cold" | "hot-and-cold" -> Ok Access.default_hot_cold
    | "cyclic" -> Ok Access.Cyclic
    | s -> Error (`Msg (Printf.sprintf "unknown pattern %S (uniform | hot-cold | cyclic)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Access.name p))

let policy_conv =
  let parse = function
    | "greedy" -> Ok Config.Greedy
    | "cost-benefit" -> Ok Config.Cost_benefit
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S (greedy | cost-benefit)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Config.cleaning_policy_name p))

let grouping_conv =
  let parse = function
    | "in-order" -> Ok Config.In_order
    | "age-sort" -> Ok Config.Age_sort
    | s -> Error (`Msg (Printf.sprintf "unknown grouping %S (in-order | age-sort)" s))
  in
  Arg.conv (parse, fun ppf g -> Format.pp_print_string ppf (Config.grouping_policy_name g))

let run utilization pattern policy grouping nsegs spseg writes sweep histogram seed =
  let params =
    {
      Sim.default_params with
      utilization;
      pattern;
      policy = { Sim.selection = policy; grouping };
      nsegs;
      blocks_per_seg = spseg;
      warmup_writes = writes * 3 / 4;
      measured_writes = writes / 4;
      seed;
    }
  in
  if sweep then begin
    Printf.printf "# util  write_cost  avg_cleaned_u\n";
    List.iter
      (fun (u, r) ->
        Printf.printf "%.3f  %7.3f  %7.3f\n" u r.Sim.write_cost r.Sim.avg_cleaned_u)
      (Sim.sweep_utilization ~points:8 ~lo:0.15 ~hi:0.9 params)
  end
  else begin
    let r = Sim.run params in
    Printf.printf "pattern: %s, policy: %s + %s\n" (Access.name pattern)
      (Config.cleaning_policy_name policy)
      (Config.grouping_policy_name grouping);
    Printf.printf "write cost      %.3f\n" r.Sim.write_cost;
    Printf.printf "avg cleaned u   %.3f\n" r.Sim.avg_cleaned_u;
    Printf.printf "segments cleaned %d\n" r.Sim.segments_cleaned;
    if histogram then begin
      Printf.printf "\ncleaner-visible utilisation distribution:\n";
      Array.iter
        (fun (x, f) ->
          Printf.printf "%.2f %s\n" x (String.make (int_of_float (f *. 400.0)) '#'))
        (Lfs_util.Histogram.to_series r.Sim.cleaner_histogram)
    end
  end

let cmd =
  let utilization =
    Arg.(value & opt float 0.75 & info [ "u"; "utilization" ] ~doc:"Disk capacity utilisation")
  in
  let pattern =
    Arg.(value & opt pattern_conv Access.Uniform & info [ "pattern" ] ~doc:"Access pattern")
  in
  let policy =
    Arg.(value & opt policy_conv Config.Greedy & info [ "policy" ] ~doc:"Victim selection policy")
  in
  let grouping =
    Arg.(value & opt grouping_conv Config.In_order & info [ "grouping" ] ~doc:"Live-block grouping")
  in
  let nsegs = Arg.(value & opt int 256 & info [ "segments" ] ~doc:"Number of segments") in
  let spseg = Arg.(value & opt int 256 & info [ "blocks-per-segment" ] ~doc:"4 KB files per segment") in
  let writes = Arg.(value & opt int 4_000_000 & info [ "writes" ] ~doc:"Total simulated writes") in
  let sweep = Arg.(value & flag & info [ "sweep" ] ~doc:"Sweep utilisation instead of one run") in
  let histogram = Arg.(value & flag & info [ "histogram" ] ~doc:"Print the segment distribution") in
  let seed = Arg.(value & opt int 0xCAFE & info [ "seed" ] ~doc:"PRNG seed") in
  Cmd.v
    (Cmd.info "lfs_sim_cli" ~doc:"log-structured file system cleaning-policy simulator")
    Term.(
      const run $ utilization $ pattern $ policy $ grouping $ nsegs $ spseg
      $ writes $ sweep $ histogram $ seed)

let () = exit (Cmd.eval cmd)
