(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Rosenblum & Ousterhout, SOSP 1991).

   Usage:
     dune exec bench/main.exe            # everything except `micro`
     dune exec bench/main.exe -- fig4 table2 ...
     dune exec bench/main.exe -- quick   # reduced sweeps for smoke runs
     dune exec bench/main.exe -- micro   # timed micro-benchmarks
     dune exec bench/main.exe -- --metrics fig8 stripe
                                         # dump the Lfs_obs registry at
                                         # phase boundaries

   Absolute numbers come from the calibrated disk/CPU models (Wren IV +
   Sun-4/260); the shapes are what reproduce the paper. *)

module Table = Lfs_util.Table
module Plot = Lfs_util.Plot
module Histogram = Lfs_util.Histogram
module Sim = Lfs_sim.Simulator
module Access = Lfs_sim.Access
module Config = Lfs_core.Config
module W = Lfs_workload

let quick = ref false
let metrics = ref false

(* With --metrics, dump a workload's observability registry (per-layer
   IO, op latency, cleaner and checkpoint stats) at phase boundaries. *)
let dump_metrics ?(title = "metrics") = function
  | None -> ()
  | Some m ->
      if !metrics then
        Printf.printf "\n%s" (Lfs_obs.Metrics.report ~title m)

let header title paper =
  Printf.printf "\n==== %s ====\n" title;
  Printf.printf "Paper: %s\n\n" paper

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)

(* A latency histogram's 95th or 99th percentile, in ms; [nan] when the
   registry has no such histogram. *)
let latency_ms m name q =
  match Lfs_obs.Metrics.value m name with
  | Some (Lfs_obs.Metrics.Summary { p95; p99; _ }) ->
      1000.0 *. (match q with `P95 -> p95 | `P99 -> p99)
  | _ -> Float.nan

(* ------------------------------------------------------------------ *)
(* Figure 3: analytic write cost vs u                                   *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Figure 3 - write cost as a function of u (analytic)"
    "LFS curve 2/(1-u); FFS today ~10; FFS improved ~4; LFS beats FFS \
     today below u=0.8 and improved FFS below u=0.5";
  let series = Lfs_sim.Write_cost.series ~points:20 () in
  let flat v = Array.map (fun (u, _) -> (u, v)) series in
  Plot.print ~y_max:14.0 ~x_label:"fraction alive in segment cleaned (u)"
    ~title:"write cost"
    [
      { Plot.label = "LFS (2/(1-u))"; points = series };
      { Plot.label = "FFS today"; points = flat Lfs_sim.Write_cost.ffs_today };
      { Plot.label = "FFS improved"; points = flat Lfs_sim.Write_cost.ffs_improved };
    ];
  let crossover target =
    match Array.find_opt (fun (_, c) -> c > target) series with
    | Some (u, _) -> u
    | None -> 1.0
  in
  Printf.printf
    "Crossovers: LFS beats FFS-today below u=%.2f, FFS-improved below u=%.2f\n"
    (crossover Lfs_sim.Write_cost.ffs_today)
    (crossover Lfs_sim.Write_cost.ffs_improved)

(* ------------------------------------------------------------------ *)
(* Figures 4-7: the cleaning-policy simulator                           *)
(* ------------------------------------------------------------------ *)

let sim_base () =
  if !quick then
    { Sim.default_params with warmup_writes = 600_000; measured_writes = 200_000 }
  else Sim.default_params

let greedy_in = { Sim.selection = Config.Greedy; grouping = Config.In_order }
let greedy_age = { Sim.selection = Config.Greedy; grouping = Config.Age_sort }
let cb_age = { Sim.selection = Config.Cost_benefit; grouping = Config.Age_sort }

let sweep params =
  let points = if !quick then 5 else 8 in
  Sim.sweep_utilization ~points ~lo:0.15 ~hi:0.9 params

let cost_points results =
  Array.of_list (List.map (fun (u, r) -> (u, r.Sim.write_cost)) results)

let fig4 () =
  header
    "Figure 4 - simulated write cost vs disk capacity utilisation \
     (greedy cleaner)"
    "LFS uniform ~5.5 at 75%; hot-and-cold (greedy+age-sort) is WORSE \
     than uniform - locality hurts the greedy policy";
  let base = sim_base () in
  let uniform = sweep { base with pattern = Access.Uniform; policy = greedy_in } in
  let hotcold =
    sweep { base with pattern = Access.default_hot_cold; policy = greedy_age }
  in
  let novar =
    Array.init 16 (fun i ->
        let u = 0.9 *. float_of_int i /. 15.0 in
        (u, Lfs_sim.Write_cost.lfs ~u))
  in
  Plot.print ~y_max:14.0 ~x_label:"disk capacity utilisation"
    ~title:"write cost (simulator)"
    [
      { Plot.label = "no variance (2/(1-u))"; points = novar };
      { Plot.label = "LFS uniform (greedy)"; points = cost_points uniform };
      { Plot.label = "LFS hot-and-cold (greedy+age)"; points = cost_points hotcold };
      { Plot.label = "FFS today"; points = [| (0.0, 10.0); (0.9, 10.0) |] };
      { Plot.label = "FFS improved"; points = [| (0.0, 4.0); (0.9, 4.0) |] };
    ];
  Table.print ~title:"Write cost by utilisation"
    ~header:[ "util"; "uniform"; "hot-and-cold"; "no-variance" ]
    (List.map2
       (fun (u, a) (_, b) ->
         [
           Table.fmt_float u;
           Table.fmt_float a.Sim.write_cost;
           Table.fmt_float b.Sim.write_cost;
           Table.fmt_float (Lfs_sim.Write_cost.lfs ~u);
         ])
       uniform hotcold)

let print_histogram_table title rows =
  Table.print ~title
    ~header:("utilisation" :: List.map fst rows)
    (List.init 10 (fun i ->
         let lo = float_of_int i /. 10.0 in
         Printf.sprintf "%.1f-%.1f" lo (lo +. 0.1)
         :: List.map
              (fun (_, h) ->
                let total = ref 0.0 in
                Array.iter
                  (fun (x, f) ->
                    if x >= lo && x < lo +. 0.1 then total := !total +. f)
                  (Histogram.to_series h);
                pct !total)
              rows))

let fig5 () =
  header "Figure 5 - segment utilisation distributions, greedy cleaner @75%"
    "hot-and-cold is skewed toward the cleaning point (~0.7-0.8); \
     uniform is broader and lower";
  let base = { (sim_base ()) with utilization = 0.75 } in
  let uni = Sim.run { base with pattern = Access.Uniform; policy = greedy_in } in
  let hc =
    Sim.run { base with pattern = Access.default_hot_cold; policy = greedy_age }
  in
  Plot.print ~x_label:"segment utilisation" ~title:"fraction of segments"
    [
      { Plot.label = "uniform"; points = Histogram.to_series uni.Sim.cleaner_histogram };
      { Plot.label = "hot-and-cold"; points = Histogram.to_series hc.Sim.cleaner_histogram };
    ];
  print_histogram_table "Cleaner-visible segment utilisation"
    [ ("uniform", uni.Sim.cleaner_histogram); ("hot-and-cold", hc.Sim.cleaner_histogram) ];
  Printf.printf "Avg cleaned u: uniform %.2f, hot-and-cold %.2f\n"
    uni.Sim.avg_cleaned_u hc.Sim.avg_cleaned_u

let fig6 () =
  header "Figure 6 - segment utilisation distribution with cost-benefit @75%"
    "cost-benefit yields a bimodal distribution: cold segments cleaned \
     around 75% utilisation, hot around 15%";
  let base =
    { (sim_base ()) with utilization = 0.75; pattern = Access.default_hot_cold }
  in
  let greedy = Sim.run { base with policy = greedy_age } in
  let cb = Sim.run { base with policy = cb_age } in
  Plot.print ~x_label:"segment utilisation" ~title:"fraction of segments"
    [
      { Plot.label = "LFS cost-benefit"; points = Histogram.to_series cb.Sim.cleaner_histogram };
      { Plot.label = "LFS greedy"; points = Histogram.to_series greedy.Sim.cleaner_histogram };
    ];
  print_histogram_table "Cleaner-visible segment utilisation"
    [ ("cost-benefit", cb.Sim.cleaner_histogram); ("greedy", greedy.Sim.cleaner_histogram) ];
  Printf.printf "Avg cleaned u: cost-benefit %.2f vs greedy %.2f\n"
    cb.Sim.avg_cleaned_u greedy.Sim.avg_cleaned_u

let fig7 () =
  header "Figure 7 - write cost including the cost-benefit policy"
    "cost-benefit is substantially better than greedy for hot-and-cold, \
     especially above 60% utilisation (paper: ~7 vs ~14 at 90%)";
  let base = { (sim_base ()) with pattern = Access.default_hot_cold } in
  let greedy = sweep { base with policy = greedy_age } in
  let cb = sweep { base with policy = cb_age } in
  Plot.print ~y_max:14.0 ~x_label:"disk capacity utilisation"
    ~title:"write cost (simulator)"
    [
      { Plot.label = "LFS greedy"; points = cost_points greedy };
      { Plot.label = "LFS cost-benefit"; points = cost_points cb };
      { Plot.label = "FFS today"; points = [| (0.0, 10.0); (0.9, 10.0) |] };
      { Plot.label = "FFS improved"; points = [| (0.0, 4.0); (0.9, 4.0) |] };
    ];
  Table.print ~title:"Write cost by utilisation (hot-and-cold)"
    ~header:[ "util"; "greedy"; "cost-benefit"; "improvement" ]
    (List.map2
       (fun (u, g) (_, c) ->
         [
           Table.fmt_float u;
           Table.fmt_float g.Sim.write_cost;
           Table.fmt_float c.Sim.write_cost;
           pct (1.0 -. (c.Sim.write_cost /. g.Sim.write_cost));
         ])
       greedy cb)

(* ------------------------------------------------------------------ *)
(* Figure 8: small-file performance                                     *)
(* ------------------------------------------------------------------ *)

(* Sprite LFS packs small files tightly in the log (the paper's 17%-busy
   create phase implies ~1 KB of log per 1 KB file), which we model with
   a 1 KB-block LFS; SunOS FFS runs with 4 KB blocks. *)
let fig8_lfs () =
  let geom =
    { (Lfs_disk.Geometry.wren_iv ~blocks:131072) with block_size = 1024 }
  in
  let disk = Lfs_disk.Vdev.of_disk (Lfs_disk.Disk.create geom) in
  let config =
    {
      Lfs_core.Config.default with
      block_size = 1024;
      seg_blocks = 1024;
      write_buffer_blocks = 1024;
      cache_blocks = 16384;
      max_inodes = 32768;
    }
  in
  Lfs_core.Fs.format disk config;
  W.Fsops.of_lfs (Lfs_core.Fs.mount disk)

let fig8_ffs () = W.Fsops.fresh_ffs (Lfs_disk.Geometry.wren_iv ~blocks:32768)

let fig8 () =
  header "Figure 8 - small-file performance (10000 x 1 KB create/read/delete)"
    "LFS ~10x SunOS for create and delete; comparable for read; LFS \
     create is CPU-bound (disk ~17% busy) so it scales with CPU speed, \
     SunOS is disk-bound (~85%) and does not";
  let p =
    if !quick then { W.Smallfile.default_params with nfiles = 2000 }
    else W.Smallfile.default_params
  in
  let lfs_ops = fig8_lfs () in
  let lfs =
    W.Smallfile.run
      ~on_phase:(fun ph ->
        dump_metrics
          ~title:
            ("fig8 LFS after " ^ W.Smallfile.phase_name ph.W.Smallfile.phase)
          (lfs_ops.W.Fsops.metrics ()))
      p lfs_ops
  in
  let ffs = W.Smallfile.run p (fig8_ffs ()) in
  let row (r : W.Smallfile.result) =
    r.W.Smallfile.fs_name
    :: List.concat_map
         (fun (ph : W.Smallfile.phase_result) ->
           [
             Printf.sprintf "%.0f/s" ph.W.Smallfile.files_per_sec;
             pct ph.W.Smallfile.disk_busy_frac;
           ])
         r.W.Smallfile.phases
  in
  Table.print ~title:"Figure 8(a): files/sec and disk busy fraction"
    ~header:[ "system"; "create"; "busy"; "read"; "busy"; "delete"; "busy" ]
    [ row lfs; row ffs ];
  Table.print
    ~title:"Figure 8(b): predicted create rate on faster CPUs (same disk)"
    ~header:[ "system"; "Sun4"; "2*Sun4"; "4*Sun4" ]
    (List.map
       (fun (r : W.Smallfile.result) ->
         r.W.Smallfile.fs_name
         :: List.map
              (fun k ->
                Printf.sprintf "%.0f/s"
                  (W.Smallfile.predict_create p r ~cpu_multiple:k))
              [ 1.0; 2.0; 4.0 ])
       [ lfs; ffs ]);
  let rate phase (r : W.Smallfile.result) =
    match
      List.find_opt (fun ph -> ph.W.Smallfile.phase = phase) r.W.Smallfile.phases
    with
    | Some ph -> ph.W.Smallfile.files_per_sec
    | None -> 0.0
  in
  Printf.printf "Speedups LFS/FFS: create %.1fx, read %.1fx, delete %.1fx\n"
    (rate W.Smallfile.Create lfs /. rate W.Smallfile.Create ffs)
    (rate W.Smallfile.Read lfs /. rate W.Smallfile.Read ffs)
    (rate W.Smallfile.Delete lfs /. rate W.Smallfile.Delete ffs)

(* ------------------------------------------------------------------ *)
(* Figure 9: large-file performance                                     *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header
    "Figure 9 - large-file performance (seq write/read, random \
     write/read, seq reread)"
    "LFS faster for all writes (random writes become sequential); equal \
     random reads; slower only for sequential reread of a randomly \
     written file";
  let p =
    if !quick then { W.Largefile.default_params with file_mb = 8 }
    else W.Largefile.default_params
  in
  let geom = Lfs_disk.Geometry.wren_iv ~blocks:(p.W.Largefile.file_mb * 256 * 5) in
  let lfs = W.Largefile.run p (W.Fsops.fresh_lfs geom) in
  let ffs = W.Largefile.run p (W.Fsops.fresh_ffs geom) in
  (* "A newer version of SunOS groups writes [16] and should therefore
     have performance equivalent to Sprite LFS" — test that claim. *)
  let clustered =
    W.Largefile.run p
      (W.Fsops.fresh_ffs
         ~config:
           { Lfs_ffs.Ffs.default_config with Lfs_ffs.Ffs.cluster_writes = true }
         geom)
  in
  let clustered =
    { clustered with W.Largefile.fs_name = "SunOS + clustering" }
  in
  let row (r : W.Largefile.result) =
    r.W.Largefile.fs_name
    :: List.map
         (fun (ph : W.Largefile.phase_result) ->
           Printf.sprintf "%.0f" ph.W.Largefile.kbytes_per_sec)
         r.W.Largefile.phases
  in
  Table.print ~title:"kilobytes/sec per phase"
    ~header:
      [ "system"; "write seq"; "read seq"; "write rand"; "read rand"; "reread seq" ]
    [ row lfs; row ffs; row clustered ];
  let phase_rate name (r : W.Largefile.result) =
    match
      List.find_opt (fun ph -> ph.W.Largefile.phase = name) r.W.Largefile.phases
    with
    | Some ph -> ph.W.Largefile.kbytes_per_sec
    | None -> 0.0
  in
  Printf.printf
    "Random-write speedup LFS/FFS: %.1fx; reread penalty FFS/LFS: %.1fx\n"
    (phase_rate W.Largefile.Rand_write lfs /. phase_rate W.Largefile.Rand_write ffs)
    (phase_rate W.Largefile.Reread ffs /. phase_rate W.Largefile.Reread lfs)

(* ------------------------------------------------------------------ *)
(* Table 1: data-structure inventory (documentation check)              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1 - on-disk data structures"
    "inode, inode map, indirect block, segment summary, segment usage \
     table, superblock, checkpoint region, directory change log";
  Table.print
    ~header:[ "structure"; "location"; "module" ]
    [
      [ "Inode (10 direct + indirect + dbl-indirect)"; "log"; "Lfs_core.Inode" ];
      [ "Inode map (location, version, atime)"; "log"; "Lfs_core.Inode_map" ];
      [ "Indirect block"; "log"; "Lfs_core.Filemap" ];
      [ "Segment summary"; "log"; "Lfs_core.Summary" ];
      [ "Segment usage table"; "log"; "Lfs_core.Seg_usage" ];
      [ "Superblock"; "fixed"; "Lfs_core.Superblock" ];
      [ "Checkpoint region (x2, alternating)"; "fixed"; "Lfs_core.Checkpoint" ];
      [ "Directory change log"; "log"; "Lfs_core.Dir_log" ];
    ];
  print_endline
    "Note: as in Sprite LFS, there is neither a free-block list nor a bitmap."

(* ------------------------------------------------------------------ *)
(* Table 2 + Figure 10 + Table 4: production file systems               *)
(* ------------------------------------------------------------------ *)

let production_results = ref []

let run_production () =
  if !production_results = [] then begin
    let scale = if !quick then 0.5 else 1.0 in
    production_results :=
      List.map (fun spec -> W.Production.run ~scale spec) W.Production.all
  end;
  !production_results

let table2 () =
  header "Table 2 - cleaning statistics of five production file systems"
    "write costs 1.2-1.6 - far below the simulator's prediction at the \
     same utilisation; many cleaned segments are empty; u far below the \
     disk average";
  let results = run_production () in
  Table.print
    ~header:
      [ "file system"; "avg file"; "in use"; "segs cleaned"; "empty"; "avg u"; "write cost" ]
    (List.map
       (fun (r : W.Production.result) ->
         [
           r.W.Production.spec.W.Production.name;
           Printf.sprintf "%.1f KB" (r.W.Production.avg_file_size /. 1024.0);
           pct r.W.Production.in_use;
           string_of_int r.W.Production.segments_cleaned;
           pct r.W.Production.empty_fraction;
           Table.fmt_float r.W.Production.avg_nonempty_u;
           Table.fmt_float r.W.Production.write_cost;
         ])
       results);
  List.iter
    (fun (r : W.Production.result) ->
      let u = r.W.Production.in_use in
      let predicted =
        if u < 0.2 then 1.3 else Lfs_sim.Write_cost.lfs ~u:(Float.max 0.05 (u -. 0.25))
      in
      Printf.printf "  %-12s measured %.2f vs simulator-style prediction ~%.1f\n"
        r.W.Production.spec.W.Production.name r.W.Production.write_cost predicted)
    results

let fig10 () =
  header "Figure 10 - /user6 segment utilisation snapshot"
    "strongly bimodal: many full segments and many empty ones";
  match run_production () with
  | user6 :: _ ->
      Plot.print ~x_label:"segment utilisation" ~title:"fraction of segments"
        [ { Plot.label = "/user6"; points = Histogram.to_series user6.W.Production.histogram } ];
      print_histogram_table "/user6 distribution"
        [ ("/user6", user6.W.Production.histogram) ]
  | [] -> ()

(* The metadata kinds' share of a per-kind log-bandwidth breakdown, in
   which inode and dir-log bytes carried in summaries count under their
   own kinds ({!Lfs_core.Fs_stats.log_bandwidth_fraction}). *)
let metadata_share bw =
  List.fold_left
    (fun acc (k, f) ->
      match k with
      | Lfs_core.Types.Inode_block | Lfs_core.Types.Imap | Lfs_core.Types.Seg_usage
      | Lfs_core.Types.Summary | Lfs_core.Types.Dir_log ->
          acc +. f
      | Lfs_core.Types.Data | Lfs_core.Types.Indirect | Lfs_core.Types.Dindirect -> acc)
    0.0 bw

let table4 () =
  header "Table 4 - disk space and log bandwidth by block type (/user6)"
    ">99% of live data is file data + indirect blocks; metadata is a \
     much larger share of the log bandwidth (~13%) because the short \
     checkpoint interval rewrites it constantly";
  match run_production () with
  | user6 :: _ ->
      let live = user6.W.Production.live_breakdown in
      let bw = user6.W.Production.log_bandwidth in
      Table.print
        ~header:[ "block type"; "live data"; "log bandwidth" ]
        (List.map
           (fun kind ->
             [
               Lfs_core.Types.block_kind_name kind;
               Printf.sprintf "%.1f%%" (100.0 *. List.assoc kind live);
               Printf.sprintf "%.1f%%" (100.0 *. List.assoc kind bw);
             ])
           Lfs_core.Types.all_block_kinds);
      Printf.printf "Metadata share of log bandwidth: %s\n" (pct (metadata_share bw))
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Table 3: recovery time                                               *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3 - recovery time (seconds) by file size and data recovered"
    "recovery time is dominated by the number of files recovered: rows \
     1 KB >> 10 KB >> 100 KB; columns grow with data written";
  let grid = W.Recovery_bench.table3 ~disk_mb:(if !quick then 96 else 160) () in
  let paper = function
    | 1, 1 -> "1" | 1, 10 -> "21" | 1, 50 -> "132"
    | 10, 10 -> "3" | 10, 50 -> "17" | 100, 10 -> "1" | 100, 50 -> "8"
    | _ -> "<1"
  in
  (* Disk is the modelled device time of the roll-forward; CPU charges
     half an operation per inode recovered and one block's handling per
     payload block read and checksummed. *)
  Table.print
    ~header:[ "file size"; "data"; "disk"; "CPU"; "total"; "paper" ]
    (List.map
       (fun (file_kb, data_mb, (r : W.Recovery_bench.result)) ->
         [
           Printf.sprintf "%d KB" file_kb;
           Printf.sprintf "%d MB" data_mb;
           Printf.sprintf "%.2f" r.W.Recovery_bench.disk_s;
           Printf.sprintf "%.2f" r.W.Recovery_bench.cpu_s;
           Printf.sprintf "%.2f" r.W.Recovery_bench.recovery_s;
           paper (file_kb, data_mb);
         ])
       grid);
  (* Where the disk time goes: each phase of the roll-forward, from the
     device's IO counters around it. *)
  (match grid with
  | [] -> ()
  | (_, _, r0) :: _ ->
      Table.print ~title:"Disk time by phase (s), read operations in brackets"
        ~header:
          ("file size" :: "data"
          :: List.map (fun p -> p.Lfs_core.Fs.phase) r0.W.Recovery_bench.phases)
        (List.map
           (fun (file_kb, data_mb, (r : W.Recovery_bench.result)) ->
             Printf.sprintf "%d KB" file_kb
             :: Printf.sprintf "%d MB" data_mb
             :: List.map
                  (fun (p : Lfs_core.Fs.recovery_phase) ->
                    Printf.sprintf "%.2f (%d)" p.Lfs_core.Fs.disk_s p.Lfs_core.Fs.reads)
                  r.W.Recovery_bench.phases)
           grid));
  (* The paper bounds recovery by checkpointing per volume: "maximum
     recovery time would grow by one second for every 70 seconds of
     checkpoint interval" at 150 MB/hour, i.e. ~1 s per 2.9 MB. *)
  (match
     ( List.find_opt (fun (f, d, _) -> f = 10 && d = 1) grid,
       List.find_opt (fun (f, d, _) -> f = 10 && d = 50) grid )
   with
  | Some (_, _, r1), Some (_, _, r50) ->
      let per_mb f = (f r50 -. f r1) /. 49.0 in
      Printf.printf
        "Marginal cost (10 KB files): %.2f s of recovery per MB written \
         since the checkpoint, %.2f disk + %.2f CPU (paper: ~0.35 s/MB)\n"
        (per_mb (fun r -> r.W.Recovery_bench.recovery_s))
        (per_mb (fun r -> r.W.Recovery_bench.disk_s))
        (per_mb (fun r -> r.W.Recovery_bench.cpu_s))
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Recovery time under injected crashes (Table 3 companion)             *)
(* ------------------------------------------------------------------ *)

let crashsweep () =
  header "Recovery time vs log length under injected power failures"
    "recovery cost grows linearly with the log written since the \
     checkpoint and is unaffected by how the final write died (torn, \
     dropped or reordered): the tail checksum discards it either way";
  let disk_mb = if !quick then 96 else 160 in
  let sweep = if !quick then [ 1; 5 ] else [ 1; 2; 5; 10 ] in
  let cell data_mb mode =
    let r =
      W.Recovery_bench.run_crashed ~mode ~seed:data_mb
        { W.Recovery_bench.file_kb = 10; data_mb; disk_mb;
          cpu = W.Cpu_model.sun4_260 }
    in
    Printf.sprintf "%.2f (%d files)" r.W.Recovery_bench.recovery_s
      r.W.Recovery_bench.files_recovered
  in
  Table.print
    ~header:[ "log since ckpt"; "torn"; "dropped"; "reordered" ]
    (List.map
       (fun data_mb ->
         Printf.sprintf "%d MB" data_mb
         :: List.map (cell data_mb)
              [ Lfs_disk.Vdev_fault.Torn; Dropped; Reordered ])
       sweep)

(* ------------------------------------------------------------------ *)
(* The modified Andrew benchmark (Section 5's 20% observation)          *)
(* ------------------------------------------------------------------ *)

let andrew () =
  header "Modified Andrew benchmark - whole-application comparison"
    "Sprite LFS is only ~20% faster than SunOS: the benchmark has a CPU      utilisation over 80%, so removing the synchronous writes is all      that disk management can contribute";
  let p = W.Andrew.default_params in
  let geom = Lfs_disk.Geometry.wren_iv ~blocks:8192 in
  let lfs = W.Andrew.run p (W.Fsops.fresh_lfs geom) in
  let ffs = W.Andrew.run p (W.Fsops.fresh_ffs geom) in
  let row (r : W.Andrew.result) =
    r.W.Andrew.fs_name
    :: (List.map
          (fun (ph : W.Andrew.phase_result) ->
            Printf.sprintf "%.1f" ph.W.Andrew.elapsed_s)
          r.W.Andrew.phases
       @ [ Printf.sprintf "%.1f" r.W.Andrew.total_s; pct r.W.Andrew.cpu_utilization ])
  in
  Table.print ~title:"Elapsed seconds per phase"
    ~header:[ "system"; "mkdir"; "copy"; "stat"; "read"; "compile"; "total"; "cpu util" ]
    [ row lfs; row ffs ];
  Printf.printf "LFS speedup: %.0f%% (paper: ~20%%)
"
    (100.0 *. ((ffs.W.Andrew.total_s /. lfs.W.Andrew.total_s) -. 1.0))

(* ------------------------------------------------------------------ *)
(* Recovery vs fsck (Section 4's motivation, not a numbered figure)     *)
(* ------------------------------------------------------------------ *)

let fsckcmp () =
  header
    "Recovery vs fsck - LFS roll-forward against a full Unix      consistency scan"
    "Section 4: Unix must scan all metadata on disk (tens of minutes,      growing with disk size); LFS examines only the log written since      the last checkpoint";
  let busy disk = (Lfs_disk.Vdev.stats disk).Lfs_disk.Io_stats.busy_s in
  let fill_paths = 200 in
  let row disk_mb =
    let blocks = disk_mb * 256 in
    (* FFS: populate, then time the full fsck scan. *)
    let ffs_disk = Lfs_disk.Vdev.of_disk (Lfs_disk.Disk.create (Lfs_disk.Geometry.wren_iv ~blocks)) in
    Lfs_ffs.Ffs.format ffs_disk Lfs_ffs.Ffs.default_config;
    let ffs = Lfs_ffs.Ffs.mount ffs_disk in
    for i = 0 to fill_paths - 1 do
      Lfs_ffs.Ffs.write_path ffs (Printf.sprintf "/f%d" i)
        (Bytes.make ((disk_mb * 2048) / fill_paths) 'f')
    done;
    Lfs_ffs.Ffs.sync ffs;
    let t0 = busy ffs_disk in
    Lfs_ffs.Ffs.fsck_scan ffs;
    let ffs_fsck_s = busy ffs_disk -. t0 in
    (* LFS: same fill, checkpoint, 2 MB of post-checkpoint work, crash,
       time the roll-forward. *)
    let lfs_disk = Lfs_disk.Vdev.of_disk (Lfs_disk.Disk.create (Lfs_disk.Geometry.wren_iv ~blocks)) in
    Lfs_core.Fs.format lfs_disk
      { Lfs_core.Config.default with max_inodes = 4096 };
    let lfs = Lfs_core.Fs.mount lfs_disk in
    for i = 0 to fill_paths - 1 do
      Lfs_core.Fs.write_path lfs (Printf.sprintf "/f%d" i)
        (Bytes.make ((disk_mb * 2048) / fill_paths) 'f')
    done;
    Lfs_core.Fs.checkpoint lfs;
    for i = 0 to 15 do
      Lfs_core.Fs.write_path lfs (Printf.sprintf "/post%d" i)
        (Bytes.make 131072 'p')
    done;
    Lfs_core.Fs.sync lfs;
    let t0 = busy lfs_disk in
    let _fs, _report = Lfs_core.Fs.recover lfs_disk in
    let lfs_recover_s = busy lfs_disk -. t0 in
    [
      Printf.sprintf "%d MB" disk_mb;
      Printf.sprintf "%.1f s" ffs_fsck_s;
      Printf.sprintf "%.1f s" lfs_recover_s;
      Printf.sprintf "%.0fx" (ffs_fsck_s /. lfs_recover_s);
    ]
  in
  Table.print
    ~title:"Consistency-restore time after a crash (2 MB written since checkpoint)"
    ~header:[ "disk"; "FFS fsck scan"; "LFS roll-forward"; "speedup" ]
    (List.map row (if !quick then [ 32; 64 ] else [ 32; 64; 128; 256 ]));
  print_endline
    "FFS's scan grows with the disk; LFS's roll-forward depends only on
     the data written since the last checkpoint."

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablate () =
  header "Ablations - cleaning policy, grouping, segment size"
    "(not in the paper; supports its design choices)";
  let base =
    { (sim_base ()) with utilization = 0.75; pattern = Access.default_hot_cold }
  in
  Table.print ~title:"Policy x grouping, hot-and-cold @75% (simulator)"
    ~header:[ "selection"; "grouping"; "write cost"; "avg cleaned u" ]
    (List.map
       (fun (sel, grp) ->
         let r = Sim.run { base with policy = { selection = sel; grouping = grp } } in
         [
           Config.cleaning_policy_name sel;
           Config.grouping_policy_name grp;
           Table.fmt_float r.Sim.write_cost;
           Table.fmt_float r.Sim.avg_cleaned_u;
         ])
       [
         (Config.Greedy, Config.In_order);
         (Config.Greedy, Config.Age_sort);
         (Config.Cost_benefit, Config.In_order);
         (Config.Cost_benefit, Config.Age_sort);
       ]);
  (* "We tried varying the degree of locality (e.g. 95% of accesses to
     5% of data) and found that performance got worse and worse as the
     locality increased" — Section 3.5, for the greedy cleaner. *)
  Table.print ~title:"Degree of locality, greedy+age-sort @75% (simulator)"
    ~header:[ "pattern"; "write cost (greedy)"; "write cost (cost-benefit)" ]
    (List.map
       (fun (label, pattern) ->
         let run sel =
           (Sim.run
              {
                base with
                pattern;
                policy = { selection = sel; grouping = Config.Age_sort };
              })
             .Sim.write_cost
         in
         [
           label;
           Table.fmt_float (run Config.Greedy);
           Table.fmt_float (run Config.Cost_benefit);
         ])
       [
         ("uniform", Access.Uniform);
         ("80/20", Access.Hot_cold { hot_fraction = 0.2; hot_traffic = 0.8 });
         ("90/10", Access.default_hot_cold);
         ("95/5", Access.Hot_cold { hot_fraction = 0.05; hot_traffic = 0.95 });
       ]);
  Table.print ~title:"Segment size (uniform @75%, greedy)"
    ~header:[ "seg blocks"; "write cost" ]
    (List.map
       (fun spseg ->
         let r =
           Sim.run
             {
               base with
               pattern = Access.Uniform;
               policy = greedy_in;
               blocks_per_seg = spseg;
               nsegs = 256 * 256 / spseg;
             }
         in
         [ string_of_int spseg; Table.fmt_float r.Sim.write_cost ])
       [ 64; 128; 256; 512 ]);
  Table.print ~title:"Full FS: cleaning policy on the /user6 workload"
    ~header:[ "policy"; "write cost"; "avg cleaned u" ]
    (List.map
       (fun policy ->
         let spec = { W.Production.user6 with W.Production.seed = 777 } in
         let r = W.Production.run ~scale:0.5 ~policy spec in
         [
           Lfs_core.Config.cleaning_policy_name policy;
           Table.fmt_float r.W.Production.write_cost;
           Table.fmt_float r.W.Production.avg_nonempty_u;
         ])
       [
         Lfs_core.Config.Cost_benefit;
         Lfs_core.Config.Greedy;
         Lfs_core.Config.Age_only;
         Lfs_core.Config.Random_victim;
       ]);
  (* Section 3.4's untried idea: read only the live blocks of a victim
     instead of the whole segment. *)
  Table.print
    ~title:"Cleaner read policy on the /user6 workload (Section 3.4 footnote)"
    ~header:[ "read policy"; "cleaner blocks read"; "write cost" ]
    (List.map
       (fun cleaner_read ->
         let spec = { W.Production.user6 with W.Production.seed = 999 } in
         let r = W.Production.run ~scale:0.5 ~cleaner_read spec in
         [
           Lfs_core.Config.cleaner_read_policy_name cleaner_read;
           string_of_int r.W.Production.cleaner_blocks_read;
           Table.fmt_float r.W.Production.write_cost;
         ])
       [ Lfs_core.Config.Whole_segment; Lfs_core.Config.Live_blocks ]);
  (* Section 5.4: the paper blames its 13% metadata bandwidth on the
     "much too short" 30 s checkpoint interval. *)
  Table.print
    ~title:"Checkpoint interval vs metadata share of log bandwidth (/user6)"
    ~header:[ "interval (ops)"; "metadata bandwidth"; "write cost" ]
    (List.map
       (fun interval ->
         let spec =
           {
             W.Production.user6 with
             W.Production.seed = 888;
             checkpoint_interval_ops = interval;
           }
         in
         let r = W.Production.run ~scale:0.5 spec in
         [
           string_of_int interval;
           pct (metadata_share r.W.Production.log_bandwidth);
           Table.fmt_float r.W.Production.write_cost;
         ])
       [ 25; 100; 500; 2000 ])

(* ------------------------------------------------------------------ *)
(* Vdev_stripe: log bandwidth vs spindle count                          *)
(* ------------------------------------------------------------------ *)

(* The paper's large-write regime is bandwidth-limited (Section 5.1);
   striping the log across N disks multiplies that bandwidth because
   every segment-sized transfer fans out into one contiguous transfer
   per spindle.  Modelled elapsed time is the busiest spindle (they
   work in parallel); the aggregated Io_stats come from the stripe's
   own Io_stats.merge-based [stats]. *)
let stripe () =
  header "Vdev_stripe - modelled log-write bandwidth vs spindle count"
    "RAID-0 under the log: sequential-log bandwidth scales with the     number of spindles";
  let data_mb = if !quick then 16 else 48 in
  let chunk = Bytes.make (1024 * 1024) 'w' in
  let row n =
    let disks =
      Array.init n (fun _ ->
          Lfs_disk.Disk.create (Lfs_disk.Geometry.wren_iv ~blocks:32768))
    in
    let dev = Lfs_disk.Vdev_stripe.create (Array.map Lfs_disk.Vdev.of_disk disks) in
    let config =
      { Lfs_core.Config.default with write_buffer_blocks = 256; max_inodes = 4096 }
    in
    Lfs_core.Fs.format dev config;
    let fs = Lfs_core.Fs.mount dev in
    (* The mount already registered the stripe itself; add a gauge set
       per spindle so the dump shows the fan-out. *)
    if !metrics then
      Array.iteri
        (fun i d ->
          Lfs_disk.Vdev.register_metrics
            ~prefix:(Printf.sprintf "vdev.spindle%d" i)
            (Lfs_core.Fs.metrics fs)
            (Lfs_disk.Vdev.of_disk d))
        disks;
    let before = Lfs_disk.Io_stats.copy (Lfs_disk.Vdev.stats dev) in
    let before_busy =
      Array.map (fun d -> (Lfs_disk.Disk.stats d).Lfs_disk.Io_stats.busy_s) disks
    in
    let ino = Lfs_core.Fs.create_path fs "/big" in
    for i = 0 to data_mb - 1 do
      Lfs_core.Fs.write fs ino ~off:(i * 1024 * 1024) chunk;
      if i mod 8 = 7 then Lfs_core.Fs.sync fs
    done;
    Lfs_core.Fs.sync fs;
    let agg = Lfs_disk.Io_stats.diff (Lfs_disk.Vdev.stats dev) before in
    let elapsed =
      (* spindles run in parallel: the busiest one bounds completion *)
      Array.to_list disks
      |> List.mapi (fun i d ->
             (Lfs_disk.Disk.stats d).Lfs_disk.Io_stats.busy_s -. before_busy.(i))
      |> List.fold_left Float.max 0.0
    in
    let mb_written =
      float_of_int (Lfs_disk.Io_stats.bytes_written ~block_size:4096 agg)
      /. (1024.0 *. 1024.0)
    in
    Printf.printf "  N=%d aggregated: %s\n" n
      (Format.asprintf "%a" Lfs_disk.Io_stats.pp agg);
    dump_metrics
      ~title:(Printf.sprintf "stripe N=%d" n)
      (Some (Lfs_core.Fs.metrics fs));
    [
      string_of_int n;
      Printf.sprintf "%.0f MB" mb_written;
      Printf.sprintf "%.1f s" elapsed;
      Printf.sprintf "%.2f MB/s" (mb_written /. elapsed);
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf "Log-write bandwidth, %d MB of large-file writes" data_mb)
    ~header:[ "spindles"; "log written"; "elapsed (busiest disk)"; "bandwidth" ]
    (List.map row [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* The serving engine: throughput vs concurrency (Figure 8's            *)
(* multi-client analogue)                                               *)
(* ------------------------------------------------------------------ *)

(* Sweep client counts over LFS and FFS behind the request-serving
   engine.  LFS batches the durable requests of concurrent sessions into
   shared log flushes, while FFS pays synchronous metadata IO per request
   and saturates.  The closing line reports each system's disk time per
   op at the smallest and largest client count, as measured. *)
let server () =
  header
    "Server - throughput and tail latency vs client count (serving engine)"
    "group commit amortises the log flush across concurrent clients: \
     LFS throughput scales with offered load while FFS saturates on \
     per-op synchronous writes; p95/p99 from the engine's latency \
     histograms";
  let module Engine = Lfs_server.Engine in
  let sweep = if !quick then [ 1; 4; 8 ] else [ 1; 2; 4; 8; 16 ] in
  let ops = if !quick then 50 else 100 in
  let run fresh clients =
    let fs = fresh (Lfs_disk.Geometry.wren_iv ~blocks:16384) in
    let cfg =
      { Engine.default with Engine.clients; ops_per_client = ops }
    in
    let r = Engine.run cfg fs in
    dump_metrics
      ~title:(Printf.sprintf "server %s N=%d" r.Engine.fs_name clients)
      (Some r.Engine.metrics);
    (clients, r)
  in
  let disk_ms r = 1000.0 *. r.Engine.disk_s /. float_of_int r.Engine.completed in
  let row (clients, r) =
    [
      r.Engine.fs_name;
      string_of_int clients;
      Printf.sprintf "%.1f" r.Engine.throughput_ops_s;
      Printf.sprintf "%.2f" (disk_ms r);
      (if Float.is_nan r.Engine.mean_batch then "-"
       else Printf.sprintf "%.2f" r.Engine.mean_batch);
      Printf.sprintf "%.1f"
        (latency_ms r.Engine.metrics "server.latency.write.s" `P95);
      string_of_int r.Engine.shed;
    ]
  in
  let lfs = List.map (run W.Fsops.fresh_lfs) sweep in
  let ffs = List.map (run W.Fsops.fresh_ffs) sweep in
  Table.print
    ~title:
      (Printf.sprintf "%d ops/client, 50 ms think, group-commit window 10 ms"
         ops)
    ~header:
      [ "system"; "clients"; "ops/s"; "disk ms/op"; "mean batch";
        "p95 write ms"; "shed" ]
    (List.map row (lfs @ ffs));
  let last l = List.nth l (List.length l - 1) in
  Printf.printf
    "disk ms/op from %d to %d clients: LFS %.2f -> %.2f, FFS %.2f -> %.2f.\n"
    (List.hd sweep) (last sweep)
    (disk_ms (snd (List.hd lfs))) (disk_ms (snd (last lfs)))
    (disk_ms (snd (List.hd ffs))) (disk_ms (snd (last ffs)))

(* ------------------------------------------------------------------ *)
(* IO depth: overlapped device requests through the submit/complete     *)
(* pipeline                                                             *)
(* ------------------------------------------------------------------ *)

(* Same offered load at every depth (think-time bound, the server has
   headroom), so the comparison isolates queueing: at depth 1 one
   request at a time has IO in flight, beside any group-commit flush or
   idle cleaner step; at depth N up to N requests overlap their
   transfers through the per-device C-LOOK elevator.  The win is in the
   latency tails, not the throughput. *)
let iodepth () =
  header
    "Server - request latency vs IO depth (submit/complete pipeline)"
    "overlapping device requests removes the serial-server queueing \
     delay: cached reads stop waiting behind durable writes and flush \
     barriers await only their own log batch; same think-time-bound \
     offered load at every depth";
  let module Engine = Lfs_server.Engine in
  let module Metrics = Lfs_obs.Metrics in
  let sweep = if !quick then [ 1; 4; 32 ] else [ 1; 2; 4; 8; 16; 32 ] in
  let ops = if !quick then 50 else 100 in
  let clients = 16 in
  let gauge m name =
    match Metrics.value m name with
    | Some (Metrics.Float f) -> f
    | _ -> Float.nan
  in
  let row io_depth =
    let fs = W.Fsops.fresh_lfs (Lfs_disk.Geometry.wren_iv ~blocks:16384) in
    let cfg =
      {
        Engine.default with
        Engine.clients;
        ops_per_client = ops;
        think_mean_s = 0.2;
        io_depth;
      }
    in
    let r = Engine.run cfg fs in
    let m = r.Engine.metrics in
    dump_metrics ~title:(Printf.sprintf "iodepth %d" io_depth) (Some m);
    [
      string_of_int io_depth;
      Printf.sprintf "%.1f" r.Engine.throughput_ops_s;
      Printf.sprintf "%.1f" (latency_ms m "server.latency.write.s" `P95);
      Printf.sprintf "%.1f" (latency_ms m "server.latency.write.s" `P99);
      Printf.sprintf "%.1f" (latency_ms m "server.latency.read.s" `P95);
      Printf.sprintf "%.3f" (gauge m "server.dev.queue_wait_s");
      Printf.sprintf "%.0f" (gauge m "server.dev.max_queue_depth");
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Sprite LFS, %d clients x %d ops, 200 ms think (same seed per depth)"
         clients ops)
    ~header:
      [ "io depth"; "ops/s"; "p95 write ms"; "p99 write ms"; "p95 read ms";
        "dev wait s"; "dev max q" ]
    (List.map row sweep);
  print_endline
    "deeper pipelines cut p95/p99 while throughput stays think-time bound."

(* ------------------------------------------------------------------ *)
(* Sharding: serve throughput vs shard count at equal total capacity    *)
(* ------------------------------------------------------------------ *)

(* The paper's single append-only log is also its single serialization
   point.  [Lfs_shard.Shard_router] mounts N complete LFS instances —
   each with its own device, log and cleaner — behind one namespace, so
   the same serving engine drives them unchanged and request IO spreads
   over N independent spindles.  Total device capacity is held constant
   across the sweep (the spec splits it evenly), so any win comes from
   parallelism, not from extra disk. *)
let shard () =
  header
    "Server - throughput vs shard count (multi-shard volumes)"
    "beyond the paper: N independent logs behind one namespace remove \
     the single-log serialization point; the serving engine's disk-bound \
     throughput scales with shard count at equal total capacity, and \
     per-shard cleaner metrics show no shard starves";
  let module Engine = Lfs_server.Engine in
  let module Metrics = Lfs_obs.Metrics in
  let sweep = [ 1; 2; 4 ] in
  let clients = 16 in
  let ops = if !quick then 100 else 150 in
  let blocks = 16384 in
  let results =
    List.map
      (fun shards ->
        let fs =
          Lfs_spec.Spec.fresh ~blocks
            (Lfs_spec.Spec.of_string (Printf.sprintf "shard:%d" shards))
        in
        let cfg =
          {
            Engine.default with
            Engine.clients;
            ops_per_client = ops;
            think_mean_s = 0.002;
            io_depth = 16;
            bg_clean = true;
          }
        in
        let r = Engine.run cfg fs in
        let fsm =
          match fs.W.Fsops.metrics () with
          | Some m -> m
          | None -> assert false
        in
        dump_metrics ~title:(Printf.sprintf "shard x%d" shards) (Some fsm);
        (shards, r, fsm))
      sweep
  in
  let cleaner_col fsm shards =
    (* segments cleaned per shard: every engaged shard's cleaner makes
       progress in the idle windows, none starves behind a neighbour *)
    String.concat "/"
      (List.init shards (fun i ->
           Printf.sprintf "%.0f"
             (Metrics.float_value fsm
                (Printf.sprintf "shard%d.fs.cleaner.segments_cleaned" i))))
  in
  Table.print
    ~title:
      (Printf.sprintf
         "%d clients x %d ops, 2 ms think, io-depth 16, bg-clean, %d blocks \
          total"
         clients ops blocks)
    ~header:
      [ "shards"; "ops/s"; "disk ms/op"; "mean batch"; "segs cleaned/shard" ]
    (List.map
       (fun (shards, r, fsm) ->
         [
           string_of_int shards;
           Printf.sprintf "%.1f" r.Engine.throughput_ops_s;
           Printf.sprintf "%.2f"
             (1000.0 *. r.Engine.disk_s /. float_of_int r.Engine.completed);
           (if Float.is_nan r.Engine.mean_batch then "-"
            else Printf.sprintf "%.2f" r.Engine.mean_batch);
           cleaner_col fsm shards;
         ])
       results);
  let tput shards =
    match List.find_opt (fun (s, _, _) -> s = shards) results with
    | Some (_, r, _) -> r.Engine.throughput_ops_s
    | None -> Float.nan
  in
  Printf.printf
    "1 -> 4 shards scales serve throughput %.2fx (independent logs, \
     cleaners and devices behind one namespace).\n"
    (tput 4 /. tput 1)

(* ------------------------------------------------------------------ *)
(* Background vs foreground cleaning at high disk utilisation           *)
(* ------------------------------------------------------------------ *)

(* The disk is prefilled to ~85% live with dead blocks scattered across
   the early segments, so the serving run must clean to keep going.
   Foreground-only: whole cleaning episodes land inside unlucky
   requests' service times — the p95/p99 write-latency cliff.  With
   --bg-clean the engine runs budgeted single-victim cleaner steps in
   idle windows ("clean during idle periods", paper Section 4), paced by
   the background watermarks, and the tail falls; foreground passes that
   remain (a victim's space returns only once its read has completed)
   set the p99. *)
let server_bgclean () =
  header
    "Server - background vs foreground cleaning at high disk utilisation"
    "idle-scheduled cleaner steps keep the clean pool above the \
     emergency threshold so foreground writers stop stalling on whole \
     cleaning episodes; same offered load, same seed, same disk image";
  let module Engine = Lfs_server.Engine in
  let module Fs = Lfs_core.Fs in
  let module Metrics = Lfs_obs.Metrics in
  let ops = if !quick then 80 else 200 in
  let clients = 8 in
  let write_size = 32768 in
  (* 512 KB segments on a 64 MB disk (128 segments) keep a single-victim
     background step a sub-second stall.  The background band is pinned
     to the foreground one (engage one segment above the emergency
     trigger, refill to the same stop), so both modes maintain the same
     clean pool over the same dirt.  That does not make the cleaning
     work equal: idle steps keep the pool topped up, so they clean
     more segments than the foreground cleaner does; the table's last
     lines print both totals.  Live-blocks reads halve what a
     mostly-dead victim costs. *)
  let bench_config =
    {
      Lfs_core.Config.default with
      seg_blocks = 128;
      write_buffer_blocks = 128;
      bg_clean_start = 5;
      bg_clean_stop = 8;
      cleaner_read = Lfs_core.Config.Live_blocks;
    }
  in
  let prefill () =
    let geom = Lfs_disk.Geometry.wren_iv ~blocks:16384 in
    let disk = Lfs_disk.Vdev.of_disk (Lfs_disk.Disk.create geom) in
    Fs.format disk bench_config;
    let fs = Fs.mount disk in
    (* The sessions' working set at full size first, so the measured run
       overwrites in place instead of growing the live set into the
       little headroom the disk has left. *)
    let ws = Bytes.make write_size 'w' in
    for c = 0 to clients - 1 do
      ignore (Fs.mkdir_path fs (Printf.sprintf "/c%d" c));
      for f = 0 to 31 do
        Fs.write_path fs (Printf.sprintf "/c%d/f%d" c f) ws
      done
    done;
    (* Fresh fill in 8-file groups (one segment each) until only a
       small clean pool remains above the foreground threshold. *)
    let payload = Bytes.make (16 * 4096) 'x' in
    ignore (Fs.mkdir_path fs "/fill");
    let group = ref 0 in
    while Fs.clean_segment_count fs > 12 do
      for f = 0 to 7 do
        Fs.write_path fs (Printf.sprintf "/fill/g%d_%d" !group f) payload
      done;
      incr group
    done;
    (* Scatter dirt: rewriting six of the eight files of every other
       group leaves the group's old segment three-quarters dead
       (u ~ 0.25) — profitable, plentiful dirt at constant live bytes,
       so both modes pick the same cheap victims and differ only in
       *when* they clean.  The foreground cleaner fires below its
       threshold while we churn; its prefill passes are snapshotted away
       before the measured run. *)
    for g = 0 to !group - 1 do
      if g mod 2 = 0 then
        for f = 0 to 5 do
          Fs.write_path fs (Printf.sprintf "/fill/g%d_%d" g f) payload
        done
    done;
    (* Top the pool back up to the stop watermark so both modes start
       from the same settled state — otherwise the initial client burst
       lands on a near-trigger pool before the first idle window and
       charges a start-transient foreground pass to the bg-clean run. *)
    Fs.clean fs;
    Fs.sync fs;
    fs
  in
  let counter m name =
    match Metrics.value m name with Some (Metrics.Int n) -> n | _ -> 0
  in
  let totals = ref [] in
  let row ~bg =
    let fs = prefill () in
    let m = Fs.metrics fs in
    let util0 = Fs.utilization fs in
    let fg_passes0 = counter m "fs.cleaner.fg.passes" in
    let fg0 = counter m "fs.cleaner.fg.segments" in
    let bg0 = counter m "fs.cleaner.bg.segments" in
    let cfg =
      {
        Engine.default with
        Engine.clients;
        ops_per_client = ops;
        write_size;
        (* Open-loop but unsaturated: ~4 req/s offered against a server
           good for 7+, so real idle windows exist for the background
           cleaner — and write latency measures service + flush wait,
           not unbounded queueing. *)
        think_mean_s = 2.0;
        bg_clean = bg;
      }
    in
    let r = Engine.run cfg (W.Fsops.of_lfs fs) in
    let fg_passes = counter m "fs.cleaner.fg.passes" - fg_passes0 in
    let fg_segs = counter m "fs.cleaner.fg.segments" - fg0 in
    let bg_segs = counter m "fs.cleaner.bg.segments" - bg0 in
    let p99 = latency_ms r.Engine.metrics "server.latency.write.s" `P99 in
    totals := (bg, (fg_segs, bg_segs, p99)) :: !totals;
    dump_metrics
      ~title:(Printf.sprintf "server bg-clean=%b" bg)
      (Some r.Engine.metrics);
    [
      (if bg then "bg-clean" else "fg-only");
      pct util0;
      Printf.sprintf "%.1f" r.Engine.throughput_ops_s;
      Printf.sprintf "%.2f"
        (1000.0 *. r.Engine.disk_s /. float_of_int r.Engine.completed);
      Printf.sprintf "%.1f"
        (latency_ms r.Engine.metrics "server.latency.write.s" `P95);
      Printf.sprintf "%.1f" p99;
      string_of_int fg_passes;
      string_of_int fg_segs;
      string_of_int bg_segs;
    ]
  in
  let rows = [ row ~bg:false; row ~bg:true ] in
  Table.print
    ~title:
      (Printf.sprintf
         "%d clients x %d ops, %d KB max writes (same seed both runs)"
         clients ops (write_size / 1024))
    ~header:
      [ "mode"; "start util"; "ops/s"; "disk ms/op"; "p95 write ms";
        "p99 write ms"; "fg passes"; "fg segs"; "bg segs" ]
    rows;
  match (List.assoc_opt false !totals, List.assoc_opt true !totals) with
  | Some (fg_a, bg_a, p99_a), Some (fg_b, bg_b, p99_b) ->
      let work_a = fg_a + bg_a and work_b = fg_b + bg_b in
      Printf.printf
        "cleaning work: %d segments cleaned fg-only vs %d with bg-clean \
         (x%.2f; same dirt, same load)\n"
        work_a work_b
        (float_of_int work_b /. float_of_int (max 1 work_a));
      Printf.printf
        "with bg-clean %d of %d cleaned segments ran in idle steps; p99 \
         write %.1f ms fg-only vs %.1f ms with bg-clean\n"
        bg_b work_b p99_a p99_b
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Tiered storage: hot/cold placement across flash + disk               *)
(* ------------------------------------------------------------------ *)

(* A hot/cold working set over a tiered volume (25% flash, 75% Wren IV):
   cold files are prefilled once and left alone; a small hot set is
   re-read and rewritten every round, with idle demotion passes between
   rounds.  At steady state the demotion policy should have pushed the
   cold majority of live segments onto the slow tier while the write
   head keeps landing on flash — so hot-write latency stays close to an
   all-flash volume of the same capacity. *)
let tier () =
  header "Tiered storage - hot/cold segment placement (flash + Wren IV)"
    "cold segments decay slowest (Section 3.5), so demoting old, full \
     segments to a slow tier frees flash for the write head at the cost \
     of one sequential copy; promotion-on-read pulls a re-warmed \
     segment back";
  let blocks = if !quick then 12288 else 24576 in
  let rounds = if !quick then 8 else 14 in
  let config =
    { Lfs_core.Config.default with demote_age_s = 8.0; promote_reads = 2 }
  in
  let fast_pct = 25 in
  let p95 samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    if Array.length a = 0 then Float.nan
    else a.(min (Array.length a - 1) (Array.length a * 95 / 100))
  in
  (* The same routine runs over any (fs, busy-clock) pair; returns hot
     write+sync latencies from the steady-state rounds. *)
  let exercise fs busy =
    let module Fs = Lfs_core.Fs in
    let layout = Fs.layout fs in
    let seg_bytes = layout.Lfs_core.Layout.seg_blocks * 4096 in
    let nsegs = layout.Lfs_core.Layout.nsegs in
    (* Cold prefill: ~55% of the log, one segment-sized file each. *)
    let ncold = nsegs * 55 / 100 in
    let cold_data = Bytes.make seg_bytes 'c' in
    for i = 0 to ncold - 1 do
      Lfs_core.Fs.write_path fs (Printf.sprintf "/cold%d" i) cold_data
    done;
    Lfs_core.Fs.sync fs;
    let nhot = 8 in
    let hot_data = Bytes.make (seg_bytes / 4) 'h' in
    let lat = ref [] in
    for round = 1 to rounds do
      for i = 0 to nhot - 1 do
        let path = Printf.sprintf "/hot%d" i in
        (match Lfs_core.Fs.resolve fs path with
        | Some ino -> ignore (Lfs_core.Fs.read fs ino ~off:0 ~len:4096)
        | None -> ());
        let before = busy () in
        Lfs_core.Fs.write_path fs path hot_data;
        Lfs_core.Fs.sync fs;
        if round > rounds / 2 then lat := (busy () -. before) :: !lat
      done;
      (* Idle window: the cleaner's demotion regime. *)
      for _ = 1 to 4 do
        ignore (Lfs_core.Fs.clean_step ~max_segments:4 fs)
      done
    done;
    !lat
  in
  (* Tiered volume, built exactly like Spec.fresh's tiered member but with
     the Vdev_tier handle kept for placement accounting. *)
  let fast_blocks = blocks * fast_pct / 100 in
  let fast =
    Lfs_disk.Vdev.of_disk
      (Lfs_disk.Disk.create (Lfs_disk.Geometry.flash ~blocks:fast_blocks))
  in
  let slow =
    Lfs_disk.Vdev.of_disk
      (Lfs_disk.Disk.create
         (Lfs_disk.Geometry.wren_iv ~blocks:(blocks - fast_blocks)))
  in
  let ti = Lfs_spec.Spec.tier_volume ~config ~fast ~slow in
  let dev = Lfs_disk.Vdev_tier.vdev ti in
  Lfs_core.Fs.format dev config;
  let tfs = Lfs_core.Fs.mount ~tier:ti dev in
  let busy_of v () = (Lfs_disk.Vdev.stats v).Lfs_disk.Io_stats.busy_s in
  let tier_lat = exercise tfs (busy_of dev) in
  (* All-flash baseline at the same capacity. *)
  let flat =
    Lfs_disk.Vdev.of_disk
      (Lfs_disk.Disk.create (Lfs_disk.Geometry.flash ~blocks))
  in
  Lfs_core.Fs.format flat config;
  let ffs = Lfs_core.Fs.mount flat in
  let flat_lat = exercise ffs (busy_of flat) in
  (* Placement at steady state: where do live segments sit? *)
  let layout = Lfs_core.Fs.layout tfs in
  let live_fast = ref 0 and live_slow = ref 0 in
  for s = 0 to layout.Lfs_core.Layout.nsegs - 1 do
    if Lfs_core.Fs.segment_live_bytes tfs s > 0 then
      match Lfs_disk.Vdev_tier.chunk_tier ti s with
      | Lfs_disk.Vdev_tier.Fast -> incr live_fast
      | Lfs_disk.Vdev_tier.Slow -> incr live_slow
  done;
  let live_total = !live_fast + !live_slow in
  let slow_share =
    if live_total = 0 then 0.0
    else float_of_int !live_slow /. float_of_int live_total
  in
  let p95_tier = p95 tier_lat and p95_flat = p95 flat_lat in
  let ratio = p95_tier /. p95_flat in
  Table.print
    ~title:
      (Printf.sprintf
         "Tier placement and hot-write latency (%d%% flash, %d blocks)"
         fast_pct blocks)
    ~header:[ "metric"; "value" ]
    [
      [ "live segments (fast/slow)";
        Printf.sprintf "%d / %d" !live_fast !live_slow ];
      [ "live segments on slow"; pct slow_share ];
      [ "demotions"; string_of_int (Lfs_disk.Vdev_tier.demotions ti) ];
      [ "promotions"; string_of_int (Lfs_disk.Vdev_tier.promotions ti) ];
      [ "hot write+sync p95 (tier)"; Printf.sprintf "%.2f ms" (1000.0 *. p95_tier) ];
      [ "hot write+sync p95 (all-flash)";
        Printf.sprintf "%.2f ms" (1000.0 *. p95_flat) ];
      [ "p95 ratio (tier / all-flash)"; Printf.sprintf "%.2fx" ratio ];
    ];
  dump_metrics ~title:"tier" (Some (Lfs_core.Fs.metrics tfs));
  Printf.printf "gate: >=50%% of live segments on slow: %s (%s)\n"
    (pct slow_share)
    (if slow_share >= 0.5 then "PASS" else "FAIL");
  Printf.printf "gate: hot p95 within 1.25x of all-flash: %.2fx (%s)\n" ratio
    (if ratio <= 1.25 then "PASS" else "FAIL");
  if slow_share < 0.5 || ratio > 1.25 then exit 1

(* ------------------------------------------------------------------ *)
(* Multi-head log: write cost vs utilisation with hot/cold segregation  *)
(* ------------------------------------------------------------------ *)

(* The paper's Figure 9 point: segregating hot from cold data makes the
   bimodal segment distribution sharper, so the cleaner finds emptier
   victims and the write cost falls.  With one write head, cleaner
   survivors (cold by selection) land in the same segments as fresh hot
   data and re-pollute them; with [log_heads >= 2] survivors stream to
   their own cold segments and the hot head's segments decay to
   near-empty before they are cleaned.  A 90/10 overwrite workload at a
   fixed disk utilisation measures the steady-state write cost of both
   configurations on the real FS (not the simulator). *)
let writecost () =
  header
    "Write cost vs utilisation - multi-head hot/cold segregation \
     (lfs:heads=N)"
    "one write head mixes cleaner survivors back into the hot stream; a \
     second (cold) head keeps them apart, sharpening the bimodal \
     segment distribution and cutting the steady-state write cost at \
     high utilisation (Sections 3.5, 5.1)";
  let module Fs = Lfs_core.Fs in
  let module Fs_stats = Lfs_core.Fs_stats in
  let module Metrics = Lfs_obs.Metrics in
  let module Prng = Lfs_util.Prng in
  let blocks = 32768 in
  let utils = if !quick then [ 0.70; 0.85 ] else [ 0.60; 0.70; 0.80; 0.85 ] in
  let head_counts = if !quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  let file_blocks = 16 in
  let measure ~heads ~util =
    let config =
      {
        Lfs_core.Config.default with
        log_heads = heads;
        max_inodes = 4096;
        (* 128 half-MB segments: the default clean pool (8 segments) is
           then a small enough fraction of the disk that 85% utilisation
           leaves the cleaner real working room. *)
        seg_blocks = 128;
        write_buffer_blocks = 128;
        cleaner_read = Lfs_core.Config.Live_blocks;
        (* Background watermarks sit above the foreground trigger so the
           idle-window cleaner (one victim per request, below) does all
           the cleaning.  Single-victim steps are what make the
           comparison meaningful: each step's survivors land in whatever
           segment the survivor head has open, so with one head they
           interleave with the foreground stream. *)
        bg_clean_start = 10;
        bg_clean_stop = 12;
      }
    in
    let disk =
      Lfs_disk.Vdev.of_disk
        (Lfs_disk.Disk.create (Lfs_disk.Geometry.instant ~blocks))
    in
    Fs.format disk config;
    let fs = Fs.mount disk in
    let layout = Fs.layout fs in
    let capacity = layout.Lfs_core.Layout.nsegs * layout.Lfs_core.Layout.seg_blocks in
    (* Size the file population so live data (plus ~6% metadata) sits at
       the target utilisation. *)
    let nfiles = int_of_float (util *. float_of_int capacity) / (file_blocks + 1) in
    let nhot = max 1 (nfiles / 10) in
    let file_bytes = file_blocks * layout.Lfs_core.Layout.block_size in
    let name i = Printf.sprintf "/f%d" i in
    let payload = Bytes.make file_bytes 'd' in
    for i = 0 to nfiles - 1 do
      Fs.write_path fs (name i) payload
    done;
    Fs.sync fs;
    (* 90% of overwrite traffic hits the 10% hot files.  The same seed
       drives every head count at a given utilisation, so the workloads
       are identical streams. *)
    let prng = Prng.create ~seed:(int_of_float (util *. 1000.0)) in
    (* Idle-window cleaning between requests, as a server would run it
       (one victim per step): at heads=1 each step's survivors land in
       the middle of the foreground's current segment, re-polluting it
       with cold data; a cold head keeps the streams apart. *)
    let overwrite () =
      let i =
        if Prng.bernoulli prng ~p:0.9 then Prng.int prng nhot
        else nhot + Prng.int prng (max 1 (nfiles - nhot))
      in
      Fs.write_path fs (name i) payload;
      ignore (Fs.clean_step ~max_segments:1 fs)
    in
    let warmup = 2 * nfiles in
    let measured = nfiles in
    for _ = 1 to warmup do overwrite () done;
    Fs.sync fs;
    let start = Metrics.snapshot (Fs.metrics fs) in
    for _ = 1 to measured do overwrite () done;
    Fs.sync fs;
    let window = Metrics.diff start (Metrics.snapshot (Fs.metrics fs)) in
    let cost = Fs_stats.write_cost window in
    (* A window subtracts every gauge; ratios are derived from its
       counters instead, so the title carries the phase's write cost. *)
    dump_metrics
      ~title:
        (Printf.sprintf "writecost heads=%d util=%.2f, measured phase: write cost %.4g"
           heads util cost)
      (Some window);
    (cost, Fs.utilization fs)
  in
  let results =
    List.map
      (fun util ->
        (util, List.map (fun h -> (h, measure ~heads:h ~util)) head_counts))
      utils
  in
  Table.print
    ~title:
      "Steady-state write cost, 90/10 overwrites (real FS, 256 x 512 KB \
       segments, idle-window cleaning)"
    ~header:
      ([ "target util"; "measured util" ]
      @ List.map (fun h -> Printf.sprintf "heads=%d" h) head_counts
      @ [ "improvement (2 vs 1)" ])
    (List.map
       (fun (util, row) ->
         let cost h = fst (List.assoc h row) in
         let measured_u = snd (List.assoc 1 row) in
         [ pct util; pct measured_u ]
         @ List.map (fun h -> Table.fmt_float (cost h)) head_counts
         @ [ pct (1.0 -. (cost 2 /. cost 1)) ])
       results);
  (* Gate: at >= 85% utilisation the cold head must buy at least 20%. *)
  let failures =
    List.filter_map
      (fun (util, row) ->
        if util >= 0.85 then
          let c1 = fst (List.assoc 1 row) and c2 = fst (List.assoc 2 row) in
          let improvement = 1.0 -. (c2 /. c1) in
          Printf.printf
            "gate: heads=2 write cost >=20%% below heads=1 at %s: %s vs %s \
             (%s) %s\n"
            (pct util) (Table.fmt_float c2) (Table.fmt_float c1)
            (pct improvement)
            (if improvement >= 0.20 then "PASS" else "FAIL");
          if improvement >= 0.20 then None else Some util
        else None)
      results
  in
  if failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)
(* ------------------------------------------------------------------ *)

(* Median time per call of [f] over [rounds] timed rounds of [steps]
   calls.  Each case's [steps] make a round last 10-30 ms on a shared
   2-core x86-64 container: long enough to take its share of the GC
   work, so the median is steady enough to compare commits by. *)
let time_per_call ~rounds ~steps f =
  let per_step =
    Array.init rounds (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to steps do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int steps)
  in
  Array.sort compare per_step;
  per_step.(rounds / 2)

let micro () =
  header "Micro-benchmarks" "(implementation-level, not in the paper)";
  let disk = Lfs_disk.Vdev.of_disk (Lfs_disk.Disk.create (Lfs_disk.Geometry.instant ~blocks:16384)) in
  Lfs_core.Fs.format disk Lfs_core.Config.default;
  let fs = Lfs_core.Fs.mount disk in
  let ino = Lfs_core.Fs.create_path fs "/bench" in
  let payload = Bytes.make 4096 'b' in
  let counter = ref 0 in
  let fs_write () =
    incr counter;
    Lfs_core.Fs.write fs ino ~off:(4096 * (!counter mod 64)) payload
  in
  (* The foreground write path end to end: a 1 KB write, its sync, and
     the device committing the batch, on a warm mount over a queued
     device. *)
  let qdisk = Lfs_disk.Disk.create (Lfs_disk.Geometry.instant ~blocks:16384) in
  let qdev = Lfs_disk.Vdev.of_disk qdisk in
  Lfs_core.Fs.format qdev Lfs_core.Config.default;
  let qfs = Lfs_core.Fs.mount qdev in
  let qclock = ref 0.0 in
  Lfs_disk.Disk.set_mode qdisk (Lfs_disk.Io_queue.Queued (fun () -> !qclock));
  let qino = Lfs_core.Fs.create_path qfs "/small" in
  let small = Bytes.make 1024 'q' in
  let qcounter = ref 0 in
  let queued_write_sync () =
    incr qcounter;
    qclock := !qclock +. 0.001;
    Lfs_core.Fs.write qfs qino ~off:(1024 * (!qcounter mod 64)) small;
    Lfs_core.Fs.sync qfs;
    ignore (Lfs_disk.Disk.pump qdisk ~now:!qclock)
  in
  let fs_read () = ignore (Lfs_core.Fs.read fs ino ~off:0 ~len:4096) in
  let b = Bytes.make 4096 '\000' in
  let inode = Lfs_core.Inode.create ~ino:7 ~ftype:Lfs_core.Types.Regular ~mtime:1.0 in
  let inode_codec () =
    Lfs_core.Inode.encode inode b ~slot:3;
    ignore (Lfs_core.Inode.decode b ~slot:3)
  in
  (* A warm cache lends the inode block to the decoder: no copy. *)
  let cache =
    Lfs_disk.Vdev_cache.create ~capacity:16
      (Lfs_disk.Vdev.of_disk
         (Lfs_disk.Disk.create (Lfs_disk.Geometry.instant ~blocks:64)))
  in
  let iblock = Bytes.make 4096 '\000' in
  Lfs_core.Inode.encode inode iblock ~slot:3;
  Lfs_disk.Vdev.write_block (Lfs_disk.Vdev_cache.vdev cache) 9 iblock;
  let inode_load_hit () =
    ignore
      (Lfs_disk.Vdev_cache.with_block cache 9 (fun blk ->
           Option.get (Lfs_core.Inode.decode blk ~slot:3)))
  in
  (* A payload check of one 64-block write, as fsck makes it: one
     transfer into a reused buffer, then the checksum. *)
  let first = Lfs_core.Layout.seg_first_block (Lfs_core.Fs.layout fs) 2 + 1 in
  let payload_sum =
    Lfs_core.Summary.payload_checksum (Lfs_disk.Vdev.read_blocks disk first 64)
  in
  let payload_buf = Bytes.create (64 * 4096) in
  let payload_verify () =
    ignore
      (Lfs_disk.Vdev.submit_read_into disk first 64 payload_buf ~pos:0
        : Lfs_disk.Io_queue.ticket);
    assert (Lfs_core.Summary.payload_checksum payload_buf = payload_sum)
  in
  let checksum () = ignore (Lfs_util.Checksum.adler32 payload) in
  (* One full log batch: the payload of 32 blocks that a summary covers. *)
  let batch = Bytes.init (32 * 4096) (fun i -> Char.chr (i * 131 land 0xff)) in
  let checksum_batch () = ignore (Lfs_util.Checksum.adler32 batch) in
  let module Directory = Lfs_core.Directory in
  let names = Array.init 1000 (fun i -> Printf.sprintf "entry%d" i) in
  let dir = Directory.create ~block_size:4096 in
  for i = 0 to 99 do
    ignore (Directory.add dir names.(i) (i + 2))
  done;
  let dirb = Directory.to_bytes dir in
  let dir_codec () = ignore (Directory.of_bytes ~block_size:4096 dirb) in
  let dir_add_lookup () =
    let d = Directory.create ~block_size:4096 in
    Array.iteri (fun i name -> ignore (Directory.add d name (i + 2))) names;
    Array.iter (fun name -> ignore (Directory.find d name)) names
  in
  let sim () =
    ignore
      (Sim.run
         {
           Sim.default_params with
           nsegs = 64;
           blocks_per_seg = 32;
           warmup_writes = 1000;
           measured_writes = 0;
         })
  in
  let rounds = 15 in
  List.iter
    (fun (name, steps, f) ->
      Printf.printf "  %-32s %14.1f ns/op (median of %d rounds of %d)\n%!" name
        (time_per_call ~rounds ~steps f) rounds steps)
    [
      ("adler32-128k", 1_000, checksum_batch);
      ("adler32-4k", 30_000, checksum);
      ("directory-add-lookup-1000", 50, dir_add_lookup);
      ("directory-decode-100", 2_000, dir_codec);
      ("fs-read-4k", 100_000, fs_read);
      ("fs-write-4k", 50_000, fs_write);
      ("inode-encode-decode", 30_000, inode_codec);
      ("inode-load-hit", 50_000, inode_load_hit);
      ("payload-verify-64", 500, payload_verify);
      ("queued-write-sync-1k", 2_000, queued_write_sync);
      ("simulator-1k-writes", 100, sim);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("crashsweep", crashsweep);
    ("table4", table4);
    ("andrew", andrew);
    ("fsckcmp", fsckcmp);
    ("ablate", ablate);
    ("stripe", stripe);
    ("server", server);
    ("shard", shard);
    ("bgclean", server_bgclean);
    ("iodepth", iodepth);
    ("tier", tier);
    ("writecost", writecost);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "quick" || a = "--quick" then begin
          quick := true;
          false
        end
        else if a = "--metrics" then begin
          metrics := true;
          false
        end
        else true)
      args
  in
  (* `bench server --bg-clean` reads naturally; map the flag onto the
     bgclean experiment. *)
  let args =
    List.map (fun a -> if a = "--bg-clean" then "bgclean" else a) args
  in
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None when name = "micro" -> micro ()
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s micro\n" name
                (String.concat " " (List.map fst experiments));
              exit 2)
        names);
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
