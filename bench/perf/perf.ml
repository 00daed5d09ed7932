(* The repository benchmark.  See README.md in this directory.

     perf.exe run --workload W --seed S [--seconds N] [--trace 0|1|DIR]
                  [--scale F] [--out DIR]
     perf.exe all --seed S [--seconds N] [--trace DIR] [--scale F] [--out DIR]
     perf.exe smoke
     perf.exe compare A.json ... -- B.json ...

   [run] repeats one workload, each repetition on a fresh stack, until
   [--seconds] of wall time are spent.  The first [trials] repetitions
   are trials, each with its own seed derived from [--seed]; later ones
   replay the trials in turn and must reproduce their modelled results
   exactly.  A traced run alternates untraced and traced repetitions.
   Modelled results are means over the trials; host results are medians
   over the untraced repetitions.  The last line of standard output is a
   JSON summary. *)

open Perf_lib
module W = Workloads

let default_out = "bench/perf/out"

let end_to_end =
  [ "tput_ops_s"; "op_p50_ms"; "op_tail_ms"; "write_cost"; "host_cpu_us_per_op"; "setup_s"; "peak_rss_mb" ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun k -> Some k)
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ -> None
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let metric_json (x : W.metric) =
  Json.Obj
    ([ ("value", Json.Num x.W.value); ("unit", Json.Str x.W.unit) ]
    @ if x.W.n > 0 then [ ("n", Json.Num (float_of_int x.W.n)) ] else [])

let metrics_json xs = Json.Obj (List.map (fun (x : W.metric) -> (x.W.name, metric_json x)) xs)

(* Modelled results are a function of the seed, so a run's spread over
   seeds is the seeds' own.  Averaging several trials with different
   seeds narrows it. *)
let trials = 3

let fingerprint metrics = List.map (fun (x : W.metric) -> (x.W.name, Json.num_to_string x.W.value)) metrics

(* Each metric combined by [f] across repetitions, which all report the
   same metrics in the same order; sample counts add up. *)
let combine f (reps : W.metric list list) =
  match reps with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i (x : W.metric) ->
          let xs = List.map (fun r -> List.nth r i) reps in
          {
            x with
            W.value = f (List.map (fun (y : W.metric) -> y.W.value) xs);
            n = List.fold_left (fun acc (y : W.metric) -> acc + y.W.n) 0 xs;
          })
        first

let median xs = Stats.percentile xs 0.5

let run ~workload ~seed ~seconds ~trace ~scale ~out =
  let f = match List.assoc_opt workload W.all with Some f -> f | None -> die "unknown workload %S" workload in
  let start = Unix.gettimeofday () in
  let min_reps = if trace = None then trials else trials + 1 in
  (* Another repetition starts while one as long as the last still fits
     (trials are longer: they also run the checks). *)
  let rec loop k acc last =
    let t0 = Unix.gettimeofday () in
    if k >= min_reps && t0 -. start +. last > seconds then List.rev acc
    else begin
      (* Each repetition starts from a compacted heap, so one's garbage
         does not bill the next. *)
      Gc.compact ();
      let tracer = if trace <> None && k mod 2 = 1 then Some (Tracer.create ()) else None in
      let o = f { W.seed = (seed * trials) + (k mod trials); scale; tracer; first = k < trials } in
      Printf.printf "%s repetition %d%s: set-up %.3f s, %.1f us/op\n%!" workload k
        (if tracer = None then "" else " (traced)")
        o.W.setup_cpu_s (1e6 *. o.W.op_cpu_s /. float_of_int o.W.ops);
      loop (k + 1) ((tracer, o) :: acc) (Unix.gettimeofday () -. t0)
    end
  in
  let reps = loop 0 [] 0.0 in
  let plain = List.filter_map (fun (t, o) -> if t = None then Some o else None) reps in
  let traced = List.filter_map (fun (t, o) -> Option.map (fun t -> (t, o)) t) reps in
  let trial_outcomes = List.filteri (fun k _ -> k < trials) (List.map snd reps) in
  let modelled = combine Lfs_util.Stats.mean_of (List.map (fun (o : W.outcome) -> o.W.modelled) trial_outcomes) in
  let cpu_per_op os = median (List.map (fun (o : W.outcome) -> 1e6 *. o.W.op_cpu_s /. float_of_int o.W.ops) os) in
  let e2e =
    modelled
    @ [
        W.m "host_cpu_us_per_op" "us" (cpu_per_op plain);
        W.m "setup_s" "s" (median (List.map (fun (o : W.outcome) -> o.W.setup_cpu_s) plain));
        W.m "peak_rss_mb" "MB" (peak_rss_mb ());
      ]
  in
  let layers =
    if traced = [] then []
    else
      combine median (List.map (fun (_, (o : W.outcome)) -> o.W.layers) traced)
      @ combine median (List.map (fun (o : W.outcome) -> o.W.gc) plain)
      @ [ W.m "trace.overhead" "ratio" ((cpu_per_op (List.map snd traced) /. cpu_per_op plain) -. 1.0) ]
  in
  (* A replay reports a subset of its trial's metrics (it skips the
     ladder), each with the same value. *)
  let replays_exact =
    List.for_all Fun.id
      (List.mapi
         (fun k (_, (o : W.outcome)) ->
           let expected = fingerprint (List.nth trial_outcomes (k mod trials)).W.modelled in
           List.for_all (fun kv -> List.mem kv expected) (fingerprint o.W.modelled))
         reps)
  in
  let problems =
    List.concat_map (fun (_, (o : W.outcome)) -> o.W.problems) reps
    @ (if replays_exact then [] else [ "a replay's modelled results differ from its trial's" ])
    @ List.filter_map
        (fun (x : W.metric) ->
          if Float.is_finite x.W.value then None else Some (x.W.name ^ " is undefined"))
        (e2e @ layers)
  in
  let attempted = List.fold_left (fun acc (_, (o : W.outcome)) -> acc + o.W.ops) 0 reps in
  let failed = List.fold_left (fun acc (_, (o : W.outcome)) -> acc + o.W.failed) 0 reps in
  let show (x : W.metric) =
    Printf.printf "%s %s %s %s%s\n" workload x.W.name (Json.num_to_string x.W.value) x.W.unit
      (if x.W.n > 0 then Printf.sprintf " (n=%d)" x.W.n else "")
  in
  List.iter show e2e;
  show (W.m "fail_frac" "ratio" (float_of_int failed /. float_of_int attempted));
  List.iter show layers;
  List.iter (fun p -> Printf.printf "%s problem: %s\n" workload p) problems;
  Printf.printf "%s repetitions %d (%d traced), %.1f s\n" workload (List.length reps) (List.length traced)
    (Unix.gettimeofday () -. start);
  let correct = problems = [] in
  mkdir_p out;
  Json.write_file
    (Filename.concat out (Printf.sprintf "%s-s%d%s.json" workload seed (if trace = None then "" else "-trace")))
    (Json.Obj
       [
         ("workload", Json.Str workload);
         ("seed", Json.Num (float_of_int seed));
         ("scale", Json.Num scale);
         ("repetitions", Json.Num (float_of_int (List.length reps)));
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", metrics_json e2e);
         ("modelled", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) (fingerprint modelled)));
         ("layers", metrics_json layers);
         ("problems", Json.Arr (List.map (fun p -> Json.Str p) problems));
       ]);
  (match (trace, List.rev traced) with
  | Some dir, (tr, _) :: _ ->
      mkdir_p dir;
      Json.write_file (Filename.concat dir (workload ^ ".trace.json")) (Tracer.to_chrome tr);
      Json.write_file (Filename.concat dir (workload ^ ".layers.json")) (metrics_json layers)
  | _ -> ());
  (* The summary line holds each metric as exactly a value and a unit;
     sample counts stay in the result file. *)
  let summary = if trace = None then List.filter (fun (x : W.metric) -> List.mem x.W.name end_to_end) e2e else layers in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json (List.map (fun (x : W.metric) -> { x with W.n = 0 }) summary));
          ]));
  if not correct then exit 1

(* ---- Argument parsing -------------------------------------------------- *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string option;
  mutable scale : float;
  mutable out : string;
}

let parse args =
  let o = { workload = None; seed = 1; seconds = 0.0; trace = None; scale = 1.0; out = default_out } in
  let num conv flag v = match conv v with Some x -> x | None -> die "%s: bad value %S" flag v in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- Some v; go rest
    | "--seed" :: v :: rest -> o.seed <- num int_of_string_opt "--seed" v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- num float_of_string_opt "--seconds" v; go rest
    | "--scale" :: v :: rest -> o.scale <- num float_of_string_opt "--scale" v; go rest
    | "--out" :: v :: rest -> o.out <- v; go rest
    | "--trace" :: v :: rest ->
        (* 0 and 1 switch tracing off and on (into the default directory);
           anything else names the directory. *)
        o.trace <- (match v with "0" -> None | "1" -> Some default_out | dir -> Some dir);
        go rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go args;
  o

let child_args o workload =
  [ "run"; "--workload"; workload; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
    "--scale"; Printf.sprintf "%g" o.scale; "--out"; o.out ]
  @ match o.trace with Some d -> [ "--trace"; d ] | None -> []

(* One child process per workload, one after another.  True when every
   child exited 0. *)
let all o =
  List.fold_left
    (fun ok (workload, _) ->
      flush_all ();
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: child_args o workload))
          Unix.stdin Unix.stdout Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> ok | _ -> false)
    true W.all

(* ---- smoke: tracing must not perturb the program ----------------------- *)

(* Every workload at 1/20 scale, untraced twice and traced once; the
   modelled results must be byte-identical across the three. *)
let smoke () =
  let runs = [ ("a", false); ("b", false); ("c", true) ] in
  let ok =
    List.for_all
      (fun (name, traced) ->
        let out = Filename.concat "smoke" name in
        all { workload = None; seed = 1; seconds = 0.0; scale = 0.05; out; trace = (if traced then Some out else None) })
      runs
  in
  let modelled (name, traced) workload =
    Json.member "modelled"
      (Json.read_file
         (Filename.concat (Filename.concat "smoke" name)
            (Printf.sprintf "%s-s1%s.json" workload (if traced then "-trace" else ""))))
  in
  let differing =
    List.filter
      (fun (workload, _) ->
        match List.map (fun r -> modelled r workload) runs with
        | Some a :: rest -> List.exists (fun b -> b <> Some a) rest
        | _ -> true)
      W.all
  in
  List.iter (fun (w, _) -> Printf.printf "smoke: %s modelled results differ between runs\n" w) differing;
  if not (ok && differing = []) then exit 1;
  print_endline "smoke: modelled results identical untraced, untraced and traced"

(* ---- compare: two sets of result files --------------------------------- *)

type def = { better_lower : bool option; bound : float option }

(* Directions and bounds come from BENCHMARK.json: end-to-end metrics
   carry both, per-layer ones only a direction.  Other metrics are shown
   without a verdict.  Without the bounds no regression could be found,
   so an unreadable file is an error. *)
let definitions () =
  let bench =
    try Json.read_file "BENCHMARK.json" with
    | Sys_error e -> die "cannot read the bounds (run compare from the repository root): %s" e
    | Json.Parse_error e -> die "BENCHMARK.json: %s" e
  in
  let defs key =
    List.filter_map
      (fun d ->
        Option.map
          (fun name ->
            ( name,
              {
                better_lower = Option.map (fun b -> b = "lower") (Option.bind (Json.member "better" d) Json.as_string);
                bound = Option.bind (Json.member "bound" d) Json.as_float;
              } ))
          (Option.bind (Json.member "name" d) Json.as_string))
      (Json.as_list (Option.value (Json.member key bench) ~default:Json.Null))
  in
  match defs "end_to_end" with
  | [] -> die "BENCHMARK.json names no end-to-end metrics"
  | e2e -> e2e @ defs "per_layer"

(* (workload, metric) -> values in file order. *)
let load files =
  let table = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun path ->
      let r = Json.read_file path in
      let workload = Option.value (Option.bind (Json.member "workload" r) Json.as_string) ~default:path in
      List.iter
        (fun section ->
          match Json.member section r with
          | Some (Json.Obj kvs) ->
              List.iter
                (fun (name, v) ->
                  match Option.bind (Json.member "value" v) Json.as_float with
                  | Some x ->
                      let key = (workload, name) in
                      if not (Hashtbl.mem table key) then order := key :: !order;
                      Hashtbl.replace table key (Option.value (Hashtbl.find_opt table key) ~default:[] @ [ x ])
                  | None -> ())
                kvs
          | _ -> ())
        [ "metrics"; "layers" ])
    (List.sort compare files);
  (table, List.rev !order)

let compare_sets base change =
  let defs = definitions () in
  let tb, keys_b = load base and tc, keys_c = load change in
  let keys = keys_b @ List.filter (fun k -> not (List.mem k keys_b)) keys_c in
  Printf.printf "%-14s %-30s %28s %28s %8s %11s  %s\n" "workload" "metric" "base median [q1, q3]"
    "change median [q1, q3]" "worse" "wins b/c" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun ((workload, name) as key) ->
      let a = Option.value (Hashtbl.find_opt tb key) ~default:[] in
      let b = Option.value (Hashtbl.find_opt tc key) ~default:[] in
      let q1a, ma, q3a = Stats.quartiles a and q1b, mb, q3b = Stats.quartiles b in
      let def = Option.value (List.assoc_opt name defs) ~default:{ better_lower = None; bound = None } in
      (* Relative change, signed so that positive is worse. *)
      let worse, beats =
        match def.better_lower with
        | Some true -> ((mb -. ma) /. Float.abs ma, fun x y -> x < y)
        | Some false -> ((ma -. mb) /. Float.abs ma, fun x y -> x > y)
        | None -> (Float.nan, fun _ _ -> false)
      in
      (* Pairs are the i-th run of each side, in file-name order. *)
      let rec wins a b (wb, wc) =
        match (a, b) with
        | x :: a, y :: b -> wins a b (if beats x y then (wb + 1, wc) else if beats y x then (wb, wc + 1) else (wb, wc))
        | _ -> (wb, wc)
      in
      let wb, wc = wins a b (0, 0) in
      let pairs = min (List.length a) (List.length b) in
      let spread = (q3a -. q1a) /. Float.abs ma in
      let all_better = a <> [] && b <> [] && List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
      let verdict =
        match def.bound with
        | _ when a = [] || b = [] -> "missing"
        | None -> "-"
        | Some bound ->
            if spread > bound && not all_better then "unresolved"
            else if worse > bound then begin
              incr regressions;
              "REGRESSION"
            end
            else if
              pairs > 0
              && float_of_int wc >= 0.9 *. float_of_int pairs
              && Float.abs (mb -. ma) > q3a -. q1a
            then "gain"
            else "ok"
      in
      let cell m q1 q3 = Printf.sprintf "%.5g [%.5g, %.5g]" m q1 q3 in
      let pct = if Float.is_nan worse then "-" else Printf.sprintf "%.2f%%" (100.0 *. worse) in
      let wins = if def.better_lower = None then "-" else Printf.sprintf "%d/%d" wb wc in
      Printf.printf "%-14s %-30s %28s %28s %8s %11s  %s\n" workload name (cell ma q1a q3a)
        (cell mb q1b q3b) pct wins verdict)
    keys;
  if !regressions > 0 then exit 1

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
      let o = parse args in
      let workload = match o.workload with Some w -> w | None -> die "run needs --workload" in
      run ~workload ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~scale:o.scale ~out:o.out
  | "all" :: args -> if not (all (parse args)) then exit 1
  | [ "smoke" ] -> smoke ()
  | "compare" :: files -> (
      let rec split acc = function
        | "--" :: rest -> Some (List.rev acc, rest)
        | f :: rest -> split (f :: acc) rest
        | [] -> None
      in
      match split [] files with
      | Some ((_ :: _ as base), (_ :: _ as change)) -> compare_sets base change
      | _ -> die "usage: perf.exe compare BASE.json ... -- CHANGE.json ...")
  | _ -> die "usage: perf.exe (run|all|smoke|compare) ..."

let () = main ()
