(* Unit checks of the benchmark's own arithmetic: self time under
   overlapping child spans, the "ten samples beyond" percentile choice,
   and quartiles as the external spread check computes them. *)

open Perf_lib

let check name ok = if not ok then failwith ("perf test failed: " ^ name)

let () =
  (* Two overlapping children cover their union, not their sum. *)
  check "overlap" (Tracer.covered ~lo:0 ~hi:40 [ (10, 20); (15, 30) ] = 20);
  check "self overlap" (Tracer.self_time ~start:0 ~stop:40 [ (15, 30); (10, 20) ] = 20);
  (* A child inside another adds nothing; disjoint ones add up. *)
  check "nested" (Tracer.covered ~lo:0 ~hi:100 [ (10, 50); (20, 30); (60, 70) ] = 50);
  (* Children reaching outside the parent count only inside it. *)
  check "clipped" (Tracer.self_time ~start:10 ~stop:20 [ (5, 12); (18, 25) ] = 6);
  check "touching" (Tracer.covered ~lo:0 ~hi:10 [ (0, 5); (5, 10) ] = 10);
  check "no children" (Tracer.self_time ~start:3 ~stop:9 [] = 6);
  (* Spans recorded through the tracer: the parent's self time excludes
     its child, and a disabled tracer records nothing. *)
  let t = Tracer.create () in
  ignore (Tracer.span t "x.off" (fun () -> 1) : int);
  Tracer.set_enabled t true;
  Tracer.span t "a.parent" (fun () -> Tracer.span t "b.child" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0))));
  let p = Tracer.stat t "a.parent" and c = Tracer.stat t "b.child" in
  check "calls" (p.Tracer.calls = 1 && c.Tracer.calls = 1 && (Tracer.stat t "x.off").Tracer.calls = 0);
  check "self below total" (p.Tracer.self_us <= p.Tracer.total_us -. c.Tracer.total_us +. 1e-3);
  check "child allocation" (c.Tracer.alloc_kw >= 0.1 && p.Tracer.alloc_kw < c.Tracer.alloc_kw);
  (* The tail percentile is the highest with at least ten samples beyond. *)
  check "p99.9" (Stats.tail_quantile 10_000 = Some 0.999);
  check "p99 at 1000" (Stats.tail_quantile 1000 = Some 0.99);
  check "p95 below 1000" (Stats.tail_quantile 999 = Some 0.95);
  check "p50 at 20" (Stats.tail_quantile 20 = Some 0.5);
  check "none below 20" (Stats.tail_quantile 19 = None);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  check "quartiles" (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) = (2.75, 5.5, 8.25));
  check "median" (Stats.percentile [ 3.0; 1.0; 2.0; 10.0 ] 0.5 = 2.5);
  check "empty sample" (Float.is_nan (Stats.percentile [] 0.5));
  check "json round trip"
    (Json.parse (Json.to_string (Json.Obj [ ("x", Json.Num 0.1); ("y", Json.Arr [ Json.Str "a\"b" ]) ]))
    = Json.Obj [ ("x", Json.Num 0.1); ("y", Json.Arr [ Json.Str "a\"b" ]) ])
