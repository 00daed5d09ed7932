(* Host-time spans recorded around the calls the benchmark makes into each
   layer.  Spans nest on one stack (the program is single-threaded); each
   closed span charges its layer with its duration minus the part of it
   that child spans cover (self time), and with the minor-heap words it
   allocated minus those its children allocated.  Aggregates cover every
   span; the raw spans kept for the trace file are capped so a long run
   cannot exhaust memory. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Length of the union of the half-open [intervals], clipped to
   [\[lo, hi)]: the part of a parent span its children cover.  Children
   may overlap each other (asynchronous work), so the union is taken
   rather than the sum. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None)
      (List.sort compare clipped)
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

let self_time ~start ~stop children = stop - start - covered ~lo:start ~hi:stop children

type agg = {
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable self_words : float;
}

type frame = {
  name : string;
  id : int;
  start : int;
  words0 : float;
  mutable kids : (int * int) list;
  mutable kid_words : float;
}

type event = { ev_name : string; ev_id : int; ev_parent : int; ev_start : int; ev_stop : int }

(* Raw spans kept for the trace file. *)
let max_events = 50_000

type t = {
  aggs : (string, agg) Hashtbl.t;
  mutable stack : frame list;
  mutable next_id : int;
  mutable events : event list;  (* newest first *)
  mutable nevents : int;
  mutable enabled : bool;
  origin : int;
  mutable marks : int list;  (* op start times, newest first *)
}

let create () =
  {
    aggs = Hashtbl.create 32;
    stack = [];
    next_id = 0;
    events = [];
    nevents = 0;
    enabled = false;
    origin = now_ns ();
    marks = [];
  }

(* Spans are recorded only while enabled: the workloads switch tracing on
   for their measured phases, so set-up and correctness checks stay out
   of the per-layer numbers. *)
let set_enabled t on = t.enabled <- on

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total_ns = 0; self_ns = 0; self_words = 0.0 } in
      Hashtbl.replace t.aggs name a;
      a

let close t fr =
  let stop = now_ns () in
  let words = Gc.minor_words () -. fr.words0 in
  t.stack <- List.tl t.stack;
  let a = agg t fr.name in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + (stop - fr.start);
  a.self_ns <- a.self_ns + self_time ~start:fr.start ~stop fr.kids;
  a.self_words <- a.self_words +. (words -. fr.kid_words);
  let parent =
    match t.stack with
    | p :: _ ->
        p.kids <- (fr.start, stop) :: p.kids;
        p.kid_words <- p.kid_words +. words;
        p.id
    | [] -> -1
  in
  if t.nevents < max_events then begin
    t.events <-
      { ev_name = fr.name; ev_id = fr.id; ev_parent = parent; ev_start = fr.start; ev_stop = stop }
      :: t.events;
    t.nevents <- t.nevents + 1
  end

let span t name f =
  if not t.enabled then f ()
  else begin
    let fr =
      { name; id = t.next_id; start = now_ns (); words0 = Gc.minor_words (); kids = []; kid_words = 0.0 }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- fr :: t.stack;
    match f () with
    | v ->
        close t fr;
        v
    | exception e ->
        close t fr;
        raise e
  end

(* [None] is the untraced run: the call goes straight through. *)
let opt_span tr name f = match tr with None -> f () | Some t -> span t name f

(* One mark per measured op, for the growth of host time per op across
   the run. *)
let mark t = if t.enabled then t.marks <- now_ns () :: t.marks

(* Host time per op in the last quarter of the marked ops over that in
   the first quarter; [nan] with too few marks. *)
let growth t =
  let a = Array.of_list (List.rev t.marks) in
  let n = Array.length a in
  if n < 8 then Float.nan
  else
    let q = n / 4 in
    float_of_int (a.(n - 1) - a.(n - 1 - q)) /. float_of_int (a.(q) - a.(0))

type layer_stat = { calls : int; self_us : float; alloc_kw : float; total_us : float }

let stat t name =
  match Hashtbl.find_opt t.aggs name with
  | None -> { calls = 0; self_us = 0.0; alloc_kw = 0.0; total_us = 0.0 }
  | Some (a : agg) ->
      {
        calls = a.calls;
        self_us = float_of_int a.self_ns /. 1e3;
        alloc_kw = a.self_words /. 1e3;
        total_us = float_of_int a.total_ns /. 1e3;
      }

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Chrome trace-event format ("X" complete events, microseconds), loadable
   in chrome://tracing or Perfetto.  The parent span id is in [args]. *)
let to_chrome t =
  let us ns = Json.Num (float_of_int (ns - t.origin) /. 1e3) in
  let ev e =
    Json.Obj
      [
        ("name", Json.Str e.ev_name);
        ("cat", Json.Str (layer_of e.ev_name));
        ("ph", Json.Str "X");
        ("ts", us e.ev_start);
        ("dur", Json.Num (float_of_int (e.ev_stop - e.ev_start) /. 1e3));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ( "args",
          Json.Obj
            [ ("id", Json.Num (float_of_int e.ev_id)); ("parent", Json.Num (float_of_int e.ev_parent)) ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.rev_map ev t.events));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("spans_total", Json.Num (float_of_int t.next_id)) ]);
    ]
