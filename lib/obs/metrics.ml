module Histogram = Lfs_util.Histogram
module Table = Lfs_util.Table

type counter = { mutable n : int }
type gauge = { mutable g : float }

type histogram = {
  buckets : Histogram.t;  (* log-scaled samples, mapped into [0, 1] *)
  lo : float;
  hi : float;
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

type dist = Histogram.t

type value =
  | Int of int
  | Float of float
  | Summary of {
      count : int;
      sum : float;
      mean : float;
      vmin : float;
      vmax : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }
  | Series of { total : float; series : (float * float) array }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Gauge_fn of (unit -> float) ref
  | Hist of histogram
  | Dist of dist
  | Fixed of value  (* a window's frozen reading, see [diff] *)

(* One shared underlying registry; [t] is a view onto it that prepends
   [prefix] to every name registered or looked up through it.  Scoped
   views are how several file-system instances (the shard router's N
   mounts) share one process-wide registry without name collisions. *)
type root = {
  table : (string, instrument) Hashtbl.t;
  mutable order : string list;  (* reverse registration order *)
}

type t = { root : root; prefix : string }

let create () = { root = { table = Hashtbl.create 64; order = [] }; prefix = "" }
let scoped t prefix = { t with prefix = t.prefix ^ prefix }
let full t name = t.prefix ^ name

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Gauge_fn _ -> "gauge"
  | Hist _ -> "histogram"
  | Dist _ -> "dist"
  | Fixed _ -> "window reading"

(* Get-or-create: [make ()] builds the instrument, [extract] projects an
   existing entry back out (None on kind mismatch). *)
let intern t name ~make ~extract =
  let name = full t name in
  match Hashtbl.find_opt t.root.table name with
  | Some existing -> (
      match extract existing with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name existing)))
  | None ->
      let inst, v = make () in
      Hashtbl.replace t.root.table name inst;
      t.root.order <- name :: t.root.order;
      v

let counter t name =
  intern t name
    ~make:(fun () ->
      let c = { n = 0 } in
      (Counter c, c))
    ~extract:(function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = c.n <- c.n + by
let counter_value c = c.n

let gauge t name =
  intern t name
    ~make:(fun () ->
      let g = { g = Float.nan } in
      (Gauge g, g))
    ~extract:(function Gauge g -> Some g | _ -> None)

let set g v = g.g <- v

(* Callback gauges are registered exactly once per name.  A second
   registration means two live instances are writing into the same
   registry — the second would silently shadow the first, so it is a
   hard error; instances that deliberately share a registry must
   disambiguate through [scoped]. *)
let gauge_fn t name f =
  let fname = full t name in
  intern t name
    ~make:(fun () -> (Gauge_fn (ref f), ()))
    ~extract:(function
      | Gauge_fn _ ->
          invalid_arg
            (Printf.sprintf
               "Metrics: callback gauge %S registered twice — two instances \
                sharing one registry must use Metrics.scoped prefixes"
               fname)
      | _ -> None)

let default_lo = 1e-6
let default_hi = 1e4

let histogram ?(lo = default_lo) ?(hi = default_hi) ?(bins = 40) t name =
  if not (lo > 0. && hi > lo) then
    invalid_arg "Metrics.histogram: need 0 < lo < hi";
  intern t name
    ~make:(fun () ->
      let h =
        {
          buckets = Histogram.create ~bins;
          lo;
          hi;
          count = 0;
          sum = 0.;
          vmin = Float.infinity;
          vmax = Float.neg_infinity;
        }
      in
      (Hist h, h))
    ~extract:(function Hist h -> Some h | _ -> None)

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  (* Log-map [lo, hi] onto [0, 1]; Histogram.add clamps the rest. *)
  let x = log (Float.max v h.lo /. h.lo) /. log (h.hi /. h.lo) in
  Histogram.add h.buckets x

let span h ~clock f =
  let t0 = clock () in
  let record () = observe h (clock () -. t0) in
  match f () with
  | v ->
      record ();
      v
  | exception e ->
      record ();
      raise e

(* Invert the log map: bucket coordinate [x] in [0, 1] back to a value. *)
let unmap h x = h.lo *. ((h.hi /. h.lo) ** x)

let percentile h q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Metrics.percentile: quantile outside [0, 1]";
  if h.count = 0 then Float.nan
  else begin
    let nb = Histogram.bins h.buckets in
    (* Walk the cumulative distribution; interpolate inside the bucket
       that crosses [q].  The loop invariant keeps [cum <= q] on entry,
       so [within] is in [0, 1] and the result is monotone in [q]. *)
    let rec go i cum =
      if i >= nb then h.vmax
      else
        let f = Histogram.fraction h.buckets i in
        if f > 0. && cum +. f >= q then
          let within = (q -. cum) /. f in
          unmap h ((float_of_int i +. within) /. float_of_int nb)
        else go (i + 1) (cum +. f)
    in
    let v = go 0 0. in
    (* Buckets clamp at [lo, hi]; the summary's exact extrema are
       tighter bounds, and clamping keeps the estimate monotone. *)
    Float.min h.vmax (Float.max h.vmin v)
  end

let dist ?(bins = 20) t name =
  intern t name
    ~make:(fun () ->
      let d = Histogram.create ~bins in
      (Dist d, d))
    ~extract:(function Dist d -> Some d | _ -> None)

let dist_add ?(weight = 1.0) d v = Histogram.add_weighted d v weight

(* ---- Reading ---- *)

let value_of = function
  | Counter c -> Int c.n
  | Gauge g -> Float g.g
  | Gauge_fn f -> Float (!f ())
  | Hist h ->
      if h.count = 0 then
        Summary
          {
            count = 0;
            sum = 0.;
            mean = Float.nan;
            vmin = Float.nan;
            vmax = Float.nan;
            p50 = Float.nan;
            p95 = Float.nan;
            p99 = Float.nan;
          }
      else
        Summary
          {
            count = h.count;
            sum = h.sum;
            mean = h.sum /. float_of_int h.count;
            vmin = h.vmin;
            vmax = h.vmax;
            p50 = percentile h 0.50;
            p95 = percentile h 0.95;
            p99 = percentile h 0.99;
          }
  | Dist d -> Series { total = Histogram.total d; series = Histogram.to_series d }
  | Fixed v -> v

let value t name = Option.map value_of (Hashtbl.find_opt t.root.table (full t name))

let float_value t name =
  match value t name with
  | None -> Float.nan
  | Some (Int n) -> float_of_int n
  | Some (Float v) -> v
  | Some (Summary s) -> s.mean
  | Some (Series s) -> s.total

(* Snapshots (and the reports built on them) always cover the whole
   underlying registry, whichever view they are taken through. *)
let snapshot t =
  List.rev_map
    (fun name -> (name, value_of (Hashtbl.find t.root.table name)))
    t.root.order

(* ---- Windows ---- *)

let window_summary ~count ~sum =
  let nan = Float.nan in
  Summary
    {
      count;
      sum;
      mean = (if count = 0 then nan else sum /. float_of_int count);
      vmin = nan;
      vmax = nan;
      p50 = nan;
      p95 = nan;
      p99 = nan;
    }

let sub name a b =
  match (a, b) with
  | Int a, Int b -> Int (b - a)
  | Float a, Float b -> Float (b -. a)
  | Summary a, Summary b -> window_summary ~count:(b.count - a.count) ~sum:(b.sum -. a.sum)
  | Series a, Series b -> Series { total = b.total -. a.total; series = [||] }
  | _ -> invalid_arg (Printf.sprintf "Metrics.diff: %S changed kind" name)

let zero = function
  | Int _ -> Int 0
  | Float _ -> Float 0.
  | Summary _ -> window_summary ~count:0 ~sum:0.
  | Series _ -> Series { total = 0.; series = [||] }

let diff before after =
  let w = create () in
  let before = Hashtbl.of_seq (List.to_seq before) in
  List.iter
    (fun (name, b) ->
      let a = Option.value (Hashtbl.find_opt before name) ~default:(zero b) in
      Hashtbl.replace w.root.table name (Fixed (sub name a b));
      w.root.order <- name :: w.root.order)
    after;
  w

(* ---- Text report ---- *)

let undefined v = Float.is_nan v

let fmt_scalar v =
  if undefined v then "undefined"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let report ?title t =
  let snap = snapshot t in
  let buf = Buffer.create 1024 in
  let scalars =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Int n -> Some [ name; string_of_int n ]
        | Float v -> Some [ name; fmt_scalar v ]
        | _ -> None)
      snap
  and summaries =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Summary { count; sum; mean; vmin; vmax; p50; p95; p99 } ->
            Some
              [
                name;
                string_of_int count;
                fmt_scalar sum;
                fmt_scalar mean;
                fmt_scalar vmin;
                fmt_scalar vmax;
                fmt_scalar p50;
                fmt_scalar p95;
                fmt_scalar p99;
              ]
        | _ -> None)
      snap
  and dists =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Series { total; series } -> Some (name, total, series)
        | _ -> None)
      snap
  in
  if scalars <> [] then
    Buffer.add_string buf
      (Table.render ?title ~header:[ "metric"; "value" ] scalars);
  if summaries <> [] then begin
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Table.render ~title:"histograms"
         ~header:
           [ "metric"; "count"; "sum"; "mean"; "min"; "max"; "p50"; "p95"; "p99" ]
         summaries)
  end;
  List.iter
    (fun (name, total, series) ->
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      let rows =
        Array.to_list series
        |> List.filter_map (fun (x, frac) ->
               if frac = 0. then None
               else
                 Some
                   [ Table.fmt_float ~decimals:3 x; Table.fmt_float ~decimals:3 frac ])
      in
      let rows = if rows = [] then [ [ "(empty)"; "" ] ] else rows in
      Buffer.add_string buf
        (Table.render
           ~title:(Printf.sprintf "%s (total %s)" name (fmt_scalar total))
           ~header:[ "bin"; "fraction" ] rows))
    dists;
  Buffer.contents buf

(* ---- JSON ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  (* JSON has no NaN/Infinity: undefined renders as null. *)
  if Float.is_nan v || Float.abs v = Float.infinity then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let to_json t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      if !first then first := false else Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\n  \"%s\": " (json_escape name));
      (match v with
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float v -> Buffer.add_string buf (json_float v)
      | Summary { count; sum; mean; vmin; vmax; p50; p95; p99 } ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"count\": %d, \"sum\": %s, \"mean\": %s, \"min\": %s, \
                \"max\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}"
               count (json_float sum) (json_float mean) (json_float vmin)
               (json_float vmax) (json_float p50) (json_float p95)
               (json_float p99))
      | Series { total; series } ->
          Buffer.add_string buf
            (Printf.sprintf "{\"total\": %s, \"bins\": [" (json_float total));
          Array.iteri
            (fun i (x, frac) ->
              if i > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf
                (Printf.sprintf "[%s, %s]" (json_float x) (json_float frac)))
            series;
          Buffer.add_string buf "]}"))
    (snapshot t);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ---- Validation ---- *)

let validate t =
  let problems = ref [] in
  let bad name what = problems := (name, what) :: !problems in
  let check_finite_nonneg name what v =
    if Float.is_nan v then bad name (what ^ " is NaN")
    else if Float.abs v = Float.infinity then bad name (what ^ " is infinite")
    else if v < 0. then bad name (what ^ " is negative")
  in
  List.iter
    (fun (name, v) ->
      match v with
      | Int n -> if n < 0 then bad name "counter is negative"
      | Float v -> check_finite_nonneg name "gauge" v
      | Summary { count; sum; mean; vmin; vmax; p50; p95; p99 } ->
          if count < 0 then bad name "histogram count is negative"
          else if count > 0 then begin
            check_finite_nonneg name "sum" sum;
            check_finite_nonneg name "mean" mean;
            check_finite_nonneg name "min" vmin;
            check_finite_nonneg name "max" vmax;
            check_finite_nonneg name "p50" p50;
            check_finite_nonneg name "p95" p95;
            check_finite_nonneg name "p99" p99;
            if p50 > p95 || p95 > p99 then
              bad name "percentiles are non-monotone (p50 <= p95 <= p99)";
            if count > 0 && (p50 < vmin || p99 > vmax) then
              bad name "percentiles escape the [min, max] range"
          end
      | Series { total; series } ->
          check_finite_nonneg name "total" total;
          Array.iter
            (fun (_, frac) -> check_finite_nonneg name "bin fraction" frac)
            series)
    (snapshot t);
  List.rev !problems
