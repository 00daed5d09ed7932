(* Unit and property tests for the utility substrate. *)

module Prng = Lfs_util.Prng
module Stats = Lfs_util.Stats
module Histogram = Lfs_util.Histogram
module Table = Lfs_util.Table
module Checksum = Lfs_util.Checksum
module Buf_pool = Lfs_util.Buf_pool

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_int_range () =
  let p = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_covers () =
  let p = Prng.create ~seed:9 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Prng.int p 8) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let p = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.float p 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_bernoulli_bias () =
  let p = Prng.create ~seed:5 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bernoulli p ~p:0.3 then incr hits
  done;
  let frac = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "near 0.3" true (frac > 0.27 && frac < 0.33)

let test_prng_split_independent () =
  let a = Prng.create ~seed:11 in
  let b = Prng.split a in
  Alcotest.(check bool) "streams differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_exponential_mean () =
  let p = Prng.create ~seed:13 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Prng.exponential p ~mean:5.0)
  done;
  Alcotest.(check bool) "mean near 5" true
    (Stats.mean s > 4.7 && Stats.mean s < 5.3)

let test_prng_shuffle_permutes () =
  let p = Prng.create ~seed:17 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_value s);
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "variance of empty" 0.0 (Stats.variance s)

let test_stats_percentile () =
  let data = Array.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.percentile data 0.5);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile data 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile data 1.0)

let test_histogram_basic () =
  let h = Histogram.create ~bins:10 in
  Histogram.add h 0.05;
  Histogram.add h 0.05;
  Histogram.add h 0.95;
  Alcotest.(check (float 1e-9)) "bin 0 fraction" (2.0 /. 3.0) (Histogram.fraction h 0);
  Alcotest.(check (float 1e-9)) "bin 9 fraction" (1.0 /. 3.0) (Histogram.fraction h 9);
  Alcotest.(check (float 1e-9)) "total" 3.0 (Histogram.total h)

let test_histogram_clamps () =
  let h = Histogram.create ~bins:4 in
  Histogram.add h (-1.0);
  Histogram.add h 2.0;
  Alcotest.(check (float 1e-9)) "low clamped" 0.5 (Histogram.fraction h 0);
  Alcotest.(check (float 1e-9)) "high clamped" 0.5 (Histogram.fraction h 3)

let test_histogram_series_sums_to_one () =
  let h = Histogram.create ~bins:7 in
  let p = Prng.create ~seed:23 in
  for _ = 1 to 100 do
    Histogram.add h (Prng.float p 1.0)
  done;
  let sum = Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 (Histogram.to_series h) in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 sum

let test_histogram_merge () =
  let a = Histogram.create ~bins:4 and b = Histogram.create ~bins:4 in
  Histogram.add a 0.1;
  Histogram.add b 0.9;
  let m = Histogram.merge a b in
  Alcotest.(check (float 1e-9)) "merged total" 2.0 (Histogram.total m);
  Alcotest.(check (float 1e-9)) "bin0" 0.5 (Histogram.fraction m 0)

let test_table_renders () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ] in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    && String.index_opt s 'a' <> None
    && String.index_opt s '+' <> None)

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "x"; "y"; "z" ] [ [ "only" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let adler32_of_string s = Checksum.adler32 (Bytes.of_string s)

let test_checksum_stable () =
  let c1 = adler32_of_string "hello world" in
  let c2 = adler32_of_string "hello world" in
  Alcotest.(check int) "deterministic" c1 c2

let test_checksum_differs () =
  Alcotest.(check bool) "different inputs differ" false
    (adler32_of_string "hello" = adler32_of_string "hellp")

let test_checksum_range () =
  let b = Bytes.make 100 'x' in
  let whole = Checksum.adler32 b in
  let part = Checksum.adler32 ~pos:10 ~len:50 b in
  Alcotest.(check bool) "range differs from whole" false (whole = part);
  Alcotest.(check int) "range stable" part (Checksum.adler32 ~pos:10 ~len:50 b)

(* The per-byte definition of Adler-32, reducing both sums after every
   byte: the oracle the deferred-reduction kernels must match. *)
let adler32_reference ~pos ~len b =
  let a = ref 1 and s = ref 0 in
  for i = pos to pos + len - 1 do
    a := (!a + Char.code (Bytes.get b i)) mod 65521;
    s := (!s + !a) mod 65521
  done;
  (!s lsl 16) lor !a

(* Both kernels: the one [adler32] dispatches to on this build, and the
   portable loop that is a non-SSE2 build's only path. *)
let kernels =
  [ ("adler32", Checksum.adler32); ("portable", Checksum.adler32_portable) ]

let test_checksum_known_vector () =
  List.iter
    (fun (name, (kernel : ?pos:int -> ?len:int -> bytes -> int)) ->
      Alcotest.(check int) (name ^ " \"Wikipedia\"") 0x11E60398
        (kernel (Bytes.of_string "Wikipedia"));
      Alcotest.(check int) (name ^ " empty input") 1 (kernel Bytes.empty))
    kernels

(* Lengths around the 8-byte word, the 32-byte vector step (one and two
   steps), the 128-word (1024-byte) run, the 4 KB block, the 173-step
   (5536-byte) vector run and zlib's 5552-byte reduction chunk (odd
   tails past one and two of each), over all-0xFF input (every lane and
   sum at its largest) and over a mixed pattern, at every offset within
   two words. *)
let test_checksum_boundaries () =
  let lens =
    [ 0; 1; 7; 8; 9; 15; 16; 17; 31; 32; 33; 63; 64; 65; 127; 128; 129; 255;
      256; 1023; 1024; 1025; 2047; 2048; 2049; 3071; 3072; 3073; 4088; 4095;
      4096; 4097; 5503; 5504; 5505; 5535; 5536; 5537; 5544; 5551; 5552; 5553;
      5560; 11071; 11072; 11073; 11103; 11104; 11105; 32 * 4096 ]
  in
  List.iter
    (fun (name, (kernel : ?pos:int -> ?len:int -> bytes -> int)) ->
      List.iter
        (fun fill ->
          List.iter
            (fun len ->
              List.iter
                (fun pos ->
                  let b = Bytes.init (pos + len) (fill pos) in
                  Alcotest.(check int)
                    (Printf.sprintf "%s pos %d len %d" name pos len)
                    (adler32_reference ~pos ~len b)
                    (kernel ~pos ~len b))
                (List.init 16 Fun.id))
            lens)
        [ (fun _ _ -> '\255');
          (fun pos i -> Char.chr ((i - pos) * 131 land 0xff)) ])
    kernels

(* A megabyte of 0xFF: runs back to back, each filling every lane to its
   largest. *)
let test_checksum_all_ones () =
  let b = Bytes.make (1 lsl 20) '\255' in
  List.iter
    (fun (name, (kernel : ?pos:int -> ?len:int -> bytes -> int)) ->
      Alcotest.(check int) (name ^ " 1 MB of 0xff")
        (adler32_reference ~pos:0 ~len:(1 lsl 20) b)
        (kernel b))
    kernels

let test_combine_edges () =
  let b = Bytes.init 200_000 (fun i -> Char.chr ((i * 7919) land 0xff)) in
  let sum pos len = Checksum.adler32 ~pos ~len b in
  List.iter
    (fun (k, len2) ->
      Alcotest.(check int)
        (Printf.sprintf "prefix %d + %d bytes" k len2)
        (sum 0 (k + len2))
        (Checksum.combine (sum 0 k) (sum k len2) ~len2))
    [ (0, 0); (0, 100); (100, 0); (0, 65521); (3, 65521); (3, 65522);
      (3, 131042); (4096, 131_043); (65521, 65521) ];
  match Checksum.combine 1 1 ~len2:(-1) with
  | _ -> Alcotest.fail "negative length accepted"
  | exception Invalid_argument _ -> ()

(* Split a byte string anywhere, including an empty prefix (checksum 1)
   and an empty suffix (len2 = 0), with suffixes past 65521 bytes (len2
   reduced modulo the base): the combined checksums equal the whole
   string's, by the per-byte reference. *)
let prop_combine_matches_reference =
  let gen =
    QCheck.Gen.(
      let* n = oneof [ int_range 0 300; int_range 65_000 140_000 ] in
      let* seed = int in
      let* split = oneof [ return 0; return n; int_range 0 n ] in
      return (n, seed, split))
  in
  QCheck.Test.make ~count:60 ~name:"combine = adler32 of the joined bytes"
    (QCheck.make gen
       ~print:(fun (n, seed, k) -> Printf.sprintf "n=%d seed=%d split=%d" n seed k))
    (fun (n, seed, k) ->
      let st = Random.State.make [| seed |] in
      let b = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256)) in
      Checksum.combine
        (adler32_reference ~pos:0 ~len:k b)
        (adler32_reference ~pos:k ~len:(n - k) b)
        ~len2:(n - k)
      = adler32_reference ~pos:0 ~len:n b)

let test_checksum_rejects_bad_range () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (name, (kernel : ?pos:int -> ?len:int -> bytes -> int)) ->
      List.iter
        (fun (pos, len) ->
          match kernel ~pos ~len b with
          | _ -> Alcotest.failf "%s: range pos %d len %d accepted" name pos len
          | exception Invalid_argument _ -> ())
        [ (-1, 4); (0, 17); (10, 7); (4, -1) ])
    kernels

let prop_checksum_matches_reference =
  QCheck.Test.make ~count:300 ~name:"adler32 = per-byte reference"
    QCheck.(triple (string_of_size Gen.(0 -- 20_000)) pos_int pos_int)
    (fun (s, p, l) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let pos = p mod (n + 1) in
      let len = l mod (n - pos + 1) in
      List.for_all
        (fun (_, (kernel : ?pos:int -> ?len:int -> bytes -> int)) ->
          kernel ~pos ~len b = adler32_reference ~pos ~len b
          && kernel b = adler32_reference ~pos:0 ~len:n b)
        kernels)

let test_plot_renders () =
  let s =
    Lfs_util.Plot.render ~title:"t"
      [ { Lfs_util.Plot.label = "s"; points = [| (0.0, 1.0); (1.0, 2.0) |] } ]
  in
  Alcotest.(check bool) "non-empty with glyph" true
    (String.length s > 0 && String.contains s '*')

let test_plot_empty_series () =
  let s = Lfs_util.Plot.render ~title:"t" [ { Lfs_util.Plot.label = "e"; points = [||] } ] in
  Alcotest.(check bool) "renders without crash" true (String.length s > 0)

(* Property tests. *)

let prop_codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"bytes_codec roundtrip"
    QCheck.(
      triple (int_bound 0xffff) (string_of_size (Gen.int_bound 200)) (float_bound_exclusive 1e9))
    (fun (n, s, f) ->
      let module C = Lfs_util.Bytes_codec in
      let b = Bytes.make 1024 '\000' in
      let w = C.writer b in
      C.put_u16 w n;
      C.put_string w s;
      C.put_float w f;
      C.put_int w (-n);
      let r = C.reader b in
      C.get_u16 r = n && C.get_string r = s
      && C.get_float r = f
      && C.get_int r = -n)

let prop_codec_overflow =
  QCheck.Test.make ~count:50 ~name:"bytes_codec overflow raises"
    QCheck.(int_range 1 64)
    (fun n ->
      let module C = Lfs_util.Bytes_codec in
      let b = Bytes.make n '\000' in
      let w = C.at b (max 0 (n - 4)) in
      match C.put_u64 w 1L with
      | () -> n - (n - 4) >= 8
      | exception C.Overflow _ -> true)

let prop_percentile_bounds =
  QCheck.Test.make ~count:100 ~name:"percentile within min/max"
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1e6)) (float_bound_inclusive 1.0))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let v = Stats.percentile a p in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ----- Io_stats: copy/diff/merge round-trips ----- *)

module Io_stats = Lfs_disk.Io_stats

let arb_io_stats =
  let gen =
    QCheck.Gen.(
      map
        (fun (reads, writes, blocks_read, blocks_written, seeks, busy) ->
          {
            Io_stats.reads;
            writes;
            blocks_read;
            blocks_written;
            seeks;
            busy_s = float_of_int busy /. 16.0;
            queue_wait_s = float_of_int seeks /. 8.0;
            max_queue_depth = reads mod 32;
          })
        (tup6 (int_bound 1000) (int_bound 1000) (int_bound 10000)
           (int_bound 10000) (int_bound 1000) (int_bound 1000)))
  in
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Io_stats.pp s)
    gen

let stats_equal a b =
  a.Io_stats.reads = b.Io_stats.reads
  && a.Io_stats.writes = b.Io_stats.writes
  && a.Io_stats.blocks_read = b.Io_stats.blocks_read
  && a.Io_stats.blocks_written = b.Io_stats.blocks_written
  && a.Io_stats.seeks = b.Io_stats.seeks
  && Float.abs (a.Io_stats.busy_s -. b.Io_stats.busy_s) < 1e-9
  (* max_queue_depth is a watermark, not additive — excluded here. *)
  && Float.abs (a.Io_stats.queue_wait_s -. b.Io_stats.queue_wait_s) < 1e-9

let prop_io_stats_copy_independent =
  QCheck.Test.make ~count:100 ~name:"io_stats copy is independent" arb_io_stats
    (fun s ->
      let c = Io_stats.copy s in
      let before = Io_stats.copy s in
      c.Io_stats.reads <- c.Io_stats.reads + 1;
      c.Io_stats.busy_s <- c.Io_stats.busy_s +. 1.0;
      stats_equal s before)

let prop_io_stats_merge_diff_roundtrip =
  QCheck.Test.make ~count:100 ~name:"io_stats diff (merge a b) b = a"
    QCheck.(pair arb_io_stats arb_io_stats)
    (fun (a, b) ->
      (* merge is commutative, and diff undoes it *)
      stats_equal (Io_stats.merge a b) (Io_stats.merge b a)
      && stats_equal (Io_stats.diff (Io_stats.merge a b) b) a)

let test_io_stats_merge_zero () =
  let z = Io_stats.create () in
  let s = Io_stats.create () in
  s.Io_stats.reads <- 3;
  s.Io_stats.blocks_read <- 7;
  s.Io_stats.busy_s <- 0.5;
  Alcotest.(check bool) "zero is neutral" true
    (stats_equal (Io_stats.merge s z) s && stats_equal (Io_stats.merge z s) s)

let test_io_stats_reset () =
  let s = Io_stats.create () in
  s.Io_stats.writes <- 9;
  s.Io_stats.busy_s <- 2.0;
  Io_stats.reset s;
  Alcotest.(check bool) "reset zeroes" true (stats_equal s (Io_stats.create ()))

(* ----- Buf_pool ----- *)

let test_pool_reuses () =
  let p = Buf_pool.create 16 in
  let a = Buf_pool.take p in
  Alcotest.(check int) "pool size" 16 (Bytes.length a);
  Buf_pool.give p a;
  Alcotest.(check bool) "a take after a give reuses it" true (Buf_pool.take p == a);
  Alcotest.(check bool) "an empty pool allocates" true (Buf_pool.take p != a);
  Alcotest.check_raises "a buffer of another size"
    (Invalid_argument "Buf_pool.give: 8 bytes, not 16")
    (fun () -> Buf_pool.give p (Bytes.create 8))

let test_pool_bound () =
  let p = Buf_pool.create ~bound:1 16 in
  let a = Bytes.create 16 and b = Bytes.create 16 in
  Buf_pool.give p a;
  Buf_pool.give p b;
  Alcotest.(check bool) "the give within the bound is kept" true (Buf_pool.take p == a);
  Alcotest.(check bool) "the give past the bound was dropped" true
    (Buf_pool.take p != b);
  let z = Buf_pool.create ~bound:0 16 in
  Buf_pool.give z a;
  Alcotest.(check bool) "a zero bound keeps nothing" true (Buf_pool.take z != a)

(* Under poison a give fills the buffer, and a take of it checks the
   fill: one byte written after the give is caught, by either shape. *)
let test_pool_poison () =
  Fun.protect ~finally:(fun () -> Buf_pool.poison := false) @@ fun () ->
  Buf_pool.poison := true;
  let p = Buf_pool.create 37 in
  let a = Buf_pool.take p in
  Bytes.fill a 0 37 'y';
  Buf_pool.give p a;
  Alcotest.(check bool) "the give overwrote every byte" true
    (Bytes.for_all (fun c -> c <> 'y') a);
  Alcotest.(check bool) "an intact poisoned buffer is taken" true (Buf_pool.take p == a);
  let caught f =
    match f () with _ -> false | exception Failure _ -> true
  in
  Buf_pool.give p a;
  Bytes.set a 33 'x';
  Alcotest.(check bool) "a write after the give is caught" true
    (caught (fun () -> Buf_pool.take p));
  let s = Buf_pool.Scratch.create () in
  let b = Buf_pool.Scratch.take s 20 in
  Buf_pool.Scratch.give s;
  Bytes.set b 3 'x';
  Alcotest.(check bool) "scratch: a write after the give is caught" true
    (caught (fun () -> Buf_pool.Scratch.take s 10));
  (* A buffer given without poison is not checked when taken with it. *)
  Buf_pool.poison := false;
  let c = Buf_pool.take p in
  Buf_pool.give p c;
  Bytes.set c 0 'x';
  Buf_pool.poison := true;
  Alcotest.(check bool) "unpoisoned give, unchecked take" true (Buf_pool.take p == c)

let test_scratch_grows () =
  let s = Buf_pool.Scratch.create () in
  let a = Buf_pool.Scratch.take s 10 in
  Alcotest.(check int) "first take" 10 (Bytes.length a);
  Buf_pool.Scratch.give s;
  Alcotest.(check bool) "a smaller take reuses it" true (Buf_pool.Scratch.take s 4 == a);
  Buf_pool.Scratch.give s;
  let b = Buf_pool.Scratch.take s 30 in
  Alcotest.(check int) "grown to the largest request" 30 (Bytes.length b);
  Buf_pool.Scratch.give s;
  Alcotest.(check bool) "and kept" true (Buf_pool.Scratch.take s 12 == b)

let suite =
  ( "util",
    [
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng seeds differ" `Quick test_prng_seeds_differ;
      Alcotest.test_case "prng int range" `Quick test_prng_int_range;
      Alcotest.test_case "prng int covers" `Quick test_prng_int_covers;
      Alcotest.test_case "prng float range" `Quick test_prng_float_range;
      Alcotest.test_case "prng bernoulli bias" `Quick test_prng_bernoulli_bias;
      Alcotest.test_case "prng split" `Quick test_prng_split_independent;
      Alcotest.test_case "prng exponential mean" `Quick test_prng_exponential_mean;
      Alcotest.test_case "prng shuffle permutes" `Quick test_prng_shuffle_permutes;
      Alcotest.test_case "stats basic" `Quick test_stats_basic;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
      Alcotest.test_case "histogram basic" `Quick test_histogram_basic;
      Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
      Alcotest.test_case "histogram sums to one" `Quick test_histogram_series_sums_to_one;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "table renders" `Quick test_table_renders;
      Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
      Alcotest.test_case "checksum stable" `Quick test_checksum_stable;
      Alcotest.test_case "checksum differs" `Quick test_checksum_differs;
      Alcotest.test_case "checksum range" `Quick test_checksum_range;
      Alcotest.test_case "checksum known vector" `Quick test_checksum_known_vector;
      Alcotest.test_case "checksum chunk boundaries" `Quick test_checksum_boundaries;
      Alcotest.test_case "checksum rejects bad range" `Quick test_checksum_rejects_bad_range;
      Alcotest.test_case "checksum all 0xff" `Quick test_checksum_all_ones;
      Alcotest.test_case "checksum combine edges" `Quick test_combine_edges;
      Alcotest.test_case "plot renders" `Quick test_plot_renders;
      Alcotest.test_case "plot empty series" `Quick test_plot_empty_series;
      Alcotest.test_case "io_stats merge zero" `Quick test_io_stats_merge_zero;
      Alcotest.test_case "io_stats reset" `Quick test_io_stats_reset;
      Alcotest.test_case "buf_pool take reuses a give" `Quick test_pool_reuses;
      Alcotest.test_case "buf_pool give past the bound drops" `Quick test_pool_bound;
      Alcotest.test_case "buf_pool poison catches a late write" `Quick test_pool_poison;
      Alcotest.test_case "buf_pool scratch grows" `Quick test_scratch_grows;
      QCheck_alcotest.to_alcotest prop_checksum_matches_reference;
      QCheck_alcotest.to_alcotest prop_combine_matches_reference;
      QCheck_alcotest.to_alcotest prop_codec_roundtrip;
      QCheck_alcotest.to_alcotest prop_codec_overflow;
      QCheck_alcotest.to_alcotest prop_percentile_bounds;
      QCheck_alcotest.to_alcotest prop_io_stats_copy_independent;
      QCheck_alcotest.to_alcotest prop_io_stats_merge_diff_roundtrip;
    ] )
