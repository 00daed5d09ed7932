(* Tests for the observability layer: the metrics registry itself, the
   write-cost accounting fix, and the registry as wired into a live
   mounted file system. *)

module Metrics = Lfs_obs.Metrics
module Fs = Lfs_core.Fs
module Fs_stats = Lfs_core.Fs_stats
module Prng = Lfs_util.Prng

(* ----- Registry unit tests ----- *)

let test_counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "passes" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "incremented" 5 (Metrics.counter_value c);
  (* Get-or-create: a second handle is the same instrument. *)
  let c2 = Metrics.counter m "passes" in
  Metrics.incr c2;
  Alcotest.(check int) "same instrument" 6 (Metrics.counter_value c);
  match Metrics.value m "passes" with
  | Some (Metrics.Int 6) -> ()
  | _ -> Alcotest.fail "value should be Int 6"

let test_gauge_basics () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "depth" in
  Alcotest.(check bool) "undefined until set" true
    (Float.is_nan (Metrics.float_value m "depth"));
  Metrics.set g 3.25;
  Alcotest.(check (float 0.0)) "set value" 3.25 (Metrics.float_value m "depth")

let test_gauge_fn_duplicate_rejected () =
  let m = Metrics.create () in
  let cell = ref 1.0 in
  Metrics.gauge_fn m "live" (fun () -> !cell);
  cell := 7.0;
  Alcotest.(check (float 0.0)) "samples at read time" 7.0
    (Metrics.float_value m "live");
  (* A second registration would silently shadow the first instance's
     callback — it must be a loud error instead. *)
  (match Metrics.gauge_fn m "live" (fun () -> 42.0) with
  | () -> Alcotest.fail "duplicate callback gauge should raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "original callback intact" 7.0
    (Metrics.float_value m "live")

let test_scoped_prefixes () =
  let m = Metrics.create () in
  let s0 = Metrics.scoped m "shard0." and s1 = Metrics.scoped m "shard1." in
  (* The same name registers independently under each scope... *)
  Metrics.gauge_fn s0 "fs.live" (fun () -> 10.0);
  Metrics.gauge_fn s1 "fs.live" (fun () -> 11.0);
  Alcotest.(check (float 0.0)) "scope 0 reads its own" 10.0
    (Metrics.float_value s0 "fs.live");
  Alcotest.(check (float 0.0)) "scope 1 reads its own" 11.0
    (Metrics.float_value s1 "fs.live");
  (* ...and is visible registry-wide under its full name. *)
  Alcotest.(check (float 0.0)) "full name from the root" 11.0
    (Metrics.float_value m "shard1.fs.live");
  Metrics.incr ~by:3 (Metrics.counter s0 "ops");
  Alcotest.(check int) "snapshot shows full names" 1
    (List.length
       (List.filter
          (fun (n, _) -> String.equal n "shard0.ops")
          (Metrics.snapshot m)));
  (* Prefixes compose. *)
  let s0c = Metrics.scoped s0 "cleaner." in
  Metrics.incr (Metrics.counter s0c "passes");
  Alcotest.(check (float 0.0)) "composed prefix" 1.0
    (Metrics.float_value m "shard0.cleaner.passes")

let test_kind_conflict_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  match Metrics.gauge m "x" with
  | _ -> Alcotest.fail "kind conflict should raise"
  | exception Invalid_argument _ -> ()

let test_histogram_summary () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  (match Metrics.value m "lat" with
  | Some (Metrics.Summary { count; _ }) -> Alcotest.(check int) "empty" 0 count
  | _ -> Alcotest.fail "expected Summary");
  List.iter (Metrics.observe h) [ 0.5; 1.5; 4.0 ];
  match Metrics.value m "lat" with
  | Some (Metrics.Summary { count; sum; mean; vmin; vmax; p50; p95; p99 }) ->
      Alcotest.(check int) "count" 3 count;
      Alcotest.(check (float 1e-9)) "sum" 6.0 sum;
      Alcotest.(check (float 1e-9)) "mean" 2.0 mean;
      Alcotest.(check (float 1e-9)) "min" 0.5 vmin;
      Alcotest.(check (float 1e-9)) "max" 4.0 vmax;
      Alcotest.(check bool) "percentiles monotone" true (p50 <= p95 && p95 <= p99);
      Alcotest.(check bool) "percentiles in range" true (p50 >= 0.5 && p99 <= 4.0)
  | _ -> Alcotest.fail "expected Summary"

let test_histogram_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "p" in
  Alcotest.(check bool) "empty histogram: nan" true
    (Float.is_nan (Metrics.percentile h 0.5));
  (* 100 samples spread over two decades. *)
  for i = 1 to 100 do
    Metrics.observe h (0.001 *. float_of_int i)
  done;
  let p50 = Metrics.percentile h 0.50 in
  let p95 = Metrics.percentile h 0.95 in
  let p99 = Metrics.percentile h 0.99 in
  (* Bucket estimates: generous tolerances, but the ordering and the
     clamp to the observed extrema must hold exactly. *)
  Alcotest.(check bool) "p50 near the median" true (p50 >= 0.03 && p50 <= 0.07);
  Alcotest.(check bool) "p95 above p50" true (p95 >= p50);
  Alcotest.(check bool) "p99 above p95" true (p99 >= p95);
  Alcotest.(check bool) "p0 clamps to min" true (Metrics.percentile h 0.0 >= 0.001);
  Alcotest.(check (float 1e-12)) "p100 clamps to max" 0.1 (Metrics.percentile h 1.0);
  (match Metrics.percentile h 1.5 with
  | _ -> Alcotest.fail "quantile out of range should raise"
  | exception Invalid_argument _ -> ());
  (* A single sample: every quantile is that sample. *)
  let h1 = Metrics.histogram m "p1" in
  Metrics.observe h1 2.5;
  Alcotest.(check (float 1e-12)) "single sample p50" 2.5 (Metrics.percentile h1 0.5);
  Alcotest.(check (float 1e-12)) "single sample p99" 2.5 (Metrics.percentile h1 0.99)

let test_span_measures_clock_delta () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "busy" in
  let clock = ref 10.0 in
  let r =
    Metrics.span h ~clock:(fun () -> !clock) (fun () ->
        clock := !clock +. 2.5;
        "done")
  in
  Alcotest.(check string) "result passed through" "done" r;
  (* A failing operation still records its partial cost. *)
  (try
     Metrics.span h
       ~clock:(fun () -> !clock)
       (fun () ->
         clock := !clock +. 1.5;
         failwith "boom")
   with Failure _ -> ());
  match Metrics.value m "busy" with
  | Some (Metrics.Summary { count; sum; _ }) ->
      Alcotest.(check int) "both spans recorded" 2 count;
      Alcotest.(check (float 1e-9)) "deltas summed" 4.0 sum
  | _ -> Alcotest.fail "expected Summary"

let test_dist_series () =
  let m = Metrics.create () in
  let d = Metrics.dist ~bins:4 m "u" in
  Metrics.dist_add d 0.1;
  Metrics.dist_add ~weight:2.0 d 0.9;
  match Metrics.value m "u" with
  | Some (Metrics.Series { total; series }) ->
      Alcotest.(check (float 1e-9)) "total weight" 3.0 total;
      Alcotest.(check int) "bins" 4 (Array.length series);
      let fraction_sum =
        Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 series
      in
      Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0 fraction_sum
  | _ -> Alcotest.fail "expected Series"

let test_unknown_name () =
  let m = Metrics.create () in
  Alcotest.(check bool) "value None" true (Metrics.value m "nope" = None);
  Alcotest.(check bool) "float_value nan" true
    (Float.is_nan (Metrics.float_value m "nope"))

let test_validate_flags_bad_values () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "ok");
  Alcotest.(check int) "clean registry (counter)" 0 (List.length (Metrics.validate m));
  let g = Metrics.gauge m "g" in
  Metrics.set g Float.nan;
  Alcotest.(check bool) "NaN gauge flagged" true
    (List.exists (fun (n, _) -> n = "g") (Metrics.validate m));
  Metrics.set g 1.0;
  Alcotest.(check int) "finite gauge clean" 0 (List.length (Metrics.validate m));
  let c = Metrics.counter m "neg" in
  Metrics.incr ~by:(-2) c;
  Alcotest.(check bool) "negative counter flagged" true
    (List.exists (fun (n, _) -> n = "neg") (Metrics.validate m))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_report_and_json_render_nan () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "undef" in
  ignore g;
  ignore (Metrics.histogram m "empty_hist");
  let txt = Metrics.report ~title:"t" m in
  Alcotest.(check bool) "text prints undefined" true
    (contains ~sub:"undefined" txt);
  let json = Metrics.to_json m in
  Alcotest.(check bool) "json has no nan token" false (contains ~sub:"nan" json);
  Alcotest.(check bool) "json renders null" true (contains ~sub:"null" json)

(* ----- Windows: snapshot diffs ----- *)

let test_diff_window () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" and h = Metrics.histogram m "h" in
  let g = Metrics.gauge m "g" in
  Metrics.incr ~by:5 c;
  Metrics.observe h 1.0;
  Metrics.set g 2.0;
  let s0 = Metrics.snapshot m in
  Metrics.incr ~by:3 c;
  List.iter (Metrics.observe h) [ 2.0; 4.0 ];
  Metrics.set g 2.5;
  Metrics.incr (Metrics.counter m "late");
  let w = Metrics.diff s0 (Metrics.snapshot m) in
  Alcotest.(check (float 0.0)) "counter delta" 3.0 (Metrics.float_value w "c");
  Alcotest.(check (float 0.0)) "gauge delta" 0.5 (Metrics.float_value w "g");
  Alcotest.(check (float 0.0)) "registered mid-window counts from zero" 1.0
    (Metrics.float_value w "late");
  (match Metrics.value w "h" with
  | Some (Metrics.Summary { count; sum; mean; vmax; _ }) ->
      Alcotest.(check int) "histogram count delta" 2 count;
      Alcotest.(check (float 0.0)) "histogram sum delta" 6.0 sum;
      Alcotest.(check (float 0.0)) "window mean" 3.0 mean;
      Alcotest.(check bool) "extrema undefined" true (Float.is_nan vmax)
  | _ -> Alcotest.fail "expected Summary");
  (* The window is frozen: later traffic does not move it. *)
  Metrics.incr c;
  Alcotest.(check (float 0.0)) "frozen" 3.0 (Metrics.float_value w "c")

(* ----- Fs_stats.write_cost: undefined (nan) without fresh data ----- *)

let test_write_cost_undefined_without_fresh_data () =
  let snap ~fresh ~cleaner ~read =
    [
      ("fs.log.blocks_new", Metrics.Int fresh);
      ("fs.log.blocks_cleaner", Metrics.Int cleaner);
      ("fs.cleaner.blocks_read", Metrics.Int read);
    ]
  in
  let start = snap ~fresh:10 ~cleaner:0 ~read:0 in
  (* Cleaner-only traffic must not masquerade as a 1.0x write cost. *)
  let cleaner_only = Metrics.diff start (snap ~fresh:10 ~cleaner:16 ~read:32) in
  Alcotest.(check bool) "cleaner-only window: nan" true
    (Float.is_nan (Fs_stats.write_cost cleaner_only));
  let mixed = Metrics.diff start (snap ~fresh:26 ~cleaner:16 ~read:32) in
  Alcotest.(check (float 1e-9)) "defined once fresh data lands"
    ((16.0 +. 16.0 +. 32.0) /. 16.0)
    (Fs_stats.write_cost mixed);
  (* An idle window on a live mount has no fresh data either. *)
  let _, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/a" (Bytes.make 10_000 'a');
  Fs.sync fs;
  let s0 = Metrics.snapshot (Fs.metrics fs) in
  ignore (Fs.read_path fs "/a");
  Alcotest.(check bool) "idle window: nan" true
    (Float.is_nan
       (Fs_stats.write_cost (Metrics.diff s0 (Metrics.snapshot (Fs.metrics fs)))))

(* ----- The registry wired into a mounted file system ----- *)

let exercise fs =
  let prng = Prng.create ~seed:21 in
  for round = 0 to 2 do
    for i = 0 to 19 do
      let len = 2_000 + Prng.int prng 30_000 in
      Fs.write_path fs
        (Printf.sprintf "/f%d" i)
        (Bytes.make len (Char.chr (Char.code 'a' + ((i + round) mod 26))))
    done
  done;
  Fs.sync fs;
  for i = 0 to 19 do
    if i mod 2 = 0 then Fs.unlink fs ~dir:Fs.root (Printf.sprintf "f%d" i)
  done;
  Fs.clean fs;
  Fs.checkpoint fs

let test_fs_write_cost_gauge_agrees () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  exercise fs;
  let m = Fs.metrics fs in
  let from_gauge = Metrics.float_value m "fs.write_cost" in
  let since_mount = Metrics.diff [] (Metrics.snapshot m) in
  let from_window = Fs_stats.write_cost since_mount in
  Alcotest.(check bool) "write cost defined" true (Float.is_finite from_window);
  Alcotest.(check (float 1e-9)) "gauge equals the since-mount window" from_window
    from_gauge

let test_fs_metrics_cover_layers () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  (* Exactly three creates through the public API. *)
  List.iter
    (fun name -> ignore (Fs.create fs ~dir:Fs.root name))
    [ "a"; "b"; "c" ];
  Fs.checkpoint fs;
  let m = Fs.metrics fs in
  (match Metrics.value m "fs.op.create.busy_s" with
  | Some (Metrics.Summary { count; _ }) ->
      Alcotest.(check int) "create spans" 3 count
  | _ -> Alcotest.fail "create histogram missing");
  (* Checkpoint instruments agree with each other. *)
  let ckpts = Helpers.fs_total fs "fs.checkpoints" in
  Alcotest.(check bool) "checkpoints counted" true (ckpts > 0);
  (match Metrics.value m "fs.checkpoint.busy_s" with
  | Some (Metrics.Summary { count; _ }) ->
      Alcotest.(check int) "one span per checkpoint" ckpts count
  | _ -> Alcotest.fail "checkpoint histogram missing");
  (* The handed-in vdev registered IO gauges that track live Io_stats. *)
  let dev_writes =
    (Lfs_disk.Vdev.stats (List.hd (Fs.devices fs))).Lfs_disk.Io_stats
      .blocks_written
  in
  Alcotest.(check bool) "vdev layer registered" true
    (Metrics.float_value m "vdev.disk.blocks_written" = float_of_int dev_writes);
  let nblocks = Lfs_disk.Vdev.nblocks (List.hd (Fs.devices fs)) in
  Alcotest.(check (float 0.0)) "the cache gauge counts resident blocks"
    (float_of_int (List.length (List.filter (Fs.block_cached fs) (List.init nblocks Fun.id))))
    (Metrics.float_value m "vdev.cache.resident")

(* A checkpoint first flushes buffered writes, but its [fs.checkpoint.*]
   samples count only what it writes itself, its table blocks and its
   region: the same blocks and busy time as a checkpoint of the same
   state taken once those writes were synced.  On a queued device too,
   where the flush's data is served inside the checkpoint's barrier
   and its region write after the call returns: the busy sample is the
   device time of the checkpoint's own writes, taken once the last of
   them is served. *)
let test_checkpoint_counts_own_blocks ~queued () =
  let module Io_stats = Lfs_disk.Io_stats in
  let run ~sync_first =
    let disk = Lfs_disk.Disk.create (Lfs_disk.Geometry.wren_iv ~blocks:2048) in
    Fs.format (Helpers.vdev disk) Helpers.test_config;
    let fs = Fs.mount (Helpers.vdev disk) in
    if queued then
      Lfs_disk.Disk.set_mode disk (Lfs_disk.Io_queue.Queued (Fun.const 0.0));
    List.iter
      (fun name ->
        let ino = Fs.create fs ~dir:Fs.root name in
        Fs.write fs ino ~off:0 (Bytes.make 3000 'x'))
      [ "a"; "b"; "c" ];
    (* Serve the creates' reads first, so both runs' writes start from
       one head position. *)
    ignore (Lfs_disk.Disk.drain disk : float);
    if sync_first then Fs.sync fs;
    let summed name =
      match Metrics.value (Fs.metrics fs) name with
      | Some (Metrics.Summary { count; sum; _ }) -> (count, sum)
      | _ -> Alcotest.failf "%s: expected a histogram" name
    in
    let n0, blocks0 = summed "fs.checkpoint.blocks" in
    let b0, busy0 = summed "fs.checkpoint.busy_s" in
    let before = Io_stats.copy (Lfs_disk.Disk.stats disk) in
    Fs.checkpoint fs;
    ignore (Lfs_disk.Disk.drain disk : float);
    let dev = Io_stats.diff (Lfs_disk.Disk.stats disk) before in
    let n1, blocks1 = summed "fs.checkpoint.blocks" in
    let b1, busy1 = summed "fs.checkpoint.busy_s" in
    Alcotest.(check int) "one sample" (n0 + 1) n1;
    Alcotest.(check int) "one busy sample" (b0 + 1) b1;
    (dev, blocks1 -. blocks0, busy1 -. busy0)
  in
  let dev, blocks, busy = run ~sync_first:false in
  let own, own_blocks, own_busy = run ~sync_first:true in
  Alcotest.(check (float 0.0)) "synced first: the sample is the device's"
    (float_of_int own.Io_stats.blocks_written) own_blocks;
  Alcotest.(check (float 1e-12)) "synced first: busy time is the device's"
    own.Io_stats.busy_s own_busy;
  Alcotest.(check bool) "the flush wrote data" true
    (dev.Io_stats.blocks_written > own.Io_stats.blocks_written);
  Alcotest.(check (float 0.0)) "buffered: only the checkpoint's blocks"
    own_blocks blocks;
  Alcotest.(check (float 1e-12)) "buffered: only their busy time" own_busy busy;
  Alcotest.(check bool) "busy time is modelled" true (busy > 0.0)

let test_fs_metrics_validate_clean () =
  let _, fs = Helpers.fresh_fs ~blocks:2048 () in
  exercise fs;
  match Metrics.validate (Fs.metrics fs) with
  | [] -> ()
  | violations ->
      Alcotest.failf "validate: %s"
        (String.concat "; "
           (List.map (fun (n, msg) -> n ^ ": " ^ msg) violations))

(* ----- Accounting identities over a measured window ----- *)

(* Each quantity is counted once; the names derived from the counts must
   add up inside any window.  The window covers foreground passes,
   background steps and segments that empty by themselves. *)
let test_accounting_identities () =
  let config =
    {
      Helpers.test_config with
      Lfs_core.Config.clean_stop = 30;
      bg_clean_start = 25;
      bg_clean_stop = 28;
    }
  in
  let _, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  let m = Fs.metrics fs in
  let prng = Prng.create ~seed:31 in
  let path i = Printf.sprintf "/f%d" i in
  (* Single-block overwrites fragment segments, so victims hold live
     data the cleaner must read. *)
  let scribble rounds =
    for _ = 1 to rounds do
      match Fs.resolve fs (path (10 + Prng.int prng 50)) with
      | Some ino -> Fs.write fs ino ~off:(4096 * Prng.int prng 16) (Bytes.make 4096 's')
      | None -> ()
    done
  in
  for i = 0 to 59 do
    Fs.write_path fs (path i) (Bytes.make 65_536 'f')
  done;
  scribble 300;
  Fs.sync fs;
  let start = Metrics.snapshot m in
  (* Whole files deleted: their segments empty without cleaning. *)
  for i = 0 to 9 do
    Fs.unlink fs ~dir:Fs.root (Printf.sprintf "f%d" i)
  done;
  scribble 300;
  for _ = 1 to 10 do
    ignore (Fs.clean_step ~max_segments:1 fs)
  done;
  Fs.clean fs;
  Fs.sync fs;
  let w = Metrics.diff start (Metrics.snapshot m) in
  let n name = int_of_float (Metrics.float_value w name) in
  let samples name =
    match Metrics.value w name with
    | Some (Metrics.Summary { count; _ }) -> count
    | _ -> Alcotest.failf "%s: expected a histogram" name
  in
  let fg = n "fs.cleaner.fg.segments" and bg = n "fs.cleaner.bg.segments" in
  let empty = n "fs.cleaner.segments_cleaned_empty" in
  Alcotest.(check bool)
    (Printf.sprintf "window covers fg (%d), bg (%d) and empty (%d)" fg bg empty)
    true
    (fg > 0 && bg > 0 && empty > 0);
  Alcotest.(check int) "cleaned = fg + bg + self-emptied"
    (fg + bg + empty)
    (n "fs.cleaner.segments_cleaned");
  Alcotest.(check int) "one busy_s sample per checkpoint" (n "fs.checkpoints")
    (samples "fs.checkpoint.busy_s");
  Alcotest.(check int) "new + cleaner = sum over kinds"
    (n "fs.log.blocks_new" + n "fs.log.blocks_cleaner")
    (List.fold_left
       (fun acc k ->
         acc + n ("fs.log.blocks." ^ Lfs_core.Types.block_kind_name k))
       0 Lfs_core.Types.all_block_kinds);
  let fresh = float_of_int (n "fs.log.blocks_new") in
  Alcotest.(check (float 1e-12)) "write cost is the hand formula"
    ((fresh +. float_of_int (n "fs.log.blocks_cleaner" + n "fs.cleaner.blocks_read"))
    /. fresh)
    (Fs_stats.write_cost w)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter basics" `Quick test_counter_basics;
      Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
      Alcotest.test_case "gauge_fn duplicate rejected" `Quick
        test_gauge_fn_duplicate_rejected;
      Alcotest.test_case "scoped prefixes" `Quick test_scoped_prefixes;
      Alcotest.test_case "kind conflict" `Quick test_kind_conflict_rejected;
      Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
      Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
      Alcotest.test_case "span clock delta" `Quick test_span_measures_clock_delta;
      Alcotest.test_case "dist series" `Quick test_dist_series;
      Alcotest.test_case "unknown name" `Quick test_unknown_name;
      Alcotest.test_case "validate flags bad values" `Quick test_validate_flags_bad_values;
      Alcotest.test_case "report/json nan rendering" `Quick test_report_and_json_render_nan;
      Alcotest.test_case "diff window" `Quick test_diff_window;
      Alcotest.test_case "write cost undefined" `Quick test_write_cost_undefined_without_fresh_data;
      Alcotest.test_case "fs write-cost gauge agrees" `Quick test_fs_write_cost_gauge_agrees;
      Alcotest.test_case "fs metrics cover layers" `Quick test_fs_metrics_cover_layers;
      Alcotest.test_case "fs metrics validate clean" `Quick test_fs_metrics_validate_clean;
      Alcotest.test_case "checkpoint counts only its own blocks" `Quick
        (test_checkpoint_counts_own_blocks ~queued:false);
      Alcotest.test_case "checkpoint counts only its own blocks (queued)" `Quick
        (test_checkpoint_counts_own_blocks ~queued:true);
      Alcotest.test_case "accounting identities" `Quick test_accounting_identities;
    ] )
