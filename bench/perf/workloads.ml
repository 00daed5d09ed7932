(* The four workloads.  Each builds a fresh stack, runs its set-up, runs
   its measured phase, then checks the file system's contents.  Only the
   measured phase feeds the per-op metrics; set-up feeds [setup_cpu_s];
   the checks feed nothing.  Run lengths are fixed (scaled only by the
   smoke test): host cost per op grows with run length while the device
   queue's completion list is never drained in synchronous mode, so a
   time-based length would make host numbers incomparable. *)

module Vdev = Lfs_disk.Vdev
module Vdev_fault = Lfs_disk.Vdev_fault
module Geometry = Lfs_disk.Geometry
module Io_stats = Lfs_disk.Io_stats
module Metrics = Lfs_obs.Metrics
module Prng = Lfs_util.Prng
module Fs = Lfs_core.Fs
module Fsck = Lfs_core.Fsck
module Config = Lfs_core.Config
module Types = Lfs_core.Types
module Inode = Lfs_core.Inode
module Fsops = Lfs_workload.Fsops
module Engine = Lfs_server.Engine

type metric = { name : string; value : float; unit : string; n : int }
(** [n] is the sample count behind a percentile, 0 otherwise. *)

let m ?(n = 0) name unit value = { name; value; unit; n }

type outcome = {
  ops : int;  (** measured ops: requests, overwrites or recoveries *)
  failed : int;  (** shed + [Fs_error] + ops whose verification failed *)
  setup_cpu_s : float;
  op_cpu_s : float;
  modelled : metric list;  (** modelled-clock results: a function of the seed *)
  gc : metric list;  (** allocation per op in the measured phase *)
  layers : metric list;  (** per-layer metrics; only in a traced run *)
  problems : string list;  (** correctness failures *)
}

type ctx = {
  seed : int;
  scale : float;
  tracer : Tracer.t option;
  first : bool;
      (** the first repetition with this seed: it also runs the
          correctness checks and office's rate ladder.  A later one with
          the same seed replays it, as its identical modelled results
          confirm, so it skips them. *)
}

let scaled ctx n = max 1 (int_of_float (Float.round (float_of_int n *. ctx.scale)))

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let span ctx name f = Tracer.opt_span ctx.tracer name f
let mark ctx = Option.iter Tracer.mark ctx.tracer

(* A timing as its median and its highest percentile with ten samples
   beyond it (the maximum when even the median has fewer). *)
let percentiles ~name ~n pct =
  let q = Option.value (Stats.tail_quantile n) ~default:1.0 in
  [ m ~n (name ^ "_p50_ms") "ms" (pct 0.5); m ~n (name ^ "_tail_ms") "ms" (pct q) ]

let sample_percentiles ~name secs =
  percentiles ~name ~n:(List.length secs) (fun q -> 1e3 *. Stats.percentile secs q)

(* ---- The measured phase ----------------------------------------------- *)

type window = {
  cpu_s : float;
  io : Io_stats.t;  (** device activity *)
  reg : Testbed.delta;  (** what the phase added to the file system's registry *)
  minor_w : float;
  promoted_w : float;
  majors : float;
}

(* Host CPU, device statistics and GC counters are read at the phase's
   boundaries, and spans are recorded only inside it.  The caller fills in
   [reg], because the registry to read can be one the phase creates. *)
let measure ctx dev f =
  let io0 = Testbed.io dev and g0 = Gc.quick_stat () in
  let c0 = cpu () in
  Option.iter (fun t -> Tracer.set_enabled t true) ctx.tracer;
  let v = Fun.protect ~finally:(fun () -> Option.iter (fun t -> Tracer.set_enabled t false) ctx.tracer) f in
  let c1 = cpu () in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      cpu_s = c1 -. c0;
      io = Io_stats.diff (Vdev.stats dev.Testbed.top) io0;
      reg = [];
      minor_w = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_w = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      majors = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
    } )

let add_windows a b =
  {
    cpu_s = a.cpu_s +. b.cpu_s;
    io = Io_stats.merge a.io b.io;
    reg = Testbed.add a.reg b.reg;
    minor_w = a.minor_w +. b.minor_w;
    promoted_w = a.promoted_w +. b.promoted_w;
    majors = a.majors +. b.majors;
  }

let gc_metrics ~ops w =
  let per_op x = x /. float_of_int ops in
  [
    m "gc.minor_kw_per_op" "kw" (per_op (w.minor_w /. 1e3));
    m "gc.promoted_kw_per_op" "kw" (per_op (w.promoted_w /. 1e3));
    m "gc.major_per_kop" "count" (per_op (1e3 *. w.majors));
  ]

(* ---- Per-layer metrics ------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let span_metrics tr ~alloc name =
  let s = Tracer.stat tr name in
  let calls = float_of_int s.Tracer.calls in
  [ m (name ^ ".calls") "count" calls; m (name ^ ".self_us") "us" (ratio s.Tracer.self_us calls) ]
  @ if alloc then [ m (name ^ ".alloc_kw") "kw" (ratio s.Tracer.alloc_kw calls) ] else []

(* [engine]: the measured Engine run, if the workload has one;
   [recoveries]: the measured [Fs.recover] reports. *)
let layer_metrics tr (c : Testbed.counts) ~ops ~block_size w ~engine ~recoveries =
  let per_op x = x /. float_of_int ops in
  let d = Testbed.get w.reg in
  let io = w.io in
  let engine_self = Tracer.stat tr "engine.run" in
  let batches = d "fs.log.head.0.syncs" in
  let hits = d "vdev.cache.hits" and misses = d "vdev.cache.misses" in
  let nrec = float_of_int (max 1 (List.length recoveries)) in
  let per_recovery f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 recoveries) /. nrec in
  let recovery = Tracer.stat tr "recovery" in
  let engine =
    match engine with
    | None -> [ 0.0; 0.0; 0.0; 0.0 ]
    | Some (r : Engine.result) ->
        let reqs = float_of_int r.Engine.completed in
        [
          ratio (float_of_int r.Engine.flushes) reqs;
          (if r.Engine.flushes = 0 then 0.0 else r.Engine.mean_batch);
          float_of_int r.Engine.max_queue_depth;
          ratio (1e3 *. io.Io_stats.queue_wait_s) reqs;
        ]
  in
  List.map2 (fun (name, unit) v -> m name unit v)
    [
      ("engine.flushes_per_req", "count");
      ("engine.mean_batch", "count");
      ("engine.queue_depth_max", "count");
      ("engine.dev_wait_ms_per_req", "ms");
    ]
    engine
  @ [ m "engine.self_s" "s" (engine_self.Tracer.self_us /. 1e6) ]
  @ List.concat_map
      (fun op -> span_metrics tr ~alloc:true ("fs." ^ op))
      [ "create"; "write"; "read"; "resolve"; "unlink"; "sync" ]
  @ [
      m "fs.write_amp" "ratio"
        (ratio (float_of_int io.Io_stats.blocks_written)
           (float_of_int c.Testbed.user_bytes /. float_of_int block_size));
    ]
  @ span_metrics tr ~alloc:true "cleaner.step"
  @ [
      m "cleaner.step.useful_ratio" "ratio"
        (ratio (float_of_int c.Testbed.clean_useful) (float_of_int c.Testbed.clean_polls));
      m "cleaner.segments_per_op" "count" (per_op (d "fs.cleaner.segments_cleaned"));
      m "cleaner.victim_u_mean" "ratio" (ratio (d "victims.u_sum") (d "victims"));
      m "cleaner.fg_passes" "count" (d "fs.cleaner.fg.passes");
      m "cleaner.stall_ms_per_op" "ms" (per_op (1e3 *. d "fs.cleaner.stall_s"));
      m "checkpoint.per_op" "count" (per_op (d "fs.checkpoints"));
      m "checkpoint.blocks_per_op" "count" (per_op (d "fs.checkpoint.blocks"));
      m "checkpoint.busy_ms_per_op" "ms" (per_op (1e3 *. d "fs.checkpoint.busy_s"));
      (* A batch is its payload blocks plus one summary block. *)
      m "log.batches_per_op" "count" (per_op batches);
      m "log.blocks_per_batch" "count" (ratio (d "fs.log.head.0.blocks" +. batches) batches);
      m "cache.hit_rate" "ratio" (ratio hits (hits +. misses));
      m "cache.misses_per_op" "count" (per_op misses);
    ]
  @ List.concat_map
      (fun op -> span_metrics tr ~alloc:false ("vdev." ^ op))
      [ "read_blocks"; "write_blocks"; "zero_blocks"; "submit_read"; "submit_write"; "drain"; "pump" ]
  @ [
      m "vdev.blocks_read_per_op" "count" (per_op (float_of_int io.Io_stats.blocks_read));
      m "vdev.blocks_written_per_op" "count" (per_op (float_of_int io.Io_stats.blocks_written));
      m "vdev.seeks_per_op" "count" (per_op (float_of_int io.Io_stats.seeks));
      m "vdev.busy_ms_per_op" "ms" (per_op (1e3 *. io.Io_stats.busy_s));
      m "vdev.queue_wait_ms_per_op" "ms" (per_op (1e3 *. io.Io_stats.queue_wait_s));
      m "recovery.self_s" "s" (recovery.Tracer.self_us /. 1e6 /. nrec);
      m "recovery.alloc_mw" "Mw" (recovery.Tracer.alloc_kw /. 1e3 /. nrec);
      m "recovery.segments_scanned" "count" (per_recovery (fun r -> r.Fs.segments_scanned));
      m "recovery.writes_replayed" "count" (per_recovery (fun r -> r.Fs.writes_replayed));
      m "recovery.inodes_recovered" "count" (per_recovery (fun r -> r.Fs.inodes_recovered));
      m "recovery.dirops_applied" "count" (per_recovery (fun r -> r.Fs.dirops_applied));
      m "host.cpu_growth" "ratio" (Tracer.growth tr);
    ]

(* ---- Correctness checks ----------------------------------------------- *)

(* Every allocated inode with its type, size, link count and a digest of
   its contents (its entries, for a directory). *)
let file_snapshot fs =
  let inodes = ref [] in
  Fs.iter_files fs (fun ino (i : Inode.t) ->
      inodes := (ino, i.Inode.ftype, i.Inode.size, i.Inode.nlink) :: !inodes);
  List.map
    (fun (ino, ftype, size, nlink) ->
      let digest =
        match ftype with
        | Types.Regular -> Digest.bytes (Fs.read fs ino ~off:0 ~len:size)
        | Types.Directory ->
            Digest.string (String.concat "/" (List.sort compare (List.map fst (Fs.readdir fs ino))))
      in
      (ino, ftype, size, nlink, digest))
    (List.sort compare !inodes)

let fsck_problems label fs =
  List.map (fun e -> Printf.sprintf "fsck %s: %s" label e) (Fsck.check fs).Fsck.errors

let validate_problems label reg =
  List.map (fun (k, why) -> Printf.sprintf "metrics %s: %s %s" label k why) (Metrics.validate reg)

(* A file's contents name the file and its version, so a check can tell
   the latest write from any older one. *)
let stamped ~tag ~version size =
  let b = Bytes.make size (Char.chr (97 + (Hashtbl.hash (tag, version) mod 26))) in
  let stamp = Printf.sprintf "%s v%d;" tag version in
  Bytes.blit_string stamp 0 b 0 (min size (String.length stamp));
  b

(* ---- office and office-big: the serving engine ------------------------ *)

type engine_spec = {
  blocks : int;
  files : int;  (** per-client working set *)
  write_size : int;  (** max bytes per write or read *)
  rate : float;  (** offered ops/s over all clients *)
  warm : int;  (** ops per client in the warm-up run *)
  measured : int;  (** ops per client in the measured run *)
  bg_clean : bool;
  ladder : int;  (** ops per client per ladder rung; 0 = no ladder *)
}

let clients = 16

let engine_config spec ~seed ~ops ~rate =
  {
    Engine.default with
    Engine.clients;
    ops_per_client = ops;
    seed;
    (* Open loop: the clients' mean think time sets the offered rate. *)
    think_mean_s = float_of_int clients /. rate;
    policy = Engine.Block;
    batch_window_s = 0.01;
    session_files = spec.files;
    write_size = spec.write_size;
    bg_clean = spec.bg_clean;
    io_depth = 8;
  }

let latency (r : Engine.result) cls =
  let name = "server.latency." ^ cls ^ ".s" in
  let n =
    match Metrics.value r.Engine.metrics name with
    | Some (Metrics.Summary { count; _ }) -> count
    | _ -> 0
  in
  let h = Metrics.histogram r.Engine.metrics name in
  (n, fun q -> 1e3 *. Metrics.percentile h q)

let ladder_rates = [ 60.; 80.; 100.; 120.; 140.; 160.; 180.; 200. ]

(* A rung holds when its write tail stays within 200 ms, nothing is shed
   and goodput reaches 90% of the offered rate. *)
let rung_ok rate (r : Engine.result) =
  let n, pct = latency r "write" in
  pct (Option.value (Stats.tail_quantile n) ~default:1.0) <= 200.0
  && r.Engine.shed = 0
  && r.Engine.throughput_ops_s >= 0.9 *. rate

let engine_workload spec ctx =
  let counts = Testbed.counts () in
  let c0 = cpu () in
  let dev, fs = Testbed.fresh ?tracer:ctx.tracer (Geometry.wren_iv ~blocks:spec.blocks) Config.default in
  let fsops =
    match ctx.tracer with
    | Some tr -> Testbed.wrap_fsops tr counts (Fsops.of_lfs fs)
    | None -> Fsops.of_lfs fs
  in
  let run ~seed ~ops ~rate =
    span ctx "engine.run" (fun () -> Engine.run (engine_config spec ~seed ~ops ~rate) fsops)
  in
  let warm = run ~seed:(ctx.seed + 1000) ~ops:(scaled ctx spec.warm) ~rate:spec.rate in
  let setup_cpu_s = cpu () -. c0 in
  let reg = Fs.metrics fs in
  let s0 = Metrics.snapshot reg in
  let r, w = measure ctx dev (fun () -> run ~seed:ctx.seed ~ops:(scaled ctx spec.measured) ~rate:spec.rate) in
  let w = { w with reg = Testbed.delta s0 (Metrics.snapshot reg) } in
  let rungs =
    if spec.ladder = 0 || not ctx.first then []
    else
      List.map
        (fun rate ->
          (rate, run ~seed:(ctx.seed + 2000 + int_of_float rate) ~ops:(scaled ctx spec.ladder) ~rate))
        ladder_rates
  in
  (* Checks: healthy registries, fsck clean, and the served image survives
     a restart unchanged (sync, then recover the same device). *)
  let problems =
    if not ctx.first then []
    else
    List.concat_map
      (fun (label, (r : Engine.result)) -> validate_problems label r.Engine.metrics)
      ((("warm-up", warm) :: ("measured", r) :: List.map (fun (rate, r) -> (Printf.sprintf "ladder %.0f" rate, r)) rungs))
    @ validate_problems "fs" reg
    @ fsck_problems "before restart" fs
    @
    (Fs.sync fs;
     let before = file_snapshot fs in
     let fs2, _ = Fs.recover dev.Testbed.top in
     (if file_snapshot fs2 = before then [] else [ "files differ after a restart" ])
     @ fsck_problems "after restart" fs2)
  in
  let ops = r.Engine.completed + r.Engine.shed in
  let wn, wpct = latency r "write" and rn, rpct = latency r "read" in
  let max_rate = List.fold_left (fun acc (rate, r) -> if rung_ok rate r then rate else acc) 0.0 rungs in
  {
    ops;
    failed = r.Engine.shed + r.Engine.errors;
    setup_cpu_s;
    op_cpu_s = w.cpu_s;
    modelled =
      (m "tput_ops_s" "1/s" r.Engine.throughput_ops_s :: percentiles ~name:"op" ~n:wn wpct)
      @ [ m "write_cost" "ratio" (Testbed.write_cost w.reg) ]
      @ percentiles ~name:"read" ~n:rn rpct
      @ if rungs = [] then [] else [ m "max_rate_ops_s" "1/s" max_rate ];
    gc = gc_metrics ~ops w;
    layers =
      (match ctx.tracer with
      | None -> []
      | Some tr -> layer_metrics tr counts ~ops ~block_size:4096 w ~engine:(Some r) ~recoveries:[]);
    problems;
  }

(* Fits the 16 MB block cache: about 2 MB of files. *)
let office =
  engine_workload
    { blocks = 16384; files = 32; write_size = 8192; rate = 100.0; warm = 250; measured = 1500;
      bg_clean = false; ladder = 250 }

(* Twice the cache: about 32 MB of files, with idle-time cleaning. *)
let office_big =
  engine_workload
    { blocks = 24576; files = 128; write_size = 32768; rate = 20.0; warm = 125; measured = 750;
      bg_clean = true; ladder = 0 }

(* ---- hotcold-80: the cleaner's steady state, no engine ---------------- *)

let hotcold ctx =
  let counts = Testbed.counts () in
  let config =
    {
      Config.default with
      max_inodes = 4096;
      seg_blocks = 128;
      write_buffer_blocks = 128;
      cleaner_read = Config.Live_blocks;
      bg_clean_start = 10;
      bg_clean_stop = 12;
    }
  in
  let file_bytes = 16 * 4096 in
  let c0 = cpu () in
  let dev, fs = Testbed.fresh ?tracer:ctx.tracer (Geometry.wren_iv ~blocks:16384) config in
  let layout = Fs.layout fs in
  let capacity = layout.Lfs_core.Layout.nsegs * layout.Lfs_core.Layout.seg_blocks in
  (* Live data (plus about 6% metadata) at 80% of the log; 85% runs the
     log out of clean segments. *)
  let nfiles = int_of_float (0.80 *. float_of_int capacity) / 17 in
  let nhot = nfiles / 10 in
  let version = Array.make nfiles 0 in
  let path i = Printf.sprintf "/f%d" i in
  let contents i = stamped ~tag:(path i) ~version:version.(i) file_bytes in
  for i = 0 to nfiles - 1 do
    Fs.write_path fs (path i) (contents i)
  done;
  Fs.sync fs;
  let prng = Prng.create ~seed:ctx.seed in
  (* 90% of overwrites go to the hottest 10% of files.  Each is followed
     by one single-victim cleaner step, as an idle-time cleaner runs it.
     Returns the overwrite's device time, cleaning included. *)
  let overwrite () =
    let i =
      if Prng.bernoulli prng ~p:0.9 then Prng.int prng nhot else nhot + Prng.int prng (nfiles - nhot)
    in
    version.(i) <- version.(i) + 1;
    let d0 = Testbed.busy_s dev in
    span ctx "fs.write" (fun () -> Fs.write_path fs (path i) (contents i));
    let step () = Fs.clean_step ~max_segments:1 fs in
    ignore
      (match ctx.tracer with Some tr -> Testbed.clean_step tr counts step | None -> step () : int);
    Testbed.busy_s dev -. d0
  in
  (* An [Fs_error] (the log out of clean segments) ends the workload; the
     overwrites it never ran count as failed. *)
  let overwrites n =
    let rec go k acc =
      if k = n then (acc, 0)
      else
        match overwrite () with
        | t ->
            mark ctx;
            go (k + 1) (t :: acc)
        | exception Types.Fs_error _ -> (acc, n - k)
    in
    go 0 []
  in
  let _, warm_failed = overwrites (scaled ctx 600) in
  let setup_cpu_s = cpu () -. c0 in
  let ops = scaled ctx 1000 in
  let reg = Fs.metrics fs in
  let s0 = Metrics.snapshot reg in
  let (times, failed), w =
    measure ctx dev (fun () -> if warm_failed > 0 then ([], ops) else overwrites ops)
  in
  let w = { w with reg = Testbed.delta s0 (Metrics.snapshot reg) } in
  counts.Testbed.user_bytes <- List.length times * file_bytes;
  (* Checks: every file holds its latest version, and fsck is clean.
     Draining the device's completion list first keeps their host cost
     independent of how long the run was. *)
  let stale, problems =
    if not ctx.first then ([], [])
    else begin
      ignore (Vdev.pump dev.Testbed.top ~now:0.0 : (int * float) list);
      Fs.sync fs;
      let stale =
        List.filter (fun i -> Fs.read_path fs (path i) <> Some (contents i)) (List.init nfiles Fun.id)
      in
      ( stale,
        List.map (fun i -> Printf.sprintf "%s does not hold version %d" (path i) version.(i)) stale
        @ fsck_problems "after overwrites" fs )
    end
  in
  {
    ops;
    failed = failed + List.length stale;
    setup_cpu_s;
    op_cpu_s = w.cpu_s;
    modelled =
      (m "tput_ops_s" "1/s" (float_of_int (List.length times) /. w.io.Io_stats.busy_s)
      :: sample_percentiles ~name:"op" times)
      @ [ m "write_cost" "ratio" (Testbed.write_cost w.reg) ];
    gc = gc_metrics ~ops w;
    layers =
      (match ctx.tracer with
      | None -> []
      | Some tr -> layer_metrics tr counts ~ops ~block_size:4096 w ~engine:None ~recoveries:[]);
    problems;
  }

(* ---- crash-recover: roll-forward after a torn power cut --------------- *)

let crash_recover ctx =
  let cycles = 8 and base = scaled ctx 500 in
  let prng = Prng.create ~seed:ctx.seed in
  (* Files of seeded sizes of about 1 KB (one block each).  The
     acknowledged phase writes a seeded number of them, within 5% of
     [base], so the log a recovery rolls forward differs from seed to
     seed.  The in-flight phase always writes [base]: the write-buffer
     batch the power cut tears then has the same size in every cycle,
     instead of anything from empty to a full buffer. *)
  let acked = Array.init cycles (fun _ -> base - (base / 20) + Prng.int prng ((base / 10) + 1)) in
  let size = Array.map (fun n -> Array.init (n + base) (fun _ -> 512 + Prng.int prng 1025)) acked in
  let config = { Config.default with max_inodes = 5 * base + 64 } in
  let c0 = cpu () in
  let dev = Testbed.device ?tracer:ctx.tracer ~fault_seed:ctx.seed (Geometry.wren_iv ~blocks:32768) in
  let fault = Option.get dev.Testbed.fault in
  Fs.format dev.Testbed.top config;
  let fs = ref (Fs.mount dev.Testbed.top) in
  let dir c = Printf.sprintf "/c%d" c in
  let path c i = Printf.sprintf "/c%d/f%d" c i in
  let contents c i = stamped ~tag:(path c i) ~version:0 size.(c).(i) in
  let setup = ref (cpu () -. c0) in
  let window = ref None and times = ref [] and reports = ref [] in
  let write_reg = ref [] and problems = ref [] and failed = ref 0 in
  let survivors = ref [] in
  for c = 0 to cycles - 1 do
    let t0 = cpu () in
    let s0 = Metrics.snapshot (Fs.metrics !fs) in
    Fs.checkpoint !fs;
    ignore (Fs.mkdir_path !fs (dir c));
    Array.iteri
      (fun i _ ->
        Fs.write_path !fs (path c i) (contents c i);
        (* The first phase is acknowledged; the second is still in flight
           when the power fails four blocks into the final sync. *)
        if i = acked.(c) - 1 then Fs.sync !fs)
      size.(c);
    Vdev_fault.plan_crash fault ~after_blocks:4 ();
    (try Fs.sync !fs with Vdev.Crashed -> ());
    write_reg := Testbed.add !write_reg (Testbed.delta s0 (Metrics.snapshot (Fs.metrics !fs)));
    Vdev_fault.reboot fault;
    setup := !setup +. (cpu () -. t0);
    let (fs', report), w =
      measure ctx dev (fun () ->
          mark ctx;
          span ctx "recovery" (fun () -> Fs.recover dev.Testbed.top))
    in
    let w = { w with reg = Testbed.delta [] (Metrics.snapshot (Fs.metrics fs')) } in
    window := Some (match !window with None -> w | Some acc -> add_windows acc w);
    times := w.io.Io_stats.busy_s :: !times;
    reports := report :: !reports;
    fs := fs';
    (* Checks: acknowledged files exact, unacknowledged ones absent or
       exact, the previous cycle's survivors still exact; fsck clean.
       They run in every repetition, whatever [ctx.first] says: their
       reads and fsck's flush move the disk head and the log, which later
       cycles' modelled times depend on. *)
    let intact (c', i) = Fs.read_path !fs (path c' i) = Some (contents c' i) in
    let wrong =
      List.filter
        (fun (c', i) -> not (intact (c', i) || (i >= acked.(c) && Fs.resolve !fs (path c' i) = None)))
        (List.init (Array.length size.(c)) (fun i -> (c, i)))
      @ List.filter (fun f -> not (intact f)) !survivors
    in
    if wrong <> [] then incr failed;
    problems :=
      !problems
      @ List.map (fun (c', i) -> path c' i ^ " is wrong after recovery") wrong
      @ fsck_problems (Printf.sprintf "cycle %d" c) !fs;
    (* Then retire the previous cycle. *)
    let t1 = cpu () in
    (match !survivors with
    | [] -> ()
    | (c', _) :: _ ->
        let ino = Option.get (Fs.resolve !fs (dir c')) in
        List.iter (fun (_, i) -> Fs.unlink !fs ~dir:ino (Printf.sprintf "f%d" i)) !survivors;
        Fs.rmdir !fs ~dir:Fs.root (Printf.sprintf "c%d" c'));
    survivors :=
      List.filter (fun (_, i) -> Fs.resolve !fs (path c i) <> None) (List.init (Array.length size.(c)) (fun i -> (c, i)));
    setup := !setup +. (cpu () -. t1)
  done;
  let w = Option.get !window in
  {
    ops = cycles;
    failed = !failed;
    setup_cpu_s = !setup;
    op_cpu_s = w.cpu_s;
    modelled =
      (m "tput_ops_s" "1/s" (float_of_int cycles /. List.fold_left ( +. ) 0.0 !times)
      :: sample_percentiles ~name:"op" !times)
      @ [ m "write_cost" "ratio" (Testbed.write_cost !write_reg) ];
    gc = gc_metrics ~ops:cycles w;
    layers =
      (match ctx.tracer with
      | None -> []
      | Some tr ->
          layer_metrics tr (Testbed.counts ()) ~ops:cycles ~block_size:4096 w ~engine:None
            ~recoveries:!reports);
    problems = !problems;
  }

let all = [ ("office", office); ("office-big", office_big); ("hotcold-80", hotcold); ("crash-recover", crash_recover) ]
