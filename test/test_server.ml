(* Tests for the request-serving engine: the discrete-event scheduler,
   determinism, group commit, admission control (shed and block),
   fairness, and dir-log roll-forward under interleaved sessions. *)

module Sched = Lfs_server.Sched
module Engine = Lfs_server.Engine
module Session = Lfs_workload.Session
module Fsops = Lfs_workload.Fsops
module Metrics = Lfs_obs.Metrics
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Geometry = Lfs_disk.Geometry
module Fs = Lfs_core.Fs

(* ----- Scheduler ----- *)

let test_sched_ordering () =
  let s = Sched.create () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  Sched.at s 2.0 (mark "c");
  Sched.at s 1.0 (mark "a");
  (* Same instant: insertion order breaks the tie. *)
  Sched.at s 1.0 (mark "b");
  (* Past times clamp to now (0), firing before everything later. *)
  Sched.at s (-5.0) (mark "past");
  Alcotest.(check int) "pending" 4 (Sched.pending s);
  Sched.run s;
  Alcotest.(check (list string)) "fired in (time, insertion) order"
    [ "past"; "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check (float 0.0)) "now is the last event time" 2.0 (Sched.now s)

let test_sched_nested_events () =
  let s = Sched.create () in
  let hits = ref 0 in
  (* Events scheduled from inside an event still run, including at zero
     delay (they fire after the current one, not recursively). *)
  Sched.after s 1.0 (fun () ->
      Sched.after s 0.0 (fun () -> incr hits);
      Sched.after s 0.5 (fun () -> incr hits));
  Sched.run s;
  Alcotest.(check int) "nested events fired" 2 !hits;
  Alcotest.(check (float 0.0)) "clock advanced" 1.5 (Sched.now s)

(* ----- Engine fixtures ----- *)

(* Modelled-time geometry: group commit is invisible on an instant
   disk, so engine tests run on the paper's Wren IV. *)
let engine_geom ?(blocks = 8192) () = Geometry.wren_iv ~blocks

let small_cfg =
  {
    Engine.default with
    Engine.clients = 4;
    ops_per_client = 40;
    session_files = 8;
    write_size = 4096;
  }

(* ----- Determinism ----- *)

let test_engine_deterministic () =
  let once () =
    let r = Engine.run small_cfg (Fsops.fresh_lfs (engine_geom ())) in
    (Metrics.to_json r.Engine.metrics, r.Engine.completed, r.Engine.elapsed_s)
  in
  let j1, c1, e1 = once () in
  let j2, c2, e2 = once () in
  Alcotest.(check int) "same completions" c1 c2;
  Alcotest.(check (float 0.0)) "same modelled elapsed" e1 e2;
  Alcotest.(check string) "byte-identical metrics JSON" j1 j2;
  (* A different seed is a different run. *)
  let r3 =
    Engine.run { small_cfg with Engine.seed = 43 } (Fsops.fresh_lfs (engine_geom ()))
  in
  Alcotest.(check bool) "different seed diverges" false
    (Metrics.to_json r3.Engine.metrics = j1)

(* ----- Group commit ----- *)

let test_group_commit_amortises () =
  (* Batches form behind an in-flight flush, so the offered load must
     keep the device writing: 16 clients at 10 ms think over a 4-deep
     pipeline. *)
  let run clients =
    Engine.run
      { small_cfg with Engine.clients; ops_per_client = 60; think_mean_s = 0.01;
        io_depth = 4 }
      (Fsops.fresh_lfs (engine_geom ()))
  in
  let r1 = run 1 in
  let r16 = run 16 in
  Alcotest.(check bool) "all ops completed" true
    (r1.Engine.completed = 60 && r16.Engine.completed = 960);
  Alcotest.(check bool) "batches form under concurrency" true
    (r16.Engine.mean_batch > 1.0);
  Alcotest.(check bool) "16 clients out-serve 1 client" true
    (r16.Engine.throughput_ops_s > r1.Engine.throughput_ops_s);
  let per_op r = r.Engine.disk_s /. float_of_int r.Engine.completed in
  Alcotest.(check bool) "group commit cuts disk time per op" true
    (per_op r16 < per_op r1);
  (* The flush instruments saw the shared syncs. *)
  Alcotest.(check bool) "flushes counted" true (r16.Engine.flushes > 0);
  match Metrics.value r16.Engine.metrics "server.batch.requests" with
  | Some (Metrics.Summary { count; vmax; _ }) ->
      Alcotest.(check int) "one observation per flush" r16.Engine.flushes count;
      Alcotest.(check bool) "some batch carried several requests" true (vmax > 1.0)
  | _ -> Alcotest.fail "batch histogram missing"

let test_ffs_runs_without_batching () =
  let r =
    Engine.run small_cfg (Fsops.fresh_ffs (engine_geom ()))
  in
  Alcotest.(check int) "all ops completed" 160 r.Engine.completed;
  Alcotest.(check int) "no group commit on a synchronous backend" 0
    r.Engine.flushes;
  Alcotest.(check bool) "mean batch undefined" true
    (Float.is_nan r.Engine.mean_batch)

(* ----- Admission control ----- *)

let overload_cfg policy =
  {
    small_cfg with
    Engine.clients = 12;
    ops_per_client = 30;
    queue_depth = 2;
    policy;
    think_mean_s = 0.01;  (* offered load far beyond a depth-2 queue *)
  }

let test_overload_shed_accounting () =
  let cfg = overload_cfg Engine.Shed in
  let r = Engine.run cfg (Fsops.fresh_lfs (engine_geom ())) in
  Alcotest.(check bool) "overload actually sheds" true (r.Engine.shed > 0);
  (* No silent loss: every generated request completed or was shed. *)
  Array.iteri
    (fun c completed ->
      Alcotest.(check int)
        (Printf.sprintf "client %d accounted" c)
        cfg.Engine.ops_per_client
        (completed + r.Engine.per_client_shed.(c)))
    r.Engine.per_client_completed;
  Alcotest.(check int) "totals add up"
    (cfg.Engine.clients * cfg.Engine.ops_per_client)
    (r.Engine.completed + r.Engine.shed);
  Alcotest.(check bool) "waiting room respected the bound" true
    (r.Engine.max_queue_depth <= cfg.Engine.queue_depth)

let test_overload_block_completes_everything () =
  let cfg = overload_cfg Engine.Block in
  let r = Engine.run cfg (Fsops.fresh_lfs (engine_geom ())) in
  Alcotest.(check int) "nothing shed under Block" 0 r.Engine.shed;
  Alcotest.(check int) "every request completed"
    (cfg.Engine.clients * cfg.Engine.ops_per_client)
    r.Engine.completed;
  Alcotest.(check bool) "waiting room respected the bound" true
    (r.Engine.max_queue_depth <= cfg.Engine.queue_depth)

let test_fair_dequeue_bounds_ratio () =
  (* Round-robin dequeue: with a waiting room deep enough that every
     client keeps a request queued (the regime fair dequeue governs),
     a saturating overload must not let any session starve or run away
     with the server.  (At tiny depths completion is decided by
     admission luck, not dequeue order.) *)
  let cfg =
    {
      (overload_cfg Engine.Shed) with
      Engine.ops_per_client = 60;
      queue_depth = 24;
      think_mean_s = 0.005;
    }
  in
  let r = Engine.run cfg (Fsops.fresh_lfs (engine_geom ())) in
  Alcotest.(check bool) "the sweep saturates (some shed)" true
    (r.Engine.shed > 0);
  let mn = Array.fold_left min max_int r.Engine.per_client_completed in
  let mx = Array.fold_left max 0 r.Engine.per_client_completed in
  Alcotest.(check bool) "every client completed something" true (mn > 0);
  Alcotest.(check bool)
    (Printf.sprintf "max/min completed ratio bounded (%d/%d)" mx mn)
    true
    (float_of_int mx /. float_of_int mn <= 2.0)

(* ----- Dir-log roll-forward under the scheduler ----- *)

(* Engine run, power cut after its final sync (the checkpoint on disk is
   stale), roll-forward, and compare the recovered namespace and file
   contents against a second identical run that stayed mounted — the
   engine's determinism is the oracle.  Guards the PR 2 inode-reuse fix
   under scheduler-interleaved create/remove traffic. *)
let snapshot_state fs clients =
  List.concat_map
    (fun c ->
      let dir = Printf.sprintf "/c%d" c in
      match Fs.resolve fs dir with
      | None -> Alcotest.failf "session dir %s missing" dir
      | Some ino ->
          Fs.readdir fs ino
          |> List.map (fun (name, child) ->
                 let data =
                   Fs.read fs child ~off:0 ~len:(Fs.file_size fs child)
                 in
                 (dir ^ "/" ^ name, Digest.bytes data))
          |> List.sort compare)
    (List.init clients (fun c -> c))

let recovery_cfg =
  {
    small_cfg with
    Engine.clients = 3;
    ops_per_client = 50;
    session_files = 4;  (* tiny working set: constant name reuse *)
  }

let test_rollforward_after_engine_run () =
  let run_engine () =
    let dev = Vdev.of_disk (Disk.create (engine_geom ())) in
    Fs.format dev Lfs_core.Config.default;
    let fs = Fs.mount dev in
    let r = Engine.run recovery_cfg (Fsops.of_lfs fs) in
    Alcotest.(check int) "run completed" 150 r.Engine.completed;
    (dev, fs)
  in
  (* Run A: drop the mounted handle without unmount (the crash) and
     roll the log forward from the stale checkpoint. *)
  let dev_a, _abandoned = run_engine () in
  let fs_rec, report = Fs.recover dev_a in
  Alcotest.(check bool) "roll-forward replayed log writes" true
    (report.Fs.writes_replayed > 0);
  Helpers.fsck_clean fs_rec;
  (* Run B: identical run, still mounted — the deterministic oracle. *)
  let _dev_b, fs_oracle = run_engine () in
  Alcotest.(check (list (pair string string)))
    "recovered namespace and contents match the oracle"
    (snapshot_state fs_oracle recovery_cfg.Engine.clients)
    (snapshot_state fs_rec recovery_cfg.Engine.clients)

(* ----- Background cleaning under the engine ----- *)

(* A high-utilisation image whose clean pool sits at the stop watermark:
   the measured run's writes drain it into the background band, so an
   engine with --bg-clean has real cleaning to schedule.  Small segments
   keep each single-victim step a short stall; the band is two segments
   above the emergency trigger. *)
let bg_fs_config =
  {
    Lfs_core.Config.default with
    seg_blocks = 64;
    write_buffer_blocks = 64;
    bg_clean_start = 7;
    bg_clean_stop = 10;
  }

let prefilled_bg_fs ?(view = Fun.id) () =
  let dev = view (Vdev.of_disk (Disk.create (engine_geom ~blocks:4096 ()))) in
  Fs.format dev bg_fs_config;
  let fs = Fs.mount dev in
  let payload = Bytes.make 32768 'p' in
  ignore (Fs.mkdir_path fs "/fill");
  let n = ref 0 in
  while Fs.clean_segment_count fs > 10 do
    Fs.write_path fs (Printf.sprintf "/fill/g%d" !n) payload;
    incr n
  done;
  (* Dirt at constant live bytes, then settle the pool at the stop
     watermark so the run starts from a reproducible state. *)
  for g = 0 to !n - 1 do
    if g mod 2 = 0 then
      Fs.write_path fs (Printf.sprintf "/fill/g%d" g) payload
  done;
  Fs.clean fs;
  Fs.sync fs;
  (dev, fs)

let bg_cfg =
  {
    small_cfg with
    Engine.ops_per_client = 60;
    think_mean_s = 0.2;  (* unsaturated: real idle windows *)
    bg_clean = true;
  }

let test_engine_bg_clean_deterministic () =
  let once () =
    let _dev, fs = prefilled_bg_fs () in
    let r = Engine.run bg_cfg (Fsops.of_lfs fs) in
    (Metrics.to_json r.Engine.metrics, r.Engine.bg_clean_steps)
  in
  let j1, s1 = once () in
  let j2, s2 = once () in
  Alcotest.(check bool) "background steps actually ran" true (s1 > 0);
  Alcotest.(check int) "same step count" s1 s2;
  Alcotest.(check string) "byte-identical metrics JSON" j1 j2

let test_engine_bg_clean_keeps_foreground_out () =
  let _dev, fs = prefilled_bg_fs () in
  let fs_metrics = Fs.metrics fs in
  let counter name =
    match Metrics.value fs_metrics name with
    | Some (Metrics.Int n) -> n
    | _ -> 0
  in
  let fg0 = counter "fs.cleaner.fg.passes" in
  let r = Engine.run bg_cfg (Fsops.of_lfs fs) in
  Alcotest.(check int) "all ops completed"
    (bg_cfg.Engine.clients * bg_cfg.Engine.ops_per_client)
    r.Engine.completed;
  Alcotest.(check bool) "background cleaning kept up" true
    (r.Engine.bg_clean_steps > 0);
  Alcotest.(check bool) "background segments cleaned" true
    (counter "fs.cleaner.bg.segments" > 0);
  Alcotest.(check int) "zero foreground passes during the run" fg0
    (counter "fs.cleaner.fg.passes");
  Helpers.fsck_clean fs

let test_rollforward_after_bg_clean_run () =
  (* Crash after a run that interleaved background cleaning with client
     traffic; the deterministic twin run that stayed mounted is the
     oracle for the recovered state. *)
  let run_engine () =
    let dev, fs = prefilled_bg_fs () in
    let r = Engine.run bg_cfg (Fsops.of_lfs fs) in
    Alcotest.(check bool) "background steps ran" true
      (r.Engine.bg_clean_steps > 0);
    (dev, fs)
  in
  let dev_a, _abandoned = run_engine () in
  let fs_rec, _report = Fs.recover dev_a in
  Helpers.fsck_clean fs_rec;
  let _dev_b, fs_oracle = run_engine () in
  Alcotest.(check (list (pair string string)))
    "recovered namespace and contents match the oracle"
    (snapshot_state fs_oracle bg_cfg.Engine.clients)
    (snapshot_state fs_rec bg_cfg.Engine.clients)

(* Two interleaved sessions create/remove/recreate the same names
   between checkpoints — the minimal form of the PR 2 inode-reuse
   resurrection bug, driven through Session streams. *)
let test_interleaved_same_name_rollforward () =
  let disk, fs = Helpers.fresh_fs ~blocks:2048 () in
  ignore (Fs.mkdir_path fs "/shared");
  let dir = Option.get (Fs.resolve fs "/shared") in
  Fs.checkpoint fs;
  (* Apply two sessions' streams into ONE shared directory, strictly
     interleaved; track the expected surviving contents. *)
  let sessions =
    Array.init 2 (fun c ->
        Session.create ~client:c ~seed:9 ~files:3 ~write_size:2048 ())
  in
  let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
  for round = 0 to 39 do
    let s = sessions.(round mod 2) in
    let op = Session.next s in
    let path = "/shared/" ^ op.Session.name in
    match op.Session.cls with
    | Session.Create | Session.Write ->
        let len = max 16 op.Session.size in
        let data =
          Bytes.make len (Char.chr (Char.code 'a' + (round mod 26)))
        in
        Fs.write_path fs path data;
        Hashtbl.replace model op.Session.name (Bytes.to_string data)
    | Session.Delete -> (
        match Fs.resolve fs path with
        | Some _ ->
            Fs.unlink fs ~dir op.Session.name;
            Hashtbl.remove model op.Session.name
        | None -> ())
    | Session.Read -> (
        match Fs.resolve fs path with
        | Some ino -> ignore (Fs.read fs ino ~off:0 ~len:(Fs.file_size fs ino))
        | None -> ())
  done;
  Fs.sync fs;
  (* Crash: recover from the checkpoint, rolling forward through the
     interleaved create/remove records. *)
  let fs2, _report = Fs.recover (Helpers.vdev disk) in
  Helpers.fsck_clean fs2;
  let dir2 = Option.get (Fs.resolve fs2 "/shared") in
  let live = Fs.readdir fs2 dir2 in
  Alcotest.(check int) "surviving name count" (Hashtbl.length model)
    (List.length live);
  List.iter
    (fun (name, ino) ->
      match Hashtbl.find_opt model name with
      | None -> Alcotest.failf "removed file %s resurrected" name
      | Some expected ->
          let data = Fs.read fs2 ino ~off:0 ~len:(Fs.file_size fs2 ino) in
          Alcotest.(check string)
            (Printf.sprintf "contents of %s" name)
            expected (Bytes.to_string data))
    live

(* ----- The IO-depth pipeline ----- *)

(* Queued serving must stay a pure function of the config: equal seeds,
   byte-identical metrics, no lost requests — with device completions as
   first-class events on the shared clock. *)
let test_engine_io_depth_deterministic () =
  let cfg = { small_cfg with Engine.clients = 8; io_depth = 4 } in
  let once () =
    let r = Engine.run cfg (Fsops.fresh_lfs (engine_geom ())) in
    (Metrics.to_json r.Engine.metrics, r.Engine.completed, r.Engine.elapsed_s)
  in
  let j1, c1, e1 = once () in
  let j2, c2, e2 = once () in
  Alcotest.(check int) "same completions" c1 c2;
  Alcotest.(check (float 0.0)) "same modelled elapsed" e1 e2;
  Alcotest.(check string) "byte-identical metrics JSON" j1 j2

(* Overlapping request IO must help, not hurt: same offered load, same
   seed, and the 8-deep run finishes no later than the 1-deep one while
   serving cached reads without queueing behind durable writes. *)
let test_engine_io_depth_overlaps () =
  let cfg =
    { small_cfg with Engine.clients = 8; ops_per_client = 60; think_mean_s = 0.1 }
  in
  let run io_depth =
    Engine.run { cfg with Engine.io_depth } (Fsops.fresh_lfs (engine_geom ()))
  in
  let serial = run 1 in
  let piped = run 8 in
  Alcotest.(check int) "both complete everything" serial.Engine.completed
    piped.Engine.completed;
  Alcotest.(check bool) "pipelined run no slower" true
    (piped.Engine.elapsed_s <= serial.Engine.elapsed_s +. 1e-9);
  let p95_read r =
    match Metrics.value r.Engine.metrics "server.latency.read.s" with
    | Some (Metrics.Summary { p95; _ }) -> p95
    | _ -> Float.nan
  in
  Alcotest.(check bool) "read tail shrinks" true
    (p95_read piped < p95_read serial);
  (* The device queue instruments saw the overlap. *)
  let gauge r name =
    match Metrics.value r.Engine.metrics name with
    | Some (Metrics.Float f) -> f
    | _ -> Float.nan
  in
  Alcotest.(check bool) "queue wait recorded" true
    (gauge piped "server.dev.queue_wait_s" > 0.0)

(* The engine hands the device stack back in Direct mode, so post-run
   tooling (fsck, stats, another engine run) sees the synchronous API. *)
let test_engine_io_depth_restores_mode () =
  let fs = Fsops.fresh_lfs (engine_geom ()) in
  let r = Engine.run { small_cfg with Engine.io_depth = 4 } fs in
  Alcotest.(check int) "completed" (4 * 40) r.Engine.completed;
  List.iter
    (fun d ->
      (match Vdev.get_mode d with
      | Vdev.Direct -> ()
      | Vdev.Queued _ -> Alcotest.fail "engine must restore Direct mode");
      Alcotest.(check int) "nothing outstanding" 0
        (Vdev.outstanding_in d ~lo:0 ~hi:max_int))
    fs.Fsops.devices

(* ----- Group commit: a flush starts at once when none is in flight ----- *)

(* (count, sum, max) of one of a run's histograms. *)
let summary r name =
  match Metrics.value r.Engine.metrics name with
  | Some (Metrics.Summary { count; sum; vmax; _ }) -> (count, sum, vmax)
  | _ -> Alcotest.failf "%s: expected a histogram" name

let vmax r name =
  let _, _, v = summary r name in
  v

(* One client whose first request is a write, on an idle device: the
   write leads its own flush at once, at any depth. *)
let test_lone_write_flushes_at_once () =
  let first_is_write seed =
    let s =
      Session.create ~client:0 ~seed ~files:small_cfg.Engine.session_files
        ~write_size:small_cfg.Engine.write_size ()
    in
    (Session.next s).Session.cls = Session.Write
  in
  let seed = List.find first_is_write (List.init 100 Fun.id) in
  let window = small_cfg.Engine.batch_window_s in
  List.iter
    (fun io_depth ->
      let r =
        Engine.run
          { small_cfg with Engine.clients = 1; ops_per_client = 1; seed; io_depth }
          (Fsops.fresh_lfs (engine_geom ()))
      in
      let at what = Printf.sprintf "io-depth %d: %s" io_depth what in
      let count, _, wait = summary r "server.batch.wait_s" in
      Alcotest.(check int) (at "one member waited") 1 count;
      Alcotest.(check (float 0.0)) (at "no batch wait") 0.0 wait;
      let lat = vmax r "server.latency.write.s" in
      let flush = vmax r "server.flush.busy_s" in
      Alcotest.(check bool)
        (at
           (Printf.sprintf "latency %.4f s below window + flush (%.4f s)" lat
              (window +. flush)))
        true
        (lat < window +. flush))
    [ 1; 4 ]

(* Writes that join while a flush is in flight start their flush when it
   completes, well before a long window's deadline. *)
let test_followers_start_at_completion () =
  let window = 0.05 in
  let r =
    Engine.run
      { small_cfg with Engine.clients = 8; think_mean_s = 0.02; io_depth = 4;
        batch_window_s = window }
      (Fsops.fresh_lfs (engine_geom ()))
  in
  let _, waited, wait = summary r "server.batch.wait_s" in
  let flush = vmax r "server.flush.busy_s" in
  Alcotest.(check bool) "some member waited for the flush ahead" true
    (waited > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "longest wait %.4f s within the longest flush %.4f s" wait
       flush)
    true
    (wait <= flush +. 1e-12);
  Alcotest.(check bool) "before the deadline" true (wait < window);
  Alcotest.(check bool) "followers batch together" true
    (vmax r "server.batch.requests" > 1.0)

(* [max_batch] still caps a batch that forms behind an in-flight flush. *)
let test_max_batch_still_flushes_early () =
  let run max_batch =
    Engine.run
      { small_cfg with Engine.clients = 16; think_mean_s = 0.005; io_depth = 4;
        batch_window_s = 1.0; max_batch }
      (Fsops.fresh_lfs (engine_geom ()))
  in
  let uncapped = run 32 and capped = run 2 in
  let largest r = vmax r "server.batch.requests" in
  Alcotest.(check bool) "uncapped batches grow past 2" true (largest uncapped > 2.0);
  Alcotest.(check (float 0.0)) "capped at 2" 2.0 (largest capped);
  Alcotest.(check int) "everything completes" uncapped.Engine.completed
    capped.Engine.completed;
  Alcotest.(check bool) "more, smaller flushes" true
    (capped.Engine.flushes > uncapped.Engine.flushes)

(* Section 2.1: file caches absorb reads.  A working set far smaller
   than the cache stays resident however much the log writes, since the
   cache holds live blocks only: neither the dead copies of overwritten
   blocks nor log summaries push it out.  Four clients of four files
   each (a few dozen live blocks) on a 128-block cache: after a warm-up
   run, a second run writes the cache over several times and every read
   hits. *)
let test_working_set_stays_cached () =
  let disk = Vdev.of_disk (Disk.create (engine_geom ())) in
  Fs.format disk { Lfs_core.Config.default with Lfs_core.Config.cache_blocks = 128 };
  let fs = Fs.mount disk in
  let cfg =
    { small_cfg with Engine.ops_per_client = 200; session_files = 4; io_depth = 4 }
  in
  let misses () = Helpers.fs_total fs "vdev.cache.misses" in
  let hits () = Helpers.fs_total fs "vdev.cache.hits" in
  let written () = (Vdev.stats disk).Lfs_disk.Io_stats.blocks_written in
  ignore (Engine.run cfg (Fsops.of_lfs fs) : Engine.result);
  let m0 = misses () and h0 = hits () and w0 = written () in
  let r = Engine.run { cfg with Engine.seed = 7 } (Fsops.of_lfs fs) in
  Alcotest.(check int) "every request completed" (4 * 200) r.Engine.completed;
  Alcotest.(check bool)
    (Printf.sprintf "the run wrote %d blocks, over 4 cache sizes" (written () - w0))
    true
    (written () - w0 > 4 * 128);
  Alcotest.(check bool) "the run read from the cache" true (hits () - h0 > 100);
  Alcotest.(check int) "no miss after warm-up" 0 (misses () - m0)

(* An idle step's victim read yields to foreground IO at slice
   boundaries.  One client over the prefilled image, with the pool
   below the stop watermark so idle steps clean: a write whose flush
   starts while one of the idle step's reads is in service must finish
   within one slice plus its flush's own device time.  The test watches
   the device's completions through its [pump] and times each flush's
   own service from them (one device serves one request at a time, so a
   service starts at the later of its submit and the previous
   finish). *)
let test_write_waits_one_slice_behind_bg_read () =
  let read_tags = Hashtbl.create 64 in
  let note_reads (v : Vdev.t) =
    let into ?now addr n buf ~pos =
      let lo = Vdev.next_tag () in
      let tk = v.Vdev.submit_read_into ?now addr n buf ~pos in
      for tag = lo to Vdev.next_tag () - 1 do
        Hashtbl.replace read_tags tag ()
      done;
      tk
    in
    let block_size = v.Vdev.block_size in
    {
      v with
      Vdev.submit_read_into = into;
      submit_read = Vdev.alloc_submit_read ~block_size into;
      read_blocks = Vdev.alloc_read_blocks ~block_size into;
    }
  in
  let dev, fs = prefilled_bg_fs ~view:note_reads () in
  (* Below the stop watermark: the first idle windows clean. *)
  let payload = Bytes.make 32768 'q' in
  for g = 0 to 7 do
    Fs.write_path fs (Printf.sprintf "/fill/g%d" ((2 * g) + 1)) payload
  done;
  Fs.sync fs;
  let clock () =
    match Vdev.get_mode dev with Vdev.Queued c -> c () | Vdev.Direct -> nan
  in
  let reports = ref [] and step_range = ref (0, 0) and wrote = ref false in
  let flushes = ref [] in
  let base = Fsops.of_lfs fs in
  let step = Option.get base.Fsops.clean_step in
  (* Whether one of the last idle step's reads is in service at [now]:
     committed, with its latest reported finish still ahead. *)
  let fin_of = Hashtbl.create 256 in
  let step_read_in_service now =
    let lo, hi = !step_range in
    List.exists
      (fun tag ->
        Hashtbl.mem read_tags tag
        && match Hashtbl.find_opt fin_of tag with Some f -> f > now | None -> false)
      (List.init (hi - lo) (( + ) lo))
  in
  let fsops =
    {
      base with
      Fsops.devices =
        [
          {
            dev with
            Vdev.pump =
              (fun ~now ->
                let l = dev.Vdev.pump ~now in
                List.iter (fun (tag, f) -> Hashtbl.replace fin_of tag f) l;
                reports := List.rev_append l !reports;
                l);
          };
        ];
      write =
        (fun ino ~off b ->
          wrote := true;
          base.Fsops.write ino ~off b);
      clean_step =
        Some
          (fun ~max_segments ->
            let lo = Vdev.next_tag () in
            let owed = step ~max_segments in
            step_range := (lo, Vdev.next_tag ());
            owed);
      sync =
        (fun () ->
          let s = clock () and lo = Vdev.next_tag () in
          let watch = !wrote && step_read_in_service s in
          wrote := false;
          base.Fsops.sync ();
          if watch then flushes := (s, lo, Vdev.next_tag ()) :: !flushes);
    }
  in
  let r =
    Engine.run
      { bg_cfg with Engine.clients = 1; ops_per_client = 40; think_mean_s = 0.1;
        seed = 1 }
      fsops
  in
  Alcotest.(check bool) "idle steps cleaned" true (r.Engine.bg_clean_steps > 0);
  let reports = List.rev !reports in
  let g = engine_geom () in
  (* The longest slice: a full reposition, then the slice's transfer. *)
  let one_slice =
    (1.75 *. g.Geometry.avg_seek_s)
    +. g.Geometry.rotational_latency_s +. g.Geometry.per_io_overhead_s
    +. float_of_int (Lfs_disk.Io_queue.slice_blocks * g.Geometry.block_size)
       /. g.Geometry.bandwidth_bytes_per_s
  in
  let timing (s, lo, hi) =
    let own = ref 0.0 and fin = ref neg_infinity and prev = ref neg_infinity in
    List.iter
      (fun (tag, f) ->
        if tag >= lo && tag < hi then begin
          own := !own +. (f -. Float.max !prev s);
          fin := Float.max !fin f
        end;
        prev := f)
      reports;
    (!fin, !own)
  in
  let waited = ref 0 in
  List.iter
    (fun ((s, lo, hi) as fl) ->
      let fin, own = timing fl in
      if hi > lo && fin > neg_infinity then begin
        if fin -. s > own +. 1e-9 then incr waited;
        Alcotest.(check bool)
          (Printf.sprintf
             "flush at %.4f s done in %.4f s: within one slice (%.4f s) plus \
              its own %.4f s"
             s (fin -. s) one_slice own)
          true
          (fin -. s <= one_slice +. own +. 1e-9)
      end)
    (List.rev !flushes);
  Alcotest.(check bool) "some write waited behind a victim read" true
    (!waited > 0)

let fs_counter fs name =
  match Metrics.value (Fs.metrics fs) name with
  | Some (Metrics.Int n) -> n
  | _ -> 0

(* Drain the prefilled image's pool into the background band, so the
   latch engages and idle steps clean. *)
let into_bg_band fs =
  let payload = Bytes.make 32768 'r' in
  let g = ref 1 in
  while Fs.clean_segment_count fs >= bg_fs_config.Lfs_core.Config.bg_clean_start do
    Fs.write_path fs (Printf.sprintf "/fill/g%d" !g) payload;
    Fs.sync fs;
    g := !g + 2
  done

(* On a queued device inside the background scope, an idle step that
   reads a victim relocates nothing; a step while those reads are
   outstanding neither relocates nor reads (it may restock the pool);
   the step after they completed relocates the victim without reading
   it again.  On a Direct device one step reads and relocates. *)
let test_idle_step_reads_ahead () =
  let step fs =
    Lfs_disk.Io_queue.background (fun () -> Fs.clean_step ~max_segments:1 fs)
  in
  let passes fs = fs_counter fs "fs.cleaner.bg.passes" in
  let read fs = fs_counter fs "fs.cleaner.blocks_read" in
  (* Step (settling the device between steps) until one reads a victim. *)
  let until_read dev fs =
    let rec go n =
      if n = 0 then Alcotest.fail "no idle step read a victim";
      let r0 = read fs and p0 = passes fs in
      ignore (step fs : int);
      if read fs = r0 then begin
        ignore (Vdev.drain dev : float);
        go (n - 1)
      end
      else p0
    in
    go 8
  in
  (let dev, fs = prefilled_bg_fs () in
   into_bg_band fs;
   Fs.drop_caches fs;
   let p0 = until_read dev fs in
   Alcotest.(check int) "direct: the reading step relocates" (p0 + 1) (passes fs));
  let dev, fs = prefilled_bg_fs () in
  into_bg_band fs;
  Fs.drop_caches fs;
  let now = ref 0.0 in
  Vdev.set_mode dev (Vdev.Queued (fun () -> !now));
  let p0 = until_read dev fs in
  Alcotest.(check int) "queued: the reading step relocates nothing" p0 (passes fs);
  let r1 = read fs in
  ignore (step fs : int);
  Alcotest.(check int) "reads outstanding: no victim read again" r1 (read fs);
  Alcotest.(check int) "reads outstanding: nothing relocated" p0 (passes fs);
  ignore (Vdev.drain dev : float);
  ignore (step fs : int);
  Alcotest.(check int) "reads done: the next step relocates" (p0 + 1) (passes fs);
  Alcotest.(check int) "from the blocks already read" r1 (read fs);
  ignore (Vdev.drain dev : float);
  Vdev.set_mode dev Vdev.Direct;
  Helpers.fsck_clean fs

(* In the engine no log write carries a relocated block before the
   read that fetched it from the device has completed: an idle step
   that reads the device appends no survivor, and a step that appends
   survivors (from victims read earlier, or served by the block cache)
   starts with every earlier step's IO complete.  Survivors reach the
   log only in appends, so neither the step's own writes nor a client
   flush can carry one early. *)
let test_survivors_follow_victim_reads () =
  let dev, fs = prefilled_bg_fs () in
  into_bg_band fs;
  Fs.drop_caches fs;
  let moved () = fs_counter fs "fs.log.blocks_cleaner" in
  let device_reads () = (Vdev.stats dev).Lfs_disk.Io_stats.blocks_read in
  let base = Fsops.of_lfs fs in
  let step = Option.get base.Fsops.clean_step in
  let reading = ref 0 and relocating = ref 0 and steps = ref [] in
  let fsops =
    {
      base with
      Fsops.clean_step =
        Some
          (fun ~max_segments ->
            let pending =
              List.exists
                (fun (lo, hi) -> Vdev.outstanding_in dev ~lo ~hi > 0)
                !steps
            in
            let read0 = device_reads () and moved0 = moved ()
            and lo = Vdev.next_tag () in
            let owed = step ~max_segments in
            steps := (lo, Vdev.next_tag ()) :: !steps;
            let read = device_reads () - read0 and moved = moved () - moved0 in
            if read > 0 then begin
              incr reading;
              Alcotest.(check int)
                "a step reading the device appends no survivor" 0 moved
            end;
            if moved > 0 then begin
              incr relocating;
              Alcotest.(check bool)
                "a relocating step starts with every step's IO done" false
                pending
            end;
            owed);
    }
  in
  let r =
    Engine.run
      { bg_cfg with Engine.clients = 1; ops_per_client = 40; think_mean_s = 0.1;
        seed = 1 }
      fsops
  in
  Alcotest.(check int) "all ops completed" 40 r.Engine.completed;
  Alcotest.(check bool) "steps read victims" true (!reading > 0);
  Alcotest.(check bool) "steps relocated survivors" true (!relocating > 0);
  Helpers.fsck_clean fs

let suite =
  ( "server",
    [
      Alcotest.test_case "sched ordering" `Quick test_sched_ordering;
      Alcotest.test_case "sched nested events" `Quick test_sched_nested_events;
      Alcotest.test_case "engine deterministic" `Quick test_engine_deterministic;
      Alcotest.test_case "group commit amortises" `Quick test_group_commit_amortises;
      Alcotest.test_case "ffs without batching" `Quick test_ffs_runs_without_batching;
      Alcotest.test_case "overload shed accounting" `Quick test_overload_shed_accounting;
      Alcotest.test_case "overload block completes" `Quick test_overload_block_completes_everything;
      Alcotest.test_case "fair dequeue ratio" `Quick test_fair_dequeue_bounds_ratio;
      Alcotest.test_case "roll-forward after engine run" `Quick test_rollforward_after_engine_run;
      Alcotest.test_case "bg-clean deterministic" `Quick test_engine_bg_clean_deterministic;
      Alcotest.test_case "bg-clean keeps foreground out" `Quick
        test_engine_bg_clean_keeps_foreground_out;
      Alcotest.test_case "roll-forward after bg-clean run" `Quick
        test_rollforward_after_bg_clean_run;
      Alcotest.test_case "interleaved same-name roll-forward" `Quick
        test_interleaved_same_name_rollforward;
      Alcotest.test_case "io-depth deterministic" `Quick
        test_engine_io_depth_deterministic;
      Alcotest.test_case "io-depth overlaps requests" `Quick
        test_engine_io_depth_overlaps;
      Alcotest.test_case "io-depth restores direct mode" `Quick
        test_engine_io_depth_restores_mode;
      Alcotest.test_case "lone write flushes at once" `Quick
        test_lone_write_flushes_at_once;
      Alcotest.test_case "followers start at flush completion" `Quick
        test_followers_start_at_completion;
      Alcotest.test_case "max_batch still flushes early" `Quick
        test_max_batch_still_flushes_early;
      Alcotest.test_case "write waits one slice behind a bg read" `Quick
        test_write_waits_one_slice_behind_bg_read;
      Alcotest.test_case "idle step reads ahead" `Quick test_idle_step_reads_ahead;
      Alcotest.test_case "survivors follow victim reads" `Quick
        test_survivors_follow_victim_reads;
      Alcotest.test_case "working set stays cached" `Quick
        test_working_set_stays_cached;
    ] )
