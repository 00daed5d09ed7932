module Metrics = Lfs_obs.Metrics
module Io_stats = Lfs_disk.Io_stats
module Vdev = Lfs_disk.Vdev
module Prng = Lfs_util.Prng
module Types = Lfs_core.Types
module Session = Lfs_workload.Session
module Fsops = Lfs_workload.Fsops
module Cpu_model = Lfs_workload.Cpu_model

type policy = Block | Shed

let policy_name = function Block -> "block" | Shed -> "shed"

let policy_of_string = function
  | "block" -> Some Block
  | "shed" -> Some Shed
  | _ -> None

type config = {
  clients : int;
  ops_per_client : int;
  seed : int;
  think_mean_s : float;
  queue_depth : int;
  policy : policy;
  batch_window_s : float;
  max_batch : int;
  session_files : int;
  write_size : int;
  cpu : Cpu_model.t;
  bg_clean : bool;
      (* clean in idle windows, paced by the FS's background watermarks *)
  io_depth : int;
      (* requests with device IO in flight together *)
}

let default =
  {
    clients = 4;
    ops_per_client = 200;
    seed = 42;
    think_mean_s = 0.05;
    queue_depth = 64;
    policy = Block;
    batch_window_s = 0.01;
    max_batch = 32;
    session_files = 32;
    write_size = 8192;
    cpu = Cpu_model.sun4_260;
    bg_clean = false;
    io_depth = 1;
  }

type request = { client : int; op : Session.op; submit : float }

(* In-flight bookkeeping: the contiguous range of leaf tags a piece of
   work submitted on the single-threaded data plane.  The work's IO is
   finished once no tag in [lo, hi) is outstanding, at the latest of
   their service finish times. *)
type io_kind = Op of request | Bg | Flush of request list
type io_span = { lo : int; hi : int; cpu_s : float; started_s : float; kind : io_kind }

type result = {
  fs_name : string;
  clients : int;
  completed : int;
  shed : int;
  errors : int;
  elapsed_s : float;
  throughput_ops_s : float;
  disk_s : float;
  flushes : int;
  mean_batch : float;
  bg_clean_steps : int;
  max_queue_depth : int;
  per_client_completed : int array;
  per_client_shed : int array;
  metrics : Lfs_obs.Metrics.t;
}

let is_durable = function
  | Session.Create | Session.Write | Session.Delete -> true
  | Session.Read -> false

let run (cfg : config) (fs : Fsops.t) =
  if cfg.clients <= 0 then invalid_arg "Engine.run: clients must be positive";
  if cfg.ops_per_client < 0 then
    invalid_arg "Engine.run: ops_per_client must be non-negative";
  if cfg.queue_depth <= 0 then
    invalid_arg "Engine.run: queue_depth must be positive";
  if cfg.max_batch <= 0 then invalid_arg "Engine.run: max_batch must be positive";
  if not (cfg.batch_window_s >= 0.0) then
    invalid_arg "Engine.run: batch_window_s must be non-negative";
  if not (cfg.think_mean_s > 0.0) then
    invalid_arg "Engine.run: think_mean_s must be positive";
  if cfg.io_depth <= 0 then invalid_arg "Engine.run: io_depth must be positive";
  let sched = Sched.create () in
  let m = Metrics.create () in
  let lat_create = Metrics.histogram m "server.latency.create.s" in
  let lat_write = Metrics.histogram m "server.latency.write.s" in
  let lat_read = Metrics.histogram m "server.latency.read.s" in
  let lat_delete = Metrics.histogram m "server.latency.delete.s" in
  let lat_of = function
    | Session.Create -> lat_create
    | Session.Write -> lat_write
    | Session.Read -> lat_read
    | Session.Delete -> lat_delete
  in
  let completed_c = Metrics.counter m "server.completed" in
  let shed_c = Metrics.counter m "server.shed" in
  let errors_c = Metrics.counter m "server.errors" in
  let flushes_c = Metrics.counter m "server.flushes" in
  let batch_hist = Metrics.histogram ~lo:1.0 ~hi:1e4 m "server.batch.requests" in
  let log_batch_hist =
    Metrics.histogram ~lo:1.0 ~hi:1e6 m "server.log_batch.blocks"
  in
  let flush_hist = Metrics.histogram m "server.flush.busy_s" in
  let wait_hist = Metrics.histogram m "server.batch.wait_s" in
  let qdepth_hist =
    Metrics.histogram ~lo:1.0 ~hi:1e4 m "server.queue.depth_at_admit"
  in
  let qdepth_g = Metrics.gauge m "server.queue.depth" in
  let qmax_g = Metrics.gauge m "server.queue.depth_max" in
  let bg_steps_c = Metrics.counter m "server.bg_clean.steps" in
  let bg_busy_hist = Metrics.histogram m "server.bg_clean.busy_s" in

  (* Seeded substreams: one think-time PRNG per client, sessions keyed
     by (client, seed) — the whole run is a function of [cfg]. *)
  let master = Prng.create ~seed:cfg.seed in
  let think = Array.init cfg.clients (fun _ -> Prng.split master) in
  let sessions =
    Array.init cfg.clients (fun c ->
        Session.create ~client:c ~seed:cfg.seed ~files:cfg.session_files
          ~write_size:cfg.write_size ())
  in

  (* Setup outside the measured run: the per-client directories.  A
     pre-populated image (high-utilisation benchmarks) may already have
     them. *)
  let dir_ino =
    Array.map
      (fun s ->
        match fs.Fsops.resolve (Session.dir s) with
        | Some ino -> ino
        | None -> fs.Fsops.mkdir_path (Session.dir s))
      sessions
  in
  fs.Fsops.sync ();
  (match fs.Fsops.on_log_batch with
  | Some register ->
      register (fun ~blocks ->
          Metrics.observe log_batch_hist (float_of_int blocks))
  | None -> ());
  (* All device interaction goes over the full [devices] list so a
     sharded volume's per-shard vdevs pump, drain and account exactly
     like a single disk: busy time sums per spindle, IO tags are
     allocated from one global counter so a span's [lo, hi) range spans
     every device at once. *)
  let devs = fs.Fsops.devices in
  let io0 = Fsops.io_stats fs in

  (* The device stack runs queued submission for the whole run: sync
     calls submit without waiting, device completions become events on
     the shared clock, and up to [io_depth] requests keep their IO in
     flight together. *)
  List.iter
    (fun d -> Vdev.set_mode d (Vdev.Queued (fun () -> Sched.now sched)))
    devs;

  let group_commit = fs.Fsops.async_writes in
  let block_size = Vdev.block_size (List.hd devs) in
  let blocks_of n = (n + block_size - 1) / block_size in

  (* Serving state.  All iteration is over arrays and FIFOs — no
     hash-table order anywhere near the event stream. *)
  (* Fair admission: the waiting room is bounded globally by
     [queue_depth] and per client by an equal share of it, so a hot
     session cannot buy up the whole queue and starve the rest —
     admission fairness is what makes the round-robin dequeue below
     effective under overload. *)
  let per_client_cap = max 1 (cfg.queue_depth / cfg.clients) in
  let queues = Array.init cfg.clients (fun _ -> Queue.create ()) in
  let queued_total = ref 0 in
  let blocked : request Queue.t = Queue.create () in
  let rr = ref 0 in
  (* The open batch, newest first, each member with its join time. *)
  let batch : (request * float) list ref = ref [] in
  let batch_n = ref 0 in
  let batch_epoch = ref 0 in
  let flush_due = ref false in
  let generated = Array.make cfg.clients 0 in
  let completed = Array.make cfg.clients 0 in
  let shed = Array.make cfg.clients 0 in
  let qmax = ref 0 in
  let flushes = ref 0 in
  let batched_reqs = ref 0 in
  let errors = ref 0 in
  let last_completion = ref 0.0 in
  let bg_steps = ref 0 in
  let bg_step = if cfg.bg_clean then fs.Fsops.clean_step else None in
  (* In-flight spans (and how many are group-commit flushes), per-tag
     finish times (recorded as the elevator commits each service), and
     the cleaner latch. *)
  let inflight : io_span Queue.t = Queue.create () in
  let inflight_n = ref 0 in
  let flushes_inflight = ref 0 in
  let finish_of : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let bg_busy = ref false in
  let bg_last = ref neg_infinity in

  let complete req =
    let lat = Sched.now sched -. req.submit in
    Metrics.observe (lat_of req.op.Session.cls) lat;
    Metrics.incr completed_c;
    completed.(req.client) <- completed.(req.client) + 1;
    last_completion := Sched.now sched
  in
  (* Execute the FS op.  Streams are generated blind to FS state, so a
     read/delete may name a file that lost the race with its create —
     those resolve to cheap no-ops; [Fs_error] (e.g. disk full) is
     counted, never dropped on the floor.  Returns blocks moved, for the
     CPU cost model. *)
  let perform req =
    let op = req.op in
    try
      match op.Session.cls with
      | Session.Create ->
          (match fs.Fsops.resolve op.Session.path with
          | Some _ -> ()
          | None -> ignore (fs.Fsops.create_path op.Session.path));
          0
      | Session.Write ->
          let ino =
            match fs.Fsops.resolve op.Session.path with
            | Some ino -> ino
            | None -> fs.Fsops.create_path op.Session.path
          in
          let fill =
            Char.chr (Char.code 'a' + ((req.client + op.Session.size) mod 26))
          in
          fs.Fsops.write ino ~off:0 (Bytes.make op.Session.size fill);
          blocks_of op.Session.size
      | Session.Read -> (
          match fs.Fsops.resolve op.Session.path with
          | None -> 0
          | Some ino ->
              let len = min op.Session.size (fs.Fsops.file_size ino) in
              if len > 0 then ignore (fs.Fsops.read ino ~off:0 ~len);
              blocks_of len)
      | Session.Delete -> (
          match fs.Fsops.resolve op.Session.path with
          | None -> 0
          | Some _ ->
              fs.Fsops.unlink ~dir:dir_ino.(req.client) op.Session.name;
              0)
    with Types.Fs_error _ ->
      incr errors;
      Metrics.incr errors_c;
      0
  in
  let set_qdepth () = Metrics.set qdepth_g (float_of_int !queued_total) in

  (* A due flush starts immediately (it does not occupy a request
     slot), then the request slots are refilled up to [io_depth].  Each
     start runs the op's data plane instantly and brackets its leaf
     tags; the op finishes when its tag range drains. *)
  let rec maybe_start () =
    if !flush_due && !batch_n > 0 then start_flush ();
    start_requests ()
  and start_requests () =
    if !inflight_n < cfg.io_depth then
      match pick_next () with
      | None ->
          if !inflight_n = 0 && not !bg_busy then maybe_bg_clean ()
      | Some req ->
          incr inflight_n;
          admit_blocked ();
          let lo = Vdev.next_tag () in
          let blocks = perform req in
          let hi = Vdev.next_tag () in
          let cpu_s = Cpu_model.cost cfg.cpu ~ops:1 ~blocks in
          if hi = lo then
            (* No device IO (cache hits, no-op resolves): CPU only. *)
            Sched.after sched cpu_s (fun () -> op_io_done req)
          else
            Queue.push
              { lo; hi; cpu_s; started_s = Sched.now sched; kind = Op req }
              inflight;
          device_progress ();
          start_requests ()
  (* Surface every service the elevator committed since the last call:
     record finish times, schedule a tick at each completion (the tick
     commits the next pick, making device completions first-class
     events), then settle any span whose tag range has drained. *)
  and device_progress () =
    let started =
      List.concat_map (fun d -> Vdev.pump d ~now:(Sched.now sched)) devs
    in
    List.iter
      (fun (tag, fin) ->
        Hashtbl.replace finish_of tag fin;
        Sched.at sched fin device_tick)
      started;
    check_inflight ()
  and device_tick () = device_progress ()
  (* Settle every span whose tag range has drained, in submission
     order: one pass round the FIFO, the rest going back in their order.
     Settling only schedules events, so it cannot add to the FIFO while
     the pass runs. *)
  and check_inflight () =
    for _ = 1 to Queue.length inflight do
      let sp = Queue.pop inflight in
      if
        List.for_all
          (fun d -> Vdev.outstanding_in d ~lo:sp.lo ~hi:sp.hi = 0)
          devs
      then settle sp
      else Queue.push sp inflight
    done
  and settle sp =
    let fin = ref (Sched.now sched) in
    for tag = sp.lo to sp.hi - 1 do
      (match Hashtbl.find_opt finish_of tag with
      | Some f -> if f > !fin then fin := f
      | None -> ());
      Hashtbl.remove finish_of tag
    done;
    match sp.kind with
    | Op req -> Sched.at sched (!fin +. sp.cpu_s) (fun () -> op_io_done req)
    | Bg ->
        let fin = !fin in
        Sched.at sched fin (fun () -> bg_done sp.started_s fin)
    | Flush members ->
        let fin = !fin in
        Metrics.observe flush_hist (Float.max 0.0 (fin -. sp.started_s));
        Sched.at sched fin (fun () ->
            decr flushes_inflight;
            List.iter complete members;
            (* The batch that formed behind the last flush in flight
               starts now rather than at its deadline. *)
            if !flushes_inflight = 0 && !batch_n > 0 then flush_due := true;
            maybe_start ())
  and op_io_done req =
    decr inflight_n;
    finish_op req;
    maybe_start ()
  (* Idle window with nothing in flight: run one budgeted cleaner step.
     Its reads go in the device queues' background class: served in
     slices, and only while no foreground IO is outstanding, so a
     request arriving during a victim read waits at most one slice.  A
     step that reads victims relocates nothing: the next step does,
     once those reads completed, so no log write carries a block before
     it was read.  The step's writes stay foreground, in elevator order
     with the log's other writes.  Foreground arrivals keep starting
     while it runs.  At most one step per modelled instant, so a
     zero-cost geometry cannot spin the clock in place. *)
  and maybe_bg_clean () =
    match bg_step with
    | None -> ()
    | Some step ->
        if Sched.now sched > !bg_last then begin
          let lo = Vdev.next_tag () in
          let (_ : int) =
            Lfs_disk.Io_queue.background (fun () -> step ~max_segments:1)
          in
          let hi = Vdev.next_tag () in
          if hi > lo then begin
            bg_last := Sched.now sched;
            incr bg_steps;
            Metrics.incr bg_steps_c;
            bg_busy := true;
            Queue.push
              { lo; hi; cpu_s = 0.0; started_s = Sched.now sched; kind = Bg }
              inflight;
            device_progress ()
          end
        end
  and bg_done started_s fin =
    bg_busy := false;
    Metrics.observe bg_busy_hist (Float.max 0.0 (fin -. started_s));
    maybe_start ()
  and start_flush () =
    let members = take_batch () in
    (* The shared sync is the fsync barrier for the batch's own log
       writes (and any cleaning it triggered) — bracket its tags and
       complete the members when exactly that IO has drained.  Other
       requests' in-flight reads are not part of the barrier. *)
    let t0 = Sched.now sched in
    let lo = Vdev.next_tag () in
    fs.Fsops.sync ();
    let hi = Vdev.next_tag () in
    if hi = lo then begin
      (* Everything durable already reached the device (pressure-flushed
         earlier): the batch completes on the spot. *)
      Metrics.observe flush_hist 0.0;
      List.iter complete members
    end
    else begin
      incr flushes_inflight;
      Queue.push
        { lo; hi; cpu_s = 0.0; started_s = t0; kind = Flush members }
        inflight;
      device_progress ()
    end
  (* Round-robin across per-client FIFOs from the cursor: each dequeue
     hands the next turn to the following client, so a hot session gets
     at most one request in before everyone else is offered a slot. *)
  and pick_next () =
    let n = cfg.clients in
    let rec go i tries =
      if tries = n then None
      else if Queue.is_empty queues.(i) then go ((i + 1) mod n) (tries + 1)
      else begin
        rr := (i + 1) mod n;
        decr queued_total;
        set_qdepth ();
        Some (Queue.pop queues.(i))
      end
    in
    go !rr 0
  and finish_op req =
    if group_commit && is_durable req.op.Session.cls then begin
      (* A member that finds no flush in flight leads: its batch flushes
         at once.  Otherwise the first member arms the window deadline;
         the epoch cookie lets an earlier flush (at [max_batch], or when
         the flush ahead completes) invalidate the stale deadline. *)
      let lead = !flushes_inflight = 0 in
      if !batch_n = 0 && not lead then begin
        let epoch = !batch_epoch in
        Sched.after sched cfg.batch_window_s (fun () -> deadline epoch)
      end;
      batch := (req, Sched.now sched) :: !batch;
      incr batch_n;
      if lead || !batch_n >= cfg.max_batch then flush_due := true
    end
    else complete req
  and deadline epoch =
    if epoch = !batch_epoch && !batch_n > 0 then begin
      start_flush ();
      start_requests ()
    end
  (* Close the open batch as its flush starts: count the flush, record
     each member's wait since it joined, and return the members in join
     order. *)
  and take_batch () =
    flush_due := false;
    incr batch_epoch;
    let now = Sched.now sched in
    let members =
      List.rev_map
        (fun (req, joined) ->
          Metrics.observe wait_hist (now -. joined);
          req)
        !batch
    in
    let n = !batch_n in
    batch := [];
    batch_n := 0;
    incr flushes;
    batched_reqs := !batched_reqs + n;
    Metrics.incr flushes_c;
    Metrics.observe batch_hist (float_of_int n);
    members
  and admit req =
    Queue.push req queues.(req.client);
    incr queued_total;
    if !queued_total > !qmax then qmax := !queued_total;
    Metrics.observe qdepth_hist (float_of_int !queued_total);
    set_qdepth ();
    maybe_start ()
  and admissible c =
    !queued_total < cfg.queue_depth
    && Queue.length queues.(c) < per_client_cap
  and admit_blocked () =
    (* Strict FIFO over blocked clients: the head waits for both a
       global slot and its own share; its queued requests draining is
       what frees the share, so no deadlock. *)
    if not (Queue.is_empty blocked) then begin
      let req = Queue.peek blocked in
      if admissible req.client then begin
        ignore (Queue.pop blocked);
        admit req;
        schedule_arrival req.client
      end
    end
  and schedule_arrival c =
    Sched.after sched
      (Prng.exponential think.(c) ~mean:cfg.think_mean_s)
      (fun () -> arrival c)
  (* Open-loop: the next request follows think time after this one was
     accepted or shed — except under Block, where the client stalls
     until its request is admitted. *)
  and arrival c =
    if generated.(c) < cfg.ops_per_client then begin
      generated.(c) <- generated.(c) + 1;
      let req = { client = c; op = Session.next sessions.(c); submit = Sched.now sched } in
      if admissible c then begin
        admit req;
        schedule_arrival c
      end
      else
        match cfg.policy with
        | Shed ->
            shed.(c) <- shed.(c) + 1;
            Metrics.incr shed_c;
            schedule_arrival c
        | Block -> Queue.push req blocked
    end
  in
  for c = 0 to cfg.clients - 1 do
    schedule_arrival c
  done;
  (* Settle any stragglers on the device clock and hand the stack back
     in Direct mode — even when a fault layer cuts the power mid-run
     ([Vdev.Crashed] escaping the scheduler): a crash harness recovers on
     the same devices, and mounting against a dead elevator stuck in
     queued mode would wedge it. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d -> try ignore (Vdev.drain d) with Vdev.Crashed -> ())
        devs;
      List.iter (fun d -> Vdev.set_mode d Vdev.Direct) devs)
    (fun () ->
      Sched.run sched;
      fs.Fsops.sync ());

  (* Nothing may be lost silently: every generated request either
     completed or was shed, and the engine checks its own books. *)
  let total_completed = Array.fold_left ( + ) 0 completed in
  let total_shed = Array.fold_left ( + ) 0 shed in
  for c = 0 to cfg.clients - 1 do
    if completed.(c) + shed.(c) <> cfg.ops_per_client then
      failwith
        (Printf.sprintf
           "Engine.run: client %d lost requests (%d completed + %d shed <> %d)"
           c completed.(c) shed.(c) cfg.ops_per_client)
  done;

  let elapsed_s = !last_completion in
  let disk_s = (Io_stats.diff (Fsops.io_stats fs) io0).Io_stats.busy_s in
  let throughput_ops_s =
    if elapsed_s > 0.0 then float_of_int total_completed /. elapsed_s
    else Float.nan
  in
  let mean_batch =
    if !flushes > 0 then float_of_int !batched_reqs /. float_of_int !flushes
    else Float.nan
  in
  Metrics.set qmax_g (float_of_int !qmax);
  Metrics.set (Metrics.gauge m "server.io_depth") (float_of_int cfg.io_depth);
  (* One device keeps the historical [server.dev.*] names; a sharded
     volume's devices register as [server.dev<i>.*] in shard order. *)
  (match devs with
  | [ d ] -> Vdev.register_metrics ~prefix:"server.dev" m d
  | ds ->
      List.iteri
        (fun i d ->
          Vdev.register_metrics ~prefix:(Printf.sprintf "server.dev%d" i) m d)
        ds);
  Metrics.set (Metrics.gauge m "server.clients") (float_of_int cfg.clients);
  Metrics.set
    (Metrics.gauge m "server.ops_per_client")
    (float_of_int cfg.ops_per_client);
  Metrics.set (Metrics.gauge m "server.elapsed_s") elapsed_s;
  Metrics.set (Metrics.gauge m "server.throughput_ops_s") throughput_ops_s;
  Metrics.set (Metrics.gauge m "server.disk_s") disk_s;
  Metrics.set
    (Metrics.gauge m "server.disk_s_per_op")
    (if total_completed > 0 then disk_s /. float_of_int total_completed
     else Float.nan);
  (* Only meaningful on batching backends; a NaN gauge would trip
     [Metrics.validate] on the FFS baseline, which never flushes. *)
  if !flushes > 0 then Metrics.set (Metrics.gauge m "server.mean_batch") mean_batch;
  {
    fs_name = fs.Fsops.name;
    clients = cfg.clients;
    completed = total_completed;
    shed = total_shed;
    errors = !errors;
    elapsed_s;
    throughput_ops_s;
    disk_s;
    flushes = !flushes;
    mean_batch;
    bg_clean_steps = !bg_steps;
    max_queue_depth = !qmax;
    per_client_completed = completed;
    per_client_shed = shed;
    metrics = m;
  }
