(** The multi-client request-serving engine.

    Runs N client {!Lfs_workload.Session} streams against one mounted
    file system over the modelled clock, reproducing the shared file
    server of Section 5.1:

    - {e open-loop arrivals}: each client submits its next request an
      exponentially-distributed think time after the previous one was
      accepted (or shed), independent of completions — so offered load
      grows with the client count and the server genuinely saturates;
    - {e admission control}: a bounded waiting room
      ([queue_depth] requests across all clients, with each client
      capped at an equal share, [max 1 (queue_depth / clients)], so a
      hot session cannot buy up the whole queue).  On overload the
      configured {!policy} either {e sheds} the arrival (counted, never
      silent) or {e blocks} the client — a blocked client stalls its
      stream until both a global slot and its own share free, in
      arrival order;
    - {e fair dequeue}: the single server picks the next request
      round-robin across per-client FIFOs, so one hot session cannot
      starve the rest;
    - {e group commit}: on a log-structured backend
      ([Fsops.async_writes]), durable requests (create/write/delete) do
      not complete at service end — they join the open batch, which is
      flushed by one shared [sync].  The flush's modelled disk time is
      paid once and its completion stamps every member, so the per-op
      write cost falls as concurrency grows.  At [io_depth > 1] a
      member that joins while no flush is in flight leads: its batch
      flushes at once.  Members that join while a flush is in flight
      form the next batch, which starts at the earliest of: the last
      flush in flight completing, the window deadline
      ([batch_window_s] after its first member joined), or [max_batch]
      members.  So the window is a cap on the wait, and batches form
      only while the device is already writing one.  The serial path
      ([io_depth = 1]) keeps the historical rule: a batch flushes when
      its window expires or [max_batch] requests have joined.  On a
      synchronous backend (FFS) each durable op pays its own disk time
      in service and completes immediately — the paper's contrast.

    Every request records a latency span (submit to completion, queueing
    and flush wait included) into per-class histograms of a fresh
    {!Lfs_obs.Metrics} registry, alongside batch-size, batch-wait and
    queue-depth instruments; the registry's JSON render is the deterministic
    artifact the CI check compares byte-for-byte across equal seeds. *)

module Cpu_model := Lfs_workload.Cpu_model
module Fsops := Lfs_workload.Fsops

type policy = Block | Shed

val policy_name : policy -> string
val policy_of_string : string -> policy option

type config = {
  clients : int;
  ops_per_client : int;
  seed : int;
  think_mean_s : float;  (** mean of the exponential think time *)
  queue_depth : int;  (** admission bound on waiting requests *)
  policy : policy;
  batch_window_s : float;
      (** the group-commit window, from a batch's first join.  At
          [io_depth > 1] it is the longest a batch waits before it
          flushes.  At [io_depth = 1] a batch collects members for the
          whole window (then flushes once the server is free) unless
          [max_batch] members join first. *)
  max_batch : int;  (** flush early at this many requests *)
  session_files : int;  (** per-client working-set size *)
  write_size : int;  (** max bytes of one write/read *)
  cpu : Cpu_model.t;
  bg_clean : bool;
      (** run budgeted {!Lfs_workload.Fsops.clean_step} passes in idle
          windows (empty queue, no flush due), paced by the FS's
          background watermarks and preempted by arrivals; no-op on
          backends without a cleaner *)
  io_depth : int;
      (** device requests kept in flight together.  [1] (the default)
          serves strictly serially over the Direct device mode,
          reproducing the historical timings exactly.  [> 1] switches
          the device stack to queued submission for the run: up to
          [io_depth] requests overlap their IO, the per-device C-LOOK
          elevator orders outstanding transfers, group-commit flushes
          become fsync barriers ({!Lfs_disk.Vdev.drain}), and idle-window
          cleaner passes overlap with foreground service. *)
}

val default : config
(** 4 clients x 200 ops, seed 42, 50 ms think, depth 64, Block,
    10 ms window, batch cap 32, Sun-4/260 CPU, io_depth 1. *)

type result = {
  fs_name : string;
  clients : int;
  completed : int;
  shed : int;
  errors : int;  (** requests whose FS op raised [Fs_error]; still completed *)
  elapsed_s : float;  (** modelled time of the last completion *)
  throughput_ops_s : float;
  disk_s : float;  (** modelled disk busy time during serving *)
  flushes : int;
  mean_batch : float;  (** requests per flush; [nan] when no flushes *)
  bg_clean_steps : int;  (** idle cleaner steps that did work *)
  max_queue_depth : int;
  per_client_completed : int array;
  per_client_shed : int array;
  metrics : Lfs_obs.Metrics.t;
      (** [server.*] instruments: per-class latency histograms
          ([server.latency.<class>.s], with p50/p95/p99 in the summary),
          [server.batch.requests], [server.batch.wait_s] (each durable
          request's modelled time from joining a batch to that batch's
          flush start), [server.log_batch.blocks] (from
          {!Lfs_core.Fs.on_log_batch}), [server.flush.busy_s],
          [server.queue.depth_at_admit], and end-of-run gauges
          (throughput, elapsed, disk seconds per op, ...). *)
}

val run : config -> Fsops.t -> result
(** Serve the configured load to completion: every generated request is
    either completed or shed ([completed + shed =
    clients * ops_per_client], checked internally), all batches are
    flushed, and the file system is synced.  Deterministic in
    [(config, fs)]. *)
