(** Crash-point enumeration over named workloads.

    Section 4 of the paper argues that a log-structured file system can
    recover quickly and correctly from any crash because the log tail
    plus the last checkpoint bound the damage.  This harness tests that
    claim exhaustively rather than anecdotally: it runs a workload once
    to count its device writes, then for {e each} write (or a strided
    subset) replays the workload from scratch, cuts the power at exactly
    that block — tearing, dropping, or reordering the in-flight
    transfer — reboots, runs the subject's recovery and fsck, and checks
    the surviving namespace against a logical-state oracle:

    - everything acknowledged before the last successful [sync] must
      survive byte-for-byte;
    - anything newer may be missing or partial, but every recovered
      block must belong to some state the workload actually passed
      through (no foreign data, no mixed-up files, no resurrected
      deletions).

    The loop itself is [Lfs_model.Refine]'s one crash sweep, the same
    one behind [lfs_tool modelcheck]; this module supplies the
    workloads, which run under a {!Lfs_model.Fs_model.Recorder} with
    synchronous (Direct) submission, and the report.  It runs against
    any volume recipe ({!Lfs_spec.Spec.t}), through the recipe's crash
    subject ({!Lfs_spec.Spec.subject}), so the same enumeration covers
    the LFS, the FFS baseline, and every composition of log heads,
    tiering and sharding.  FFS has no recovery protocol and writes
    metadata in place, so its runs are expected to report oracle
    divergences — the harness reports them, it does not crash.

    Multi-device subjects (tiered members, sharded volumes) take several
    devices; the sweep plants the fault layer on device 0 only, so the
    enumeration crashes that device at every one of its write points
    while the others keep serving — the oracle then checks that their
    durable state is intact alongside the crashed device's recovery.

    All randomness derives from one seed: the crash mode of a cut is
    [Lfs_model.Refine.mode_for ~seed cut], so it does not depend on
    which other cuts ran, and every reported failure replays exactly
    from the printed seed and its cut. *)

(** {1 Workloads} *)

type workload = {
  wname : string;
  run : Lfs_workload.Fsops.t -> unit;
      (** Must be deterministic: the reference run and every replay
          re-execute it and count on identical device traffic. *)
}

val smallfile :
  ?nfiles:int -> ?file_size:int -> ?files_per_dir:int -> unit -> workload
(** A scaled-down {!Lfs_workload.Smallfile} (create / read / delete). *)

val andrew : ?dirs:int -> ?files:int -> ?file_bytes:int -> unit -> workload
(** A scaled-down {!Lfs_workload.Andrew} run. *)

val script : ?ops:int -> seed:int -> unit -> workload
(** A seeded random mix of creates, whole-file overwrites, appends,
    deletes, reads and syncs over a small namespace. *)

(** {1 Reports} *)

type failure = Lfs_model.Refine.divergence = {
  cut : int;  (** crash point: payload blocks written before the cut *)
  mode : Lfs_disk.Vdev_fault.mode;  (** the crash mode the cut replayed with *)
  stage : string;  (** ["replay"], ["recover"], ["fsck"], ["walk"] or ["oracle"] *)
  detail : string;
}

type report = {
  subject : string;
  workload : string;
  seed : int;
  total_blocks : int;  (** size of the crash-point space *)
  points : int;  (** crash points actually replayed *)
  crashes : int;  (** replays in which the power cut fired *)
  fsck_failures : failure list;
      (** recovery raised, fsck reported errors, or the post-recovery
          walk itself hit corruption *)
  oracle_failures : failure list;  (** logical-state divergences *)
}

val is_clean : report -> bool
val pp_report : Format.formatter -> report -> unit

(** {1 Enumeration} *)

val run :
  ?blocks:int ->
  ?stride:int ->
  ?cuts:int list ->
  ?seed:int ->
  Lfs_spec.Spec.t ->
  workload ->
  report
(** [run spec w] records [w] once on the recipe's subject over fresh
    [?blocks]-block devices (default 1024 each) to learn the crash-point
    space — the writes that reached device 0 — then replays one crash
    per point.  [?stride] (default 1) thins the enumeration but always
    keeps the final write; [?cuts] replays exactly the given points
    instead.  The crash mode at each point is
    [Lfs_model.Refine.mode_for ~seed cut] ([?seed] defaults to 0). *)
