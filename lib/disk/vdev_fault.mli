(** A fault-injecting {!Vdev} layer.

    Wraps any lower vdev and injects failures at block granularity
    according to a deterministic, PRNG-seeded plan — the seam the one
    crash sweep ([Lfs_model.Refine], behind [lfs_tool crashtest] and
    [lfs_tool modelcheck]) is built on:

    - {b power cuts}: [plan_crash] arms a countdown of payload blocks;
      the write that exhausts it persists only part of itself (see
      {!mode}), the layer enters the crashed state and every subsequent
      IO raises {!Vdev.Crashed} until [reboot].  Unlike
      {!Disk.plan_crash}, the triggering write can be torn (a prefix
      survives), dropped entirely, or reordered within the transfer (an
      arbitrary subset of its blocks survives — what a disk that
      schedules sectors freely can leave behind).
    - {b bit-rot}: [rot_read]/[rot_write] corrupt one byte of a chosen
      block, either every time it is read or once as it is written —
      fodder for fsck and checkpoint/summary checksum exercises.

    All randomness (reorder subsets, rotted byte positions) comes from
    the seed given to [create], so any observed failure replays
    exactly.  The layer keeps its own write counter ({!blocks_written}),
    making it the "recording vdev" used to count a workload's crash
    points.  The crash plumbing of the wrapped {!Vdev.t} view maps to
    this layer's own plan (mode {!Torn}, matching [Disk] semantics).
    The lower device's crash state is touched only when the lower stack
    is [Queued] (see {!plan_crash}). *)

type mode =
  | Torn  (** a prefix of the triggering write reaches the medium *)
  | Dropped  (** nothing of the triggering write reaches the medium *)
  | Reordered
      (** a pseudo-random subset of the triggering write's blocks
          reaches the medium *)

val mode_name : mode -> string

type t

val create : ?name:string -> ?seed:int -> Vdev.t -> t
(** [create lower] wraps [lower].  [seed] (default 0) drives every
    randomised fault decision. *)

val vdev : t -> Vdev.t
(** The faulting device view.  Its [plan_crash] field arms a {!Torn}
    crash on this layer. *)

val plan_crash : t -> ?mode:mode -> after_blocks:int -> unit -> unit
(** Arm a power cut after [after_blocks] more payload blocks have been
    accepted by [write_blocks].  The triggering write persists according
    to [mode] (default {!Torn}: its first [after_blocks] remaining
    blocks).

    [mode] applies only while the lower stack is [Direct].  When the
    lower stack is [Queued], the next write hands the countdown to the
    leaf {!Disk}, which burns it in commit order and always tears a
    prefix: a [Dropped] or [Reordered] plan then behaves as {!Torn}. *)

val reboot : t -> unit
(** Clear the crashed state and disarm any plan; surviving contents are
    whatever reached the lower device.  Also reboots the lower device so
    a power cycle resets modelled head position. *)

val blocks_written : t -> int
(** Cumulative payload blocks accepted by [write_blocks] (including the
    persisted part of a triggering write); the crash-point space of a
    recorded run. *)

val rot_read : t -> addr:int -> unit
(** Corrupt one pseudo-randomly chosen byte of block [addr] in every
    subsequent read of it.  The medium itself is untouched. *)

val rot_write : t -> addr:int -> unit
(** Corrupt one pseudo-randomly chosen byte of block [addr] in the next
    write that covers it (the corruption reaches the medium); the plan
    entry is consumed by that write. *)
