(** A fault-injecting {!Vdev} layer.

    Wraps a lower vdev whose crash plumbing reaches a leaf {!Disk} (the
    disk itself, or a {!Vdev_cache} over it) and injects failures at
    block granularity according to a deterministic, PRNG-seeded plan —
    the seam the one crash sweep ([Lfs_model.Refine], behind
    [lfs_tool crashtest] and [lfs_tool modelcheck]) is built on:

    - {b power cuts}: [plan_crash] picks what the interrupted write
      leaves (see {!mode}) and arms the leaf, which burns the countdown
      as it commits writes and applies the cut ({!Disk.plan_crash}).
      This layer keeps no crash state of its own ({!reboot} reboots the
      leaf), so a cut behaves the same whether the stack runs [Direct]
      or [Queued].
    - {b bit-rot}: [rot_read]/[rot_write] corrupt one byte of a chosen
      block, either every time it is read or once as it is written —
      fodder for fsck and checkpoint/summary checksum exercises.

    All randomness (reorder seeds, rotted byte positions) comes from the
    seed given to [create], so any observed failure replays exactly.
    The layer keeps its own write counter ({!blocks_written}), making it
    the "recording vdev" used to count a workload's crash points. *)

type mode =
  | Torn  (** a prefix of the interrupted write reaches the medium *)
  | Dropped  (** nothing of the interrupted write reaches the medium *)
  | Reordered
      (** a pseudo-random subset of the interrupted write's blocks
          reaches the medium *)

val mode_name : mode -> string

type t

val create : ?seed:int -> Vdev.t -> t
(** [create lower] wraps [lower].  [seed] (default 0) drives every
    randomised fault decision. *)

val vdev : t -> Vdev.t
(** The faulting device view.  Its crash plumbing is the lower
    device's. *)

val plan_crash : t -> ?mode:mode -> after_blocks:int -> unit -> unit
(** Arm a power cut on the leaf after [after_blocks] more payload blocks
    have been committed.  The write the cut interrupts persists
    according to [mode] (default {!Torn}: its first [after_blocks]
    remaining blocks); a {!Reordered} cut's subset is drawn from a seed
    this layer's PRNG picks now.  Raises [Invalid_argument] when
    [after_blocks] is negative or the lower device is a composite. *)

val reboot : t -> unit
(** Reboot the leaf: clear its crashed state and disarm any plan;
    surviving contents are whatever reached the medium. *)

val blocks_written : t -> int
(** Cumulative blocks of the writes and zeroings the lower device
    accepted through this layer: what the leaf's crash countdown
    counts, so the crash-point space of a recorded run. *)

val rot_read : t -> addr:int -> unit
(** Corrupt one pseudo-randomly chosen byte of block [addr] in every
    subsequent read of it.  The medium itself is untouched. *)

val rot_write : t -> addr:int -> unit
(** Corrupt one pseudo-randomly chosen byte of block [addr] in the next
    write that covers it (the corruption reaches the medium); the plan
    entry is consumed by that write. *)
