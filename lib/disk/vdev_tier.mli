(** Tiered block device: one address space over a fast and a slow child.

    The paper's Section 3.5 observation — cold segments decay slowest,
    so they are the best candidates to move out of the cleaner's way —
    becomes a capacity/cost win when "out of the way" means a slower,
    cheaper device (LogBase, PAPERS.md).  [Vdev_tier] composes two
    children with different timing models into one exported block space:

    - a {e pinned prefix} [\[0, base)] that always lives on the fast
      child (the FS superblock and checkpoint regions, which the write
      path touches constantly), and
    - [nchunks] fixed-size {e chunks} (sized to one FS segment) that a
      persistent placement map assigns to physical chunks on either
      child.

    The map is crash-consistent in the style of the FS checkpoint: two
    generation-stamped, checksummed regions on the fast child written
    alternately; {!load} and reboot take the highest valid generation.
    {!migrate} orders copy-completion before the map flip and the map
    flip before freeing the source, so a power cut at any block never
    leaves the surviving map pointing at a lost copy.

    Two physical chunks float outside the logical space as a free pool,
    giving migration somewhere to copy without double-buffering whole
    tiers.  When the slow tier's pool is empty, demotion simply blocks
    (returns [false]) until a slow chunk is freed — e.g. by {!rehome},
    which the FS uses to recycle a cleaned (dead) slow chunk back under
    the write head without paying for a copy. *)

type t

type tier = Fast | Slow

val tier_name : tier -> string

(** Geometry planning, exposed so callers (e.g. [Spec]) can solve the
    fixpoint between the FS layout's metadata reservation and the
    exported size before formatting. *)
type plan = private {
  p_base : int;
  p_chunk_blocks : int;
  p_fast_chunks : int;
  p_slow_chunks : int;
  p_nchunks : int;
  p_map_r : int;
  p_map_reserved : int;
  p_nblocks : int;  (** exported block count *)
}

val plan : base:int -> chunk_blocks:int -> fast:Vdev.t -> slow:Vdev.t -> plan
(** Raises [Invalid_argument] if the children disagree on block size or
    are too small to hold at least one logical chunk plus the free
    pool. *)

val format : base:int -> chunk_blocks:int -> fast:Vdev.t -> slow:Vdev.t -> t
(** Write a fresh tier superblock and initial placement map: the first
    [fast_chunks - 1] logical chunks on the fast tier, the rest on slow,
    one free physical chunk per tier. *)

val load : fast:Vdev.t -> slow:Vdev.t -> t
(** Recover the placement map from the fast child (highest valid
    generation wins).  Fails if the superblock is missing, corrupt, or
    disagrees with the children's geometry. *)

val vdev : ?name:string -> t -> Vdev.t
(** The exported device.  Reads and writes fan out to the child that
    owns each extent; tickets join across children so queued IO
    completes at the max child completion.  The tier keeps no crash
    state of its own: arm power cuts on the fast or slow child (its
    [plan_crash] raises [Invalid_argument]).  [is_crashed] reports
    whether either child crashed; [reboot] reboots both children and
    reloads the placement map from disk, discarding any un-persisted
    flip. *)

(** {1 Geometry and placement queries} *)

val base : t -> int
val nchunks : t -> int
val chunk_blocks : t -> int
val exported_blocks : t -> int

val chunk_tier : t -> int -> tier
(** Current tier of logical chunk [c] (exported blocks
    [\[base + c*chunk_blocks, base + (c+1)*chunk_blocks)]). *)

val count_chunks : t -> tier:tier -> int
(** Logical chunks currently placed on [tier]. *)

val free_chunks : t -> tier:tier -> int
(** Free physical chunks on [tier] — migration capacity. *)

val demotions : t -> int
(** Completed {!migrate}s to [Slow]. *)

val promotions : t -> int
(** Completed {!migrate}s to [Fast]. *)

(** {1 Migration} *)

val migrate : ?now:float -> t -> chunk:int -> target:tier -> bool
(** Copy [chunk] to a free physical chunk of [target] and durably flip
    the placement map; the source rejoins the free pool only after the
    flip is durable.  Returns [false] when [target] has no free chunk
    (the caller should retry after freeing one), [true] on success or
    when the chunk is already on [target].  May raise {!Vdev.Crashed}
    mid-copy or mid-flip; after reboot the durable map still points at
    an intact copy. *)

val swap : ?now:float -> t -> chunk:int -> dead:int -> bool
(** Exchange the physical chunks of [chunk] and [dead]: copy [chunk]'s
    bytes into [dead]'s physical chunk, then atomically (one map write)
    point [chunk] there and [dead] at [chunk]'s old physical chunk.
    Only valid when [dead]'s contents are dead — a clean segment —
    because it ends up holding stale bytes ({!rehome}'s hazard class).
    This is how migration scales past the two-chunk free pool: any
    clean segment on the target tier can donate its physical chunk, and
    the donor simultaneously surfaces on the source tier as a clean
    segment for the write head.  Returns [false] when both chunks
    already sit on the same tier (nothing to exchange).  Same
    crash contract as {!migrate}. *)

val rehome : ?now:float -> t -> chunk:int -> target:tier -> bool
(** Reassign [chunk] to a free chunk of [target] {e without} copying.
    Only valid when the chunk's contents are dead — a clean segment
    about to be rewritten from its first block — because the newly
    assigned chunk holds stale bytes (the same hazard class as ordinary
    segment reuse, caught by summary checksums).  Same return/crash
    contract as {!migrate}. *)

(** {1 Integrity and observability} *)

val verify : t -> string list
(** Fsck hook: re-read the superblock and both map regions and check
    checksums, geometry, generation, in-memory-vs-durable agreement,
    and that the free pool is exactly the unmapped complement.  Empty
    list = consistent. *)

val register_metrics : ?prefix:string -> Lfs_obs.Metrics.t -> t -> unit
(** Per-child IO metrics under [<prefix>.fast.*] / [<prefix>.slow.*]
    (busy_s, blocks, seeks, queue depth — see {!Vdev.register_metrics})
    plus placement gauges [.{fast,slow}.{segs,free}] and cumulative
    [.demotions] / [.promotions].  [prefix] defaults to ["tier"]. *)
