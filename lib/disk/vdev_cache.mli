(** A write-through/read-through block-cache layer over any vdev.

    Lifts the {!Block_cache} wiring that {!Lfs_core.Fs} and
    {!Lfs_ffs.Ffs} used to hand-roll into one reusable device layer:
    every read is served per-block from an exact-LRU cache (multi-block
    reads consult and populate it too, with maximal runs of missing
    blocks fetched in one lower IO, straight into the caller's buffer),
    and writes update the device and then the cache.  {!with_block}
    lends a resident block to a decoder without copying it, and
    {!submit_read_no_fill} reads for the cleaner without filling the
    cache.

    Crash coherence: a write first invalidates the affected range, then
    forwards, and only re-populates the cache on success — so a torn
    write ({!Vdev.Crashed} from below) leaves no stale blocks, and reads
    against a crashed lower device raise instead of serving hits. *)

type t

val create : ?name:string -> capacity:int -> Vdev.t -> t
(** Capacity in blocks; zero disables caching (all reads pass through). *)

val vdev : t -> Vdev.t
(** The cached device: same geometry and crash plumbing as the wrapped
    vdev, [stats] delegates to it (cache hits cost no modelled time). *)

val with_block : t -> int -> (bytes -> 'a) -> 'a
(** [with_block t addr f] reads block [addr] as the view's [read_blocks
    addr 1] does (same hit and miss counts, same LRU move, a miss
    fetched through the lower device) but applies [f] to the resident
    buffer instead of returning a copy.  {!Block_cache.with_block}'s
    borrow contract holds: the buffer is valid only inside [f], [f] must
    not write or keep it, and any IO through the view from inside [f]
    raises [Invalid_argument]. *)

val submit_read_no_fill :
  ?now:float -> t -> int -> int -> bytes -> pos:int -> Io_queue.ticket
(** [submit_read_no_fill t addr n buf ~pos] reads as the view's
    [submit_read_into] does (resident blocks copied out, each maximal
    missed run one lower IO straight into [buf], a hit or miss counted
    per block) but leaves the cache as it was: no miss enters it and no
    hit moves in the LRU order ({!Block_cache.read_range_into}
    [~fill:false]).  The cleaner reads victims with it, so a pass does
    not push client blocks out of the cache. *)

val mem : t -> int -> bool
(** Whether block [addr] is resident ({!Block_cache.mem}). *)

val hits : t -> int
val misses : t -> int

val hit_rate : t -> float
(** Hits over total accesses; [nan] (undefined) before any access. *)

val clear : t -> unit
(** Drop every cached block and reset the hit/miss counters (simulates a
    cold file cache). *)

val register_metrics : ?prefix:string -> Lfs_obs.Metrics.t -> t -> unit
(** Register [<prefix>.hits], [<prefix>.misses] and [<prefix>.hit_rate]
    callback gauges; [prefix] defaults to ["vdev." ^ name].  Combine with
    {!Vdev.register_metrics} on {!vdev} for the IO-level view. *)
