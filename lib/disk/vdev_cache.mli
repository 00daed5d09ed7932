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
    against a crashed lower device raise instead of serving hits.

    What stays resident is the owner's to keep live: a write may leave
    some of its blocks out of the cache ({!submit_write_from} [~keep]),
    and a block whose contents die should leave it ({!invalidate}).  The
    log-structured file system does both, so its cache holds only live
    blocks: a log write caches only its data, indirect and table blocks,
    each of those leaves the cache when the kill path retires it, and a
    block of inodes a handle miss read in leaves with its last live
    inode ({!peek} finds whether one is left). *)

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

val submit_write_from :
  ?now:float ->
  t ->
  keep:(int -> bool) ->
  int ->
  int ->
  bytes ->
  pos:int ->
  Io_queue.ticket
(** [submit_write_from t ~keep addr n buf ~pos] writes as the view's
    [submit_write_from] does (the range invalidated first, then written
    below) but afterwards enters only the blocks [addr + i] for which
    [keep i] holds ([0 <= i < n]); the others are written around the
    cache: they take no entry and evict nothing. *)

val peek : t -> int -> (bytes -> 'a) -> 'a option
(** [peek t addr f] applies [f] to block [addr] if it is resident, as
    {!Block_cache.peek}: no IO, no count, no LRU move. *)

val invalidate : t -> int -> unit
(** Drop block [addr] if resident; no count changes.  Raises
    [Invalid_argument] inside a {!with_block} callback. *)

val mem : t -> int -> bool
(** Whether block [addr] is resident ({!Block_cache.mem}). *)

val resident : t -> int
(** The number of resident blocks ({!Block_cache.length}). *)

val hits : t -> int
val misses : t -> int

val hit_rate : t -> float
(** Hits over total accesses; [nan] (undefined) before any access. *)

val clear : t -> unit
(** Drop every cached block and reset the hit/miss counters (simulates a
    cold file cache). *)

val register_metrics : ?prefix:string -> Lfs_obs.Metrics.t -> t -> unit
(** Register [<prefix>.hits], [<prefix>.misses], [<prefix>.hit_rate]
    and [<prefix>.resident] (blocks held) callback gauges; [prefix] defaults to ["vdev." ^ name].  Combine with
    {!Vdev.register_metrics} on {!vdev} for the IO-level view. *)
