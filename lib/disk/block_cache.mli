(** An LRU buffer cache over single-block reads.

    Models the main-memory file cache of Section 2.1: repeated reads of
    hot metadata blocks (packed inodes, directories, indirect blocks)
    cost no disk time.  Writers must call {!put} (write-through update)
    or {!invalidate} so the cache never returns stale data.

    The cache owns what it stores: a block enters by one copy, and
    nothing the cache returns aliases the copies it keeps.  The buffers
    of evicted and invalidated entries are reused for new ones. *)

type t

val create : capacity:int -> block_size:int -> t
(** Capacity in blocks of [block_size] bytes.  A zero capacity disables
    caching. *)

val read : t -> fetch:(int -> bytes) -> int -> bytes
(** [read t ~fetch addr] returns a copy of the block, from cache when
    possible; on a miss [fetch addr] supplies it from the device below. *)

val read_range : t -> fetch:(int -> int -> bytes) -> int -> int -> bytes
(** [read_range t ~fetch addr n] reads [n] consecutive blocks, serving
    each from the cache when present and counting a hit or miss per
    block.  Maximal runs of missing blocks are fetched with a single
    [fetch addr count] call, so a cold segment-sized read still costs one
    device IO; fetched blocks populate the cache, one copy each.  The
    result belongs to the caller: when the whole range missed it is the
    buffer [fetch] returned, which must therefore be the caller's to
    give away. *)

val put : t -> int -> ?pos:int -> bytes -> unit
(** [put t addr ~pos b] records the new contents of block [addr], just
    written: the block at byte [pos] (default 0) of [b], copied. *)

val invalidate : t -> int -> unit
val invalidate_range : t -> int -> int -> unit

val clear : t -> unit
(** Drop every entry and reset the hit/miss counters: after a clear the
    cache reports statistics for the new, cold epoch only. *)

val hits : t -> int
val misses : t -> int
