(** An LRU buffer cache over single-block reads.

    Models the main-memory file cache of Section 2.1: repeated reads of
    hot metadata blocks (packed inodes, directories, indirect blocks)
    cost no disk time.  Writers must call {!put} (write-through update)
    or {!invalidate} so the cache never returns stale data.

    The cache owns what it stores: a block enters by one copy (or by a
    fetch straight into the buffer it will occupy), and nothing the
    cache returns aliases the copies it keeps.  The one exception is
    {!with_block}, which lends a resident buffer to a callback and
    forbids every other operation until it returns.  The buffers of
    evicted and invalidated entries are reused for new ones. *)

type t

val create : capacity:int -> block_size:int -> t
(** Capacity in blocks of [block_size] bytes.  A zero capacity disables
    caching. *)

type fetch = int -> int -> bytes -> int -> unit
(** [fetch addr n buf pos] reads blocks [\[addr, addr + n)] from the
    device below into [buf] at byte [pos]. *)

val with_block : t -> fetch:fetch -> int -> (bytes -> 'a) -> 'a
(** [with_block t ~fetch addr f] is [f] applied to block [addr]'s
    resident buffer, with the hit or miss counted and the LRU order
    updated exactly as a one-block {!read_range_into} does; a miss fetches the block (one
    block, [fetch addr 1]) straight into the buffer it then occupies.
    The borrow contract: the buffer is valid only while [f] runs, and
    [f] must not write it or keep it; until [f] returns, every other
    operation on [t] raises [Invalid_argument], because any of them
    could evict the entry and recycle its buffer.  With a zero capacity
    [f] gets a fresh buffer.  A hit copies no block and allocates
    nothing on the major heap. *)

val read_range_into : t -> fetch:fetch -> int -> int -> bytes -> pos:int -> unit
(** [read_range_into t ~fetch addr n buf ~pos] reads [n] consecutive
    blocks into [buf] at byte [pos], serving each from the cache when
    present and counting a hit or miss per block.  Maximal runs of
    missing blocks are fetched with a single [fetch] call, straight into
    their place in [buf], so a cold segment-sized read still costs one
    device IO; fetched blocks populate the cache, one copy each.  Hits
    are copied out before the preceding missed run is fetched. *)

val put : t -> int -> ?pos:int -> bytes -> unit
(** [put t addr ~pos b] records the new contents of block [addr], just
    written: the block at byte [pos] (default 0) of [b], copied. *)

val invalidate : t -> int -> unit
val invalidate_range : t -> int -> int -> unit

val clear : t -> unit
(** Drop every entry and reset the hit/miss counters: after a clear the
    cache reports statistics for the new, cold epoch only. *)

val mem : t -> int -> bool
(** Whether block [addr] is resident; no count or LRU change. *)

val hits : t -> int
val misses : t -> int
