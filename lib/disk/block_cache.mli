(** An exact-LRU block cache: it never holds more than its capacity,
    and eviction always takes the least recently used block.

    Models the main-memory file cache of Section 2.1: repeated reads of
    hot blocks (packed inodes, directories, indirect blocks, file data)
    cost no disk time.  Writers must {!invalidate} a block before
    writing it and may {!put} its new contents after (write-through),
    so the cache never returns stale data.

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

val read_range_into :
  ?fill:bool -> t -> fetch:fetch -> int -> int -> bytes -> pos:int -> unit
(** [read_range_into t ~fetch addr n buf ~pos] reads [n] consecutive
    blocks into [buf] at byte [pos], serving each from the cache when
    present and counting a hit or miss per block.  Maximal runs of
    missing blocks are fetched with a single [fetch] call, straight into
    their place in [buf], so a cold segment-sized read still costs one
    device IO.

    The LRU order is exact: each hit is copied out and moved to the
    front before the missed run in front of it is fetched, and fetched
    blocks then enter the cache, one copy each, evicting only true LRU
    entries.  The cache never holds more than its capacity.

    With [~fill:false] (the cleaner's reads: Section 3.3 reads victims
    into memory, not into the file cache) hits are copied out without
    moving in the LRU order and fetched blocks land only in [buf]: the
    cache's contents and order stay as they were, and only the hit and
    miss counters move. *)

val put : t -> int -> ?pos:int -> bytes -> unit
(** [put t addr ~pos b] records the new contents of block [addr], just
    written: the block at byte [pos] (default 0) of [b], copied, as the
    most recently used entry.  [addr] must not be resident: a writer
    invalidates the range before writing it (see {!Vdev_cache}), so a
    torn write leaves nothing stale.  Raises [Invalid_argument] when it
    is. *)

val peek : t -> int -> (bytes -> 'a) -> 'a option
(** [peek t addr f] is [Some (f b)] when block [addr] is resident, [b]
    its buffer lent under {!with_block}'s borrow contract, and [None]
    otherwise; it counts no hit or miss and leaves the LRU order as it
    was. *)

val invalidate : t -> int -> unit
val invalidate_range : t -> int -> int -> unit

val clear : t -> unit
(** Drop every entry and reset the hit/miss counters: after a clear the
    cache reports statistics for the new, cold epoch only. *)

val mem : t -> int -> bool
(** Whether block [addr] is resident; no count or LRU change. *)

val length : t -> int
(** The number of resident blocks, at most the capacity. *)

val hits : t -> int
val misses : t -> int
