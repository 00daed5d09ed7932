(** The log appender.

    Buffers blocks destined for the current segment and writes each batch
    as a single large sequential transfer preceded by its summary block —
    this is where "many small synchronous random writes become large
    asynchronous sequential transfers".  Batches are bounded by the
    summary's entry capacity and by the end of the segment (a
    partial-segment write, Section 3.2).

    The writer drives N independent {e heads} (Section 3.5's hot/cold
    segregation): each head owns its current segment, open batch, and
    summary chain, while all heads share one global sequence counter and
    one clean-segment allocator.  Head 0 is the hot head for fresh
    foreground data; higher heads receive cleaner and demotion survivors
    binned by age.  With one head the writer behaves exactly as the
    classic single-threaded log.

    Addresses are assigned at {!append} time so callers can update their
    maps immediately; payloads may be supplied lazily and are rendered at
    batch-write time, straight into the transfer buffer.  The inode map
    and segment usage table need this (their blocks self-describe
    accounting that the append itself changes); inode, dir-log and
    indirect blocks use it so that no metadata block has a buffer of its
    own.  The contract for a [Lazy] payload: it is rendered at the first
    batch write after its append (a full batch writes at once, so that
    may be inside a later {!append}) and no later than the next {!sync},
    and it renders the state it reads at that moment.  The file system
    appends its metadata during a flush that ends with a {!sync}, so
    every [Lazy] payload a flush appends is rendered by that flush's own
    sync, and the flush changes nothing such a payload reads in
    between.  Likewise a [Bytes] payload's buffer is the writer's to
    read until that sync: the write buffer recycles a flushed data
    block only after it.

    A batch's summary also carries the flush's small metadata when it
    fits there ({!Summary.fits}): {!inline_records} and
    {!inline_inodes} place directory-operation records and inodes in the
    open batch's summary instead of in blocks of their own.  The writer
    owns that layout: the inline inodes take the summary's last inode
    slots, so they have addresses at once, and are rendered, like a
    [Lazy] payload, into the summary before its checksum is taken at
    batch-write time.  An append the summary could no longer describe
    beside them writes the batch first and opens a new one.

    Every batch is written through the mount's block cache
    ({!Lfs_disk.Vdev_cache.submit_write_from}), which invalidates the
    whole range first and then enters only the payload blocks that die
    whole: data, indirect, inode-map and usage-table blocks, each of
    which the file system's kill path takes back out as it dies.  The
    summary, inode blocks and dir-log blocks are written around the
    cache, since none of them ever dies whole, so none would ever leave
    it; a log write evicts no more entries than it has cached blocks.
    Every block a batch carries is live when the batch is written: the
    file system kills only blocks an earlier batch wrote.

    Every batch goes out of one transfer buffer the writer keeps, grown
    to the largest batch it has written (a summary and at most a
    segment's payloads).  Payloads are copied, or rendered, straight
    into it, and it is written with {!Lfs_disk.Vdev.submit_write_from},
    whose device takes the data at submit; so the buffer is free again
    when the write call returns, and a batch no larger than an earlier
    one allocates no block buffer.

    Every summary records the writer's durability watermark
    ([durable_below], see {!Summary.t}): the seq of the oldest batch
    write, on any head, whose device ticket had not completed when the
    summary was encoded ({!Lfs_disk.Io_queue.completed}), or the
    summary's own seq when every earlier write had.  Under Direct
    device mode every write completes at submit, so each summary
    vouches for every write before it.

    Every head always holds a reservation for its next segment
    ({!reserved_segment}); every summary records it, which is how
    roll-forward follows each head's chain across segment boundaries. *)

type payload =
  | Bytes of bytes * int
      (** the block at byte offset [pos] of a buffer (a single block is
          offset 0), which the caller leaves untouched until the batch is
          written: the cleaner relocates straight out of its read
          buffers *)
  | Lazy of (bytes -> pos:int -> unit)
      (** one block, rendered at batch-write time: [render buf ~pos]
          must write every byte of the block at [pos] of [buf], the
          writer's transfer buffer, and keep no reference to it *)

type position = {
  seg : int;       (** segment this head is filling *)
  off : int;       (** next free slot in that segment *)
  next_seg : int;  (** the head's reserved successor segment *)
}
(** One head's place in the log.  The one spelling of it: the writer
    starts from it, every checkpoint records it per head, and
    roll-forward returns it as each head's resume point. *)

type head_stats = { segments : int; blocks : int; syncs : int }
(** Per-head lifetime counters: segments opened, payload blocks appended,
    and batch writes issued. *)

type t

val create :
  Layout.t ->
  Lfs_disk.Vdev_cache.t ->
  pick_clean:(exclude:int list -> int) ->
  on_append:(Types.block_kind -> seg:int -> mtime:float -> unit) ->
  on_batch:(head:int -> addr:int -> blocks:int -> unit) ->
  heads:position array ->
  seq:int ->
  t
(** [pick_clean ~exclude] must return a clean segment not in [exclude]
    (raising {!Types.Fs_error} when none remains).  [on_append] is called
    for every payload block as it is placed (for usage accounting);
    [on_batch] after each physical batch write with the issuing head, its
    disk address, and total block count including the summary.  [heads]
    gives each head's starting position; segments named there must be
    mutually distinct. *)

val append :
  ?head:int ->
  ?from:Types.baddr ->
  t ->
  kind:Types.block_kind ->
  ino:Types.ino ->
  blockno:int ->
  version:int ->
  mtime:float ->
  payload ->
  Types.baddr
(** Queue one block for [head]'s chain (default 0, the hot head) and
    return its (final) disk address.

    [~from] says the payload is a byte-identical copy of the block now at
    log address [from], as this writer last wrote it there: the cleaner
    relocating a live block passes the victim address.  The writer then
    reuses the checksum it recorded for [from] when it wrote that block
    instead of summing the payload again.  It computes the checksum as
    usual when it has none for [from]: the block was written before this
    writer was created (an earlier mount, or recovery), or a head has
    reopened [from]'s segment since.  A caller that passes [~from] for
    bytes that differ from what this writer wrote there gets a batch that
    fails its payload check.  That includes a block that rotted on the
    medium between its write and its relocation: the relocating batch
    carries the sum of the bytes first written, so fsck reports the
    relocated block.  Roll-forward checks payloads only of writes a
    later summary does not vouch for (see {!Summary.t}'s
    [durable_below]): a completed relocating batch is rolled forward,
    rot and all, and fsck goes on reporting the block at its new
    address.  Raises [Invalid_argument] if [from] is not in the log
    area. *)

val inline_records :
  ?head:int -> t -> mtime:float -> Dir_log.record list -> bool
(** Carry the records in the summary of [head]'s open batch (opening
    one when none is), after any it carries already, if they all fit
    beside its entries and what it carries inline; [false], and nothing
    placed, if they do not (or there are none).  [mtime] counts toward
    the summary's timestamp. *)

val inline_inodes :
  ?head:int -> t -> mtime:float -> Inode.t list -> (Types.baddr * int) option
(** Carry the inodes in the summary of [head]'s open batch (opening one
    when none is), if they all fit beside its entries and what it
    carries inline: [Some (block, slot)] puts the [i]-th inode at
    [Types.Iaddr.make ~block ~slot:(slot + i)], [block] being the
    summary's address.  [None], and nothing placed, if they do not (or
    there are none).  Each inode is rendered as it stands at the batch
    write, under the [Lazy] payload contract. *)

val watermark_hook : (int -> int) ref
(** Test hook, the identity outside tests: maps the [durable_below] the
    writer computes for a summary to the one it records.  [succ] claims
    one write too many durable, which a crash sweep must catch;
    [Fun.const 0] claims nothing, as a summary written before the field
    existed. *)

val sync : t -> unit
(** Submit every head's buffered batch to disk, each as one tagged
    sequential transfer, in head order.  Under queued device modes the
    writes pipeline ahead of the next {!barrier}; in the default Direct
    mode they complete immediately. *)

val barrier : t -> float
(** Await every batch write not yet confirmed, across all heads (the
    fsync barrier); returns an upper bound on the completion time of the
    latest one, or [neg_infinity] when none was pending. *)

val unflushed_batches : t -> int
(** Batch writes submitted but not yet confirmed by {!barrier}, summed
    over all heads. *)

val nheads : t -> int

val current_segment : ?head:int -> t -> int

val reserved_segment : ?head:int -> t -> int

val position : ?head:int -> t -> position
val positions : t -> position array
(** Every head's position, indexed by head. *)

val active_segments : t -> int list
(** Every segment some head is writing into or holds reserved.  Callers
    must exclude these from cleaning, demotion, and reuse. *)

val seq : t -> int
(** Sequence number the next batch (from any head) will carry. *)

val head_stats : t -> int -> head_stats
