(** Segment summary blocks (Section 3.2).

    Each log write (a whole or partial segment) is preceded by a summary
    block identifying every block of the write: kind, owning file and
    position, and the file's uid version so the cleaner can discard dead
    blocks without reading inodes.  Summaries also carry the write
    sequence number and a pointer to the next segment in the log thread,
    which is what lets crash recovery follow the log past the last
    checkpoint, a checksum over the payload so torn writes are detected
    and ignored, and a durability watermark that tells recovery which
    earlier writes it need not check for tearing.

    A summary also carries the write's own small metadata when it fits
    beside the entries: the flush's directory-operation records and its
    dirty inodes, which would otherwise take a dir-log block and an
    inode block of their own (see {!fits}).

    The block holds, in order: the 64-byte header (the header checksum
    and a pad word, then magic, [seq], [seg], [slot], [next_seg] (8
    bytes), [timestamp] (8), [payload_sum], the entry count,
    [durable_below], [tail_sum], the inline inode count [k] and the
    records' byte length); the entries, 25 bytes each; the records, in
    {!Dir_log}'s record encoding; free space; and the [k] inline inodes
    in the block's last [k] inode slots, so an inode there decodes with
    {!Inode.decode} at its slot, as in an inode block.  The header
    checksum covers the whole block. *)

type entry = {
  kind : Types.block_kind;
  ino : Types.ino;   (** owning file; 0 for imap/usage/dir-log blocks *)
  blockno : int;
      (** file block number for data; {!Filemap} sentinel for indirect
          blocks; table index for imap/usage blocks; 0 otherwise *)
  version : int;     (** uid version of the owning file at write time *)
  mtime : float;     (** modify time of the block's data *)
}

type t = {
  seq : int;          (** global log-write sequence number *)
  seg : int;          (** segment this summary lives in *)
  slot : int;         (** block offset of the summary within the segment *)
  next_seg : int;     (** reserved successor segment of the log thread *)
  timestamp : float;
  payload_sum : int;  (** Adler-32 of the payload blocks that follow *)
  durable_below : int;
      (** the writer's claim that every log write with a smaller [seq]
          had completed on the device when this summary was encoded:
          the [seq] of the oldest write still in flight then, or this
          summary's own [seq] when none was.  Only ever [<= seq].  The
          claim holds whether or not this write's own payload lands, so
          roll-forward trusts the largest claim among the summaries it
          finds and checks payloads only from there on; 0 claims
          nothing, and every payload is checked *)
  tail_sum : int;
      (** Adler-32 of the write's last payload block alone.  Roll-forward
          reads that block first: a torn write seldom lands its tail, so
          a mismatch proves it torn after one block read.  A match proves
          nothing on its own: the whole payload is still checked against
          [payload_sum].  0 claims nothing *)
  entries : entry list;
  records : Dir_log.record list;
      (** directory-operation records carried in the summary, in log
          order: they precede every record of the write's dir-log
          blocks *)
  inodes : Inode.t list;
      (** inodes carried in the summary, in slot order: the last
          [List.length inodes] inode slots of the block.  They are newer
          than every inode of the write's inode blocks *)
}

val max_entries : block_size:int -> int
(** How many payload blocks one summary block can describe when it
    carries nothing inline. *)

val fits : block_size:int -> entries:int -> record_bytes:int -> inodes:int -> bool
(** The one placement rule: whether a summary with this many entries,
    this many bytes of records and this many inline inodes fits its
    block with no two regions overlapping. *)

val encode_into : block_size:int -> t -> bytes -> unit
(** Render the summary block into the first [block_size] bytes of a
    buffer (the log writer's transfer buffer, whose first block is the
    summary slot); the rest of the buffer is left alone.  Raises
    [Invalid_argument] if the summary does not {!fits} its block or the
    buffer is shorter than a block. *)

val decode : ?pos:int -> ?block_size:int -> bytes -> t option
(** Decode the [block_size]-byte block at byte [pos] of the buffer
    (defaults: 0 and the rest of the buffer), in place.  [None] when the
    block is not a valid summary (bad magic or header checksum, too many
    entries, or the block lies outside the buffer) — the normal way a
    log scan terminates.  Raises {!Types.Corrupt} when the block passes
    its checksum but its content is malformed: inline regions that
    overlap the entries or each other, an unknown block kind, records
    that do not parse to exactly their length, or an empty inline inode
    slot.  Raises nothing else. *)

val addr : t -> Layout.t -> Types.baddr
(** Disk address of the summary block itself. *)

val inline_inodes : t -> Layout.t -> (Types.Iaddr.t * Inode.t) list
(** Each inline inode with its address: the summary block and its
    slot. *)

val payload_checksum : ?pos:int -> ?len:int -> bytes -> int
(** Checksum to store in / compare against [payload_sum], over [len]
    bytes of the buffer from [pos] (defaults: 0 and to its end). *)

val entry_addr : t -> Layout.t -> int -> Types.baddr
(** Disk address of payload block [i] of this summary. *)

val next_slot : t -> int
(** Segment slot just past this write ([slot + 1 + entries]). *)

type run = {
  first : int;   (** index of the run's first entry *)
  n : int;       (** entries in the run *)
  blocks : int;  (** blocks the transfer reads: [n], or [n + 1] with the next summary *)
}
(** A run of consecutive entries of a write, read in one transfer. *)

val walk_segment :
  Layout.t ->
  seg:int ->
  ?from:int ->
  read:(int -> bytes * int) ->
  ?need:(t -> int -> entry -> bool) ->
  ?read_run:(t -> run -> bytes * int) ->
  (t -> bool) ->
  bool
(** The one walk of a segment's summary chain and the one reader of its
    writes, shared by the cleaner, roll-forward and fsck.

    {b The chain.}  Starting at slot [from] (default 0: the cleaner and
    fsck walk a whole segment; roll-forward enters the checkpoint's
    segment where the checkpoint left its head, so it reads no summary
    written before the checkpoint), the walk decodes the summary at each
    slot and hands it to [visit]; it ends at the first block that does
    not decode, does not identify itself as ([seg], that slot), or
    describes a write that would not fit in the segment, and when
    [visit] returns [false].  Otherwise it goes on just past the
    summary's write.  A summary can sit at a slot only if it and one
    payload block still fit the segment; a walk that reaches a slot
    where none can has {e exhausted} the segment, and only then does it
    return [true] (roll-forward then follows [next_seg]).  Callers add
    their own rules in [visit]: a sequence floor, a payload checksum.
    Stale summaries from a segment's previous life pass the walker's
    checks when they happen to sit where the chain continues; only a
    caller's rule can reject them.

    {b The reads.}  [read slot] gives the block at that slot of segment
    [seg] as a buffer and the block's byte offset in it; it is decoded
    in place and not kept, so [read] may return one buffer every time.
    For each summary [visit] accepts, and only then, the walk reads the
    entries [need s i e] picks ([i] the entry's index; default: none),
    as ascending runs of consecutive entries.  [need] runs entry by
    entry in order, and each run is read, by [read_run s run], as soon
    as the first entry after it that [need] rejects is known, or the
    write ends.  [read_run] (required once [need] picks an entry)
    reads the run's [blocks] blocks starting at
    entry [run.first] and returns the buffer and the byte offset of
    that entry there; the buffer is the caller's to keep.  {e Fusion}:
    a run that ends the write also takes the next slot when a summary
    can sit there ([blocks = n + 1]), and the walk decodes the next
    summary from that buffer instead of calling [read].  Every other
    summary comes from [read]. *)
