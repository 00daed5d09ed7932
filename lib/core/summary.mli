(** Segment summary blocks (Section 3.2).

    Each log write (a whole or partial segment) is preceded by a summary
    block identifying every block of the write: kind, owning file and
    position, and the file's uid version so the cleaner can discard dead
    blocks without reading inodes.  Summaries also carry the write
    sequence number and a pointer to the next segment in the log thread,
    which is what lets crash recovery follow the log past the last
    checkpoint, and a checksum over the payload so torn writes are
    detected and ignored. *)

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
  entries : entry list;
}

val max_entries : block_size:int -> int
(** How many payload blocks one summary block can describe. *)

val encode : block_size:int -> t -> bytes
(** Raises [Invalid_argument] if there are more entries than
    {!max_entries}. *)

val decode : bytes -> t option
(** [None] when the block is not a valid summary (bad magic or header
    checksum) — the normal way a log scan terminates. *)

val payload_checksum : bytes -> int
(** Checksum to store in / compare against [payload_sum]. *)

val entry_addr : t -> Layout.t -> int -> Types.baddr
(** Disk address of payload block [i] of this summary. *)

val next_slot : t -> int
(** Segment slot just past this write ([slot + 1 + entries]). *)

val walk_segment :
  seg_blocks:int -> seg:int -> read:(int -> bytes) -> (t -> bool) -> unit
(** The one walk of a segment's summary chain, shared by the cleaner,
    roll-forward and fsck.  Starting at slot 0, [read slot] fetches the
    block at that slot of segment [seg]; the walk ends at the first block
    that does not decode, does not identify itself as ([seg], that slot),
    or describes a write that would not fit in the segment.  Each summary
    that passes is handed to [visit], and the walk goes on just past its
    write while [visit] returns [true] and a summary plus one payload
    block still fit.  Callers add their own rules in [visit]: a sequence
    floor, a payload checksum, a hop to [next_seg].  Stale summaries from
    a segment's previous life pass these checks when they happen to sit
    where the chain continues; only a caller's rule can reject them. *)
