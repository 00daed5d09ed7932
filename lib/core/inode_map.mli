(** The inode map (Section 3.1).

    Maps each inode number to the current location of its inode in the
    log, a version number (incremented whenever the file is deleted or
    truncated to length zero — together with the inode number it forms
    the unique identifier the cleaner uses to discard dead blocks without
    reading inodes), and the time of last access.

    The map is divided into blocks written to the log; the checkpoint
    region records every block's address.  The whole map is kept in
    memory ("inode maps are compact enough to keep the active portions
    cached in main memory"). *)

type t

val create : Layout.t -> t
(** Fresh map: every inode free, all versions 0, all blocks dirty. *)

val load :
  Layout.t -> read:(Types.baddr -> bytes) -> block_addrs:Types.baddr array -> t
(** Rebuild from the blocks recorded in a checkpoint. *)

val max_inodes : t -> int

val location : t -> Types.ino -> Types.Iaddr.t
(** Current inode location; [Iaddr.nil] for free/deleted inodes. *)

val version : t -> Types.ino -> int
val atime : t -> Types.ino -> float

val is_allocated : t -> Types.ino -> bool

val set_location : t -> Types.ino -> Types.Iaddr.t -> unit
val set_atime : t -> Types.ino -> float -> unit

val allocate : t -> Types.ino
(** Pick a free inode number (lowest-numbered free slot, starting after
    the root).  Raises {!Types.Fs_error} when the map is full.  The slot
    remains free until {!set_location} is called. *)

val free : t -> Types.ino -> unit
(** Release the inode: location becomes nil and the version is bumped,
    invalidating the uid of every block the file owned. *)

val bump_version : t -> Types.ino -> unit
(** Version bump without freeing (truncate to length zero). *)

val block_of_ino : t -> Types.ino -> int
(** Which map block holds the entry for [ino]. *)

val block_addr : t -> int -> Types.baddr
(** Current log address of map block [i] (nil if never written). *)

val set_block_addr : t -> int -> Types.baddr -> unit
(** Used by recovery when relocating map blocks. *)

val nblocks : t -> int
val dirty_blocks : t -> int list
val mark_block_dirty : t -> int -> unit
val clear_block_dirty : t -> int -> unit

val encode_block : t -> int -> bytes
(** Serialise map block [i] (for writing to the log). *)

val iter_allocated : t -> (Types.ino -> Types.Iaddr.t -> unit) -> unit
val count_allocated : t -> int
