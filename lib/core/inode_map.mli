(** The inode map (Section 3.1).

    Maps each inode number to the current location of its inode in the
    log, a version number (incremented whenever the file is deleted or
    truncated to length zero — together with the inode number it forms
    the unique identifier the cleaner uses to discard dead blocks without
    reading inodes), and the time of last access.

    Each entry also carries a type word: 0 unknown, 1 regular file, 2
    directory.  It lets roll-forward's orphan sweep walk the namespace
    without loading the inode of every file in it.  The word sits in
    what was an unused u32 of the entry, written 0 before it existed,
    so a map from such an image reads every type as unknown.

    The map is divided into blocks written to the log; the checkpoint
    region records every block's address.  The whole map is kept in
    memory ("inode maps are compact enough to keep the active portions
    cached in main memory"). *)

type t

val create : Layout.t -> t
(** Fresh map: every inode free, all versions 0, all blocks dirty. *)

val load :
  Layout.t ->
  read:(Types.baddr -> int -> bytes) ->
  block_addrs:Types.baddr array ->
  t
(** Rebuild from the blocks recorded in a checkpoint, reading each run of
    adjacent blocks with one [read addr n] ({!Layout.read_runs}). *)

val max_inodes : t -> int

val location : t -> Types.ino -> Types.Iaddr.t
(** Current inode location; [Iaddr.nil] for free/deleted inodes. *)

val version : t -> Types.ino -> int
val atime : t -> Types.ino -> float

val is_allocated : t -> Types.ino -> bool

val ftype : t -> Types.ino -> Types.ftype option
(** The entry's type word; [None] when it is 0 (unknown). *)

val set_ftype : t -> Types.ino -> Types.ftype -> unit
(** Set the type word.  Every allocated inode's word must match its
    inode's [ftype] or be unknown: the orphan sweep trusts a known
    word, and {!Fsck} checks it. *)

val set_location : t -> Types.ino -> Types.Iaddr.t -> unit
val set_atime : t -> Types.ino -> float -> unit

val allocate : t -> Types.ino
(** Pick a free inode number (lowest-numbered free slot, starting after
    the root).  Raises {!Types.Fs_error} when the map is full.  The slot
    remains free until {!set_location} is called. *)

val free : t -> Types.ino -> unit
(** Release the inode: location becomes nil, the type word unknown, and
    the version is bumped, invalidating the uid of every block the file
    owned. *)

val bump_version : t -> Types.ino -> unit
(** Version bump without freeing (truncate to length zero). *)

val set_version : t -> Types.ino -> int -> unit
(** Roll-forward's restore: the checkpointed map can predate a free or
    truncation that bumped the version of an inode it recovers. *)

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

val encode_block_into : t -> int -> bytes -> pos:int -> unit
(** Serialise map block [i] (for writing to the log) into the block at
    byte [pos] of the buffer, zeroing it first. *)

val iter_allocated : t -> (Types.ino -> Types.Iaddr.t -> unit) -> unit
val count_allocated : t -> int
