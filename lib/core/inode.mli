(** Inodes.

    As in Unix FFS (Section 3.1), an inode holds the file's attributes
    and the disk addresses of its first ten blocks plus single- and
    double-indirect pointer blocks.  Unlike FFS, inodes have no fixed
    home: they are packed {!Layout.inodes_per_block} to a block and
    written to the log; the inode map tracks their current location.

    Each on-disk inode slot is self-describing (magic + inode number) so
    the segment cleaner can identify every inode in a relocated inode
    block without consulting anything else. *)

type t = {
  ino : Types.ino;
  mutable ftype : Types.ftype;
  mutable nlink : int;
  mutable size : int;          (** bytes *)
  mutable mtime : float;
  direct : Types.baddr array;  (** always length {!ndirect} *)
  mutable indirect : Types.baddr;
  mutable dindirect : Types.baddr;
}

val slot_size : int
(** Bytes per on-disk inode slot ({!Layout.inode_size}). *)

val ndirect : int
(** Number of direct block pointers (10, as in the paper). *)

val create : ino:Types.ino -> ftype:Types.ftype -> mtime:float -> t
(** A fresh empty inode with [nlink = 1]. *)

val copy : t -> t

val nblocks : block_size:int -> t -> int
(** Number of data blocks implied by [size]. *)

val encode : ?pos:int -> t -> bytes -> slot:int -> unit
(** Serialise into slot [slot] of the inode block at byte [pos]
    (default 0) of the buffer.  Only the slot's fields are written: the
    rest of the slot and the unused slots must already be zero, as in a
    block the caller zeroed first (the log writer's inode blocks are
    rendered that way, straight into its transfer buffer). *)

val decode : ?pos:int -> bytes -> slot:int -> t option
(** Read back slot [slot] of the inode block at byte [pos] (default 0)
    of the buffer; [None] if the slot is unused.  Raises
    {!Types.Corrupt} on a bad magic. *)

val decode_ino : ?pos:int -> bytes -> slot:int -> Types.ino option
(** The inode number in slot [slot] of the inode block at byte [pos]
    (default 0) of the buffer, checking only the magic: what {!decode}
    would return as [ino], without building the inode. *)

val slot_ino : ?pos:int -> bytes -> slot:int -> Types.ino option
(** As {!decode_ino}, but [None] for any slot whose first byte is not
    the magic, without raising: a block only partly made of inode slots
    (a summary's header and entries before its inline inodes) can be
    scanned slot by slot. *)

val clear_slot : bytes -> slot:int -> unit
(** Mark a slot unused. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
