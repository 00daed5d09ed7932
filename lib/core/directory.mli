(** Directory contents.

    A directory is an ordinary file whose data is a serialised list of
    [(name, inode)] entries; it flows through the same cache, log and
    cleaner as any file.  Names are unique within a directory, non-empty,
    at most {!max_name} bytes and must not contain ['/'] or NUL.

    A {!t} is mutable: it holds the directory's exact on-disk image and
    a hash index from name to inode, so {!find} and {!mem} are hash
    lookups, {!add} appends in place, {!remove} moves the tail down and
    {!replace} overwrites an ino in place.  Each mutator returns the
    numbers of the blocks whose bytes it changed, ascending and without
    repeats, and the caller writes exactly those blocks ({!block_into}):
    - {!add} changes block 0 (the entry count) and every block over
      [\[old length, new length)];
    - {!remove} changes block 0 and each block of the shortened image
      whose bytes differ from before;
    - {!replace} of a present name changes only the blocks whose bytes
      differ.
    That is the set a blockwise compare of the old and new images
    picks, so rewriting a directory writes only what changed. *)

type t

val max_name : int

val create : block_size:int -> t
(** An empty directory whose image is cut into [block_size] blocks. *)

val of_bytes : block_size:int -> bytes -> t
(** Validate and index an image.  The directory takes [b] as its own
    image buffer, without a copy: the caller gives it up and must not
    read, write or keep it afterwards.  When a name
    appears twice the first entry wins.  Bytes past the last entry are
    not part of the image, so the next write-back cuts the file to
    {!length}.  Raises {!Types.Corrupt} on malformed content. *)

val to_bytes : t -> bytes
(** A copy of the image. *)

val block_size : t -> int

val length : t -> int
(** The image's length in bytes: the directory file's size. *)

val block_into : t -> int -> bytes -> unit
(** [block_into d n b] copies block [n] of the image into [b],
    zero-padded to the block size: every byte of [b]'s first block is
    written. *)

val is_empty : t -> bool
val cardinal : t -> int
val find : t -> string -> Types.ino option
val mem : t -> string -> bool

val add : t -> string -> Types.ino -> int list
(** Append an entry.  Raises {!Types.Fs_error} on a bad or existing
    name, before changing anything. *)

val remove : t -> string -> int list
(** Remove every entry with the name.  Raises {!Types.Fs_error} if the
    name is absent. *)

val replace : t -> string -> Types.ino -> int list
(** Add-or-overwrite, used by recovery's ensure-style fixes. *)

val entries : t -> (string * Types.ino) list
(** Decoded from the image, in insertion order. *)

val check_name : string -> unit
(** Validate a file name; raises {!Types.Fs_error} on bad names. *)
