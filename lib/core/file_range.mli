(** Byte ranges of a file, walked block by block.

    The read walk, the read-modify-write walk and the changed-block diff
    of a rewritten directory, shared by {!Fs} and [Lfs_ffs.Ffs].  Each
    file system passes its own [read_block] (dirty buffer, else the
    mapped disk block, else a zero block) and its own per-block action,
    so where a block goes — the LFS write buffer, the FFS dirty table,
    a synchronous FFS directory write — stays with the file system. *)

val read :
  block_size:int ->
  size:int ->
  read_block:(int -> bytes) ->
  off:int ->
  len:int ->
  bytes
(** The bytes of [\[off, off + len)] that lie below [size], in order;
    reads past [size] are cut short.  Raises {!Types.Fs_error} on a
    negative [off] or [len]. *)

val write :
  block_size:int ->
  read_block:(int -> bytes) ->
  off:int ->
  bytes ->
  (int -> bytes -> hi:int -> unit) ->
  unit
(** [write ~block_size ~read_block ~off data put] calls [put blockno b
    ~hi] for each block the range [\[off, off + length data)] touches,
    first to last: [b] is the block's new contents (a slice of [data]
    when the range covers the whole block, else [read_block blockno]
    with [data]'s part copied in) and [hi] the file offset just past
    the bytes written into it.  Raises {!Types.Fs_error} on a negative
    [off] before calling anything. *)

val changed_blocks :
  block_size:int -> old:bytes -> bytes -> (int -> bytes -> unit) -> unit
(** [changed_blocks ~block_size ~old fresh put] calls [put blockno b]
    for each block of [fresh] whose bytes differ from [old] (or that
    [old] does not fully cover), with [b] the block zero-padded to
    [block_size]: rewriting a directory dirties only what changed. *)

val drop_dirty :
  (Types.ino * int, bytes) Hashtbl.t -> Types.ino -> first:int -> unit
(** Remove file [ino]'s blocks numbered [first] or above from a dirty
    table keyed by [(ino, blockno)]. *)
