(** Byte ranges of a file, walked block by block (reads: run by run).

    The read walk, the read-modify-write walk and the write-back of a
    changed directory, shared by {!Fs} and [Lfs_ffs.Ffs].  Each
    file system passes its own block source (dirty buffer, else the
    mapped disk block, else a zero block) and its own per-block action,
    so where a block goes — the LFS write buffer, the FFS dirty table,
    a synchronous FFS directory write — stays with the file system. *)

type block =
  | Buffered of bytes  (** the write buffer's copy *)
  | Hole  (** never written: reads as zeros *)
  | Mapped of Types.baddr  (** on disk at this address *)
(** Where a file block's current contents are. *)

val locate :
  (Types.ino * int, bytes) Hashtbl.t -> Filemap.t -> Types.ino -> int -> block
(** [locate dirty fmap ino blockno]: file [ino]'s block [blockno] is
    [Buffered] when the dirty table keyed by [(ino, blockno)] holds it,
    else where its block map points. *)

val read :
  block_size:int ->
  size:int ->
  locate:(int -> block) ->
  read_run:(Types.baddr -> int -> skip:int -> bytes -> pos:int -> len:int -> unit) ->
  off:int ->
  len:int ->
  bytes
(** The bytes of [\[off, off + len)] that lie below [size], in order;
    reads past [size] are cut short.  The result is the only buffer the
    walk allocates.  [locate blockno] says where file block [blockno]
    is.  Each maximal run of on-disk blocks at consecutive addresses is
    one [read_run addr n ~skip out ~pos ~len]: copy [len] bytes of the
    [n] blocks from [addr], starting at byte [skip] of the first, into
    the result at byte [pos].  A buffered block or a hole ends a run;
    only the range's first block gives a nonzero [skip] and only its
    last a [len] short of the run's end.  Raises {!Types.Fs_error} on a
    negative [off] or [len]. *)

val write :
  block_size:int ->
  read_block:(int -> bytes) ->
  blank_block:(int -> bytes) ->
  off:int ->
  bytes ->
  (int -> bytes -> hi:int -> unit) ->
  unit
(** [write ~block_size ~read_block ~blank_block ~off data put] calls
    [put blockno b ~hi] for each block the range
    [\[off, off + length data)] touches, first to last: [b] is the
    block's new contents and [hi] the file offset just past the bytes
    written into it.  When the range covers the whole block, [b] is
    [blank_block blockno] with [data]'s slice copied over all of it;
    else [b] is [read_block blockno], the block's current contents, with
    [data]'s part copied in.  Both must return a buffer the caller owns
    (the file system's dirty buffer for the block may be one).  Raises
    {!Types.Fs_error} on a negative [off] before calling anything. *)

val drop_dirty :
  (Types.ino * int, bytes) Hashtbl.t ->
  Types.ino ->
  first:int ->
  size:int ->
  block_size:int ->
  release:(bytes -> unit) ->
  unit
(** Remove file [ino]'s blocks numbered [first] or above from a dirty
    table keyed by [(ino, blockno)], for a file of [size] bytes, and
    [release] each removed buffer: both file systems dirty a block only
    below the file's size, so this walks only the blocks from [first]
    up to the one holding byte [size - 1], never the whole table. *)

val update_dir :
  dirty:(Types.ino * int, bytes) Hashtbl.t ->
  ino:Types.ino ->
  Inode.t ->
  Filemap.t ->
  Directory.t ->
  int list ->
  blank_block:(int -> bytes) ->
  put:(int -> bytes -> unit) ->
  release:(bytes -> unit) ->
  free:(Types.baddr -> unit) ->
  unit
(** Write back directory [ino] after a {!Directory} mutator changed
    the listed blocks: for each, in the given (ascending) order, render
    the block, zero-padded, into [blank_block blockno] (a buffer the
    caller owns) and [put blockno] it; then, if the image shrank below
    the inode's size, drop the dirty blocks past its new end
    ({!drop_dirty}, [release]) and truncate the block map, [free]ing
    what it held; then set the inode's size.  What [put] does — dirty
    the block (LFS) or write it synchronously (FFS) — and the mtime and
    inode write-back stay with the file system. *)
