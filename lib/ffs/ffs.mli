(** A Berkeley Unix "fast file system" (FFS) baseline, as characterised
    in Sections 2.3 and 5 of the LFS paper.

    The traits that matter for the comparison are modelled faithfully:

    - inodes live at fixed disk addresses in per-cylinder-group tables,
      so file metadata, directory data and file data are physically
      separated (each access pays a seek);
    - metadata is written {e synchronously}: creating a file writes the
      file's inode twice, the directory's data block and the directory's
      inode before the operation returns — the five small IOs of
      Section 2.3;
    - file data is written asynchronously through a buffer cache but as
      individual block-at-a-time transfers (pre-clustering SunOS);
    - the allocator places a file's blocks contiguously within its
      cylinder group when it can, giving good sequential-read layout at
      the cost of the extra write-time seeks;
    - random writes update blocks in place.

    The public API mirrors {!Lfs_core.Fs} so benchmarks drive both
    systems with the same code. *)

type t

type config = {
  block_size : int;
  cg_blocks : int;        (** blocks per cylinder group *)
  inodes_per_cg : int;
  write_buffer_blocks : int;
  cache_blocks : int;     (** LRU buffer-cache capacity *)
  sync_double_inode_on_create : bool;
      (** write new-file inodes twice, as FFS does for crash recovery *)
  cluster_writes : bool;
      (** coalesce contiguous dirty blocks into one transfer at flush —
          the extent-like clustering of McVoy & Kleiman (the paper's
          ref [16]), which the paper predicts gives FFS sequential-write
          performance "equivalent to Sprite LFS" *)
}

val default_config : config

val format : Lfs_disk.Vdev.t -> config -> unit
val mount : Lfs_disk.Vdev.t -> t

val root : Lfs_core.Types.ino

val create : t -> dir:Lfs_core.Types.ino -> string -> Lfs_core.Types.ino
val mkdir : t -> dir:Lfs_core.Types.ino -> string -> Lfs_core.Types.ino
val lookup : t -> dir:Lfs_core.Types.ino -> string -> Lfs_core.Types.ino option
val readdir : t -> Lfs_core.Types.ino -> (string * Lfs_core.Types.ino) list
val unlink : t -> dir:Lfs_core.Types.ino -> string -> unit
(** Remove a regular file's name.  Refuses directories (use {!rmdir}). *)

val rmdir : t -> dir:Lfs_core.Types.ino -> string -> unit
(** Remove an empty directory. *)

val rename :
  t ->
  odir:Lfs_core.Types.ino ->
  string ->
  ndir:Lfs_core.Types.ino ->
  string ->
  unit
(** Move a name; an existing (non-directory) target is replaced. *)

val write : t -> Lfs_core.Types.ino -> off:int -> bytes -> unit
(** Writing past EOF leaves a hole.  Raises {!Lfs_core.Types.Fs_error}
    on a negative [off]. *)

val read : t -> Lfs_core.Types.ino -> off:int -> len:int -> bytes
(** Reads past EOF are truncated; holes read as zeros.  Raises
    {!Lfs_core.Types.Fs_error} on a negative [off] or [len]. *)

val truncate : t -> Lfs_core.Types.ino -> len:int -> unit
(** Set the size to [len], as {!Lfs_core.Fs.truncate} does: shrinking
    to mid-block zeroes the rest of the new last block, extending
    leaves a hole, and either way bytes past the old end read back as
    zeros.  The block map and inode are written synchronously. *)

val file_size : t -> Lfs_core.Types.ino -> int

include Lfs_core.Fs_intf.PATHS with type t := t
(** The shared path layer ({!Lfs_core.Fs_intf.Paths}). *)

val sync : t -> unit
val devices : t -> Lfs_disk.Vdev.t list

val free_blocks : t -> int

val fsck_scan : t -> unit
(** The Unix consistency scan the LFS paper contrasts with roll-forward
    (Section 4): read every cylinder group's bitmap and inode table and
    walk every file's indirect blocks.  Costs time proportional to the
    whole disk's metadata regardless of how little changed — measure the
    device's busy-time delta around the call. *)

val drop_caches : t -> unit
(** Forget cached inodes and block maps so subsequent reads hit the disk
    (cold-cache benchmark phases). *)
