(** In-memory block map of one file, backed by the on-disk direct and
    indirect pointers.

    The map caches every (file block -> disk address) translation plus
    the addresses of the indirect blocks themselves.  Mutations dirty the
    affected indirect "chunk"; {!flush} rewrites exactly the dirty
    indirect blocks to the log (new copies — this is a no-overwrite file
    system) and updates the inode's pointers.  The pointer blocks are
    rendered from the map, by {!flush}'s [alloc], without a block
    buffer of the map's own.

    Summary-block position encoding for indirect blocks (the [blockno]
    field of a summary entry): data blocks use their non-negative file
    block number; indirect blocks use negative sentinels so the cleaner
    can locate the parent pointer (see {!classify_sblockno}). *)

type t

val load :
  with_block:(Types.baddr -> (bytes -> unit) -> unit) -> Layout.t -> Inode.t -> t
(** Materialise the map by reading the file's indirect blocks:
    [with_block addr f] applies [f] to the block at [addr] and may lend
    a buffer valid only inside [f] (the {!Lfs_disk.Vdev_cache.with_block}
    contract).  [f] decodes straight from it and reads nothing else. *)

val create_empty : Layout.t -> Inode.t -> t
(** Map for a freshly created (empty) file; reads nothing. *)

val get : t -> int -> Types.baddr
(** Disk address of file block [i]; {!Types.nil_addr} for holes. *)

val set : t -> int -> Types.baddr -> unit
(** Point file block [i] at a new disk address. *)

val mapped_blocks : t -> int
(** Upper bound on indices that may be non-nil. *)

val iter_mapped : t -> (int -> Types.baddr -> unit) -> unit
(** Visit every non-nil data-block mapping. *)

val indirect_blocks : t -> (int * Types.baddr) list
(** Current on-disk indirect blocks as [(sblockno, addr)] pairs. *)

val indirect_addr : t -> sblockno:int -> Types.baddr
(** On-disk address currently holding the given indirect position. *)

val mark_indirect_dirty : t -> sblockno:int -> unit
(** Force the given indirect block to be rewritten at next {!flush}
    (used by the cleaner to relocate live indirect blocks). *)

val truncate : t -> blocks:int -> free:(Types.baddr -> unit) -> unit
(** Drop all mappings at index >= [blocks], calling [free] on each
    released data block (indirect blocks are released at {!flush}). *)

val dirty : t -> bool

val flush :
  t ->
  Inode.t ->
  alloc:
    (kind:Types.block_kind ->
    blockno:int ->
    (bytes -> pos:int -> unit) ->
    Types.baddr) ->
  free:(Types.baddr -> unit) ->
  unit
(** Write dirty indirect blocks via [alloc] (oldest level first), free
    the superseded copies, and update the inode's [indirect] /
    [dindirect] pointers.  After [flush], [dirty t = false].

    [alloc ~kind ~blockno render] places one pointer block and returns
    its address; [render buf ~pos] writes the whole block at byte [pos]
    of [buf] from the map as it stands when called.  The caller may run
    it at once (into a buffer of its own) or later, as a
    {!Log_writer.Lazy} payload rendered straight into the log writer's
    transfer buffer, provided the map is not changed in between. *)

(** {2 Summary-position encoding} *)

val sblockno_single : int
val sblockno_l2 : int
val sblockno_l1 : int -> int

val classify_sblockno : int -> [ `Data of int | `Single | `L2 | `L1 of int ]
