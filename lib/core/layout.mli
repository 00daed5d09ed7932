(** Disk layout computed from a {!Config.t} and the disk size.

    {v
    block 0        : superblock (fixed)
    1 .. c         : checkpoint region A (fixed, c = ckpt_blocks)
    1+c .. 1+2c    : checkpoint region B (fixed)
    seg_start ...  : nsegs segments of seg_blocks blocks each (the log)
    v}

    Everything else — inodes, inode map, segment usage table, directory
    log — lives inside the log, exactly as in Table 1 of the paper. *)

type t = {
  block_size : int;
  seg_blocks : int;
  max_inodes : int;
  nsegs : int;
  seg_start : int;        (** first block of segment 0 *)
  ckpt_blocks : int;      (** blocks per checkpoint region *)
  ckpt_a : int;           (** first block of region A *)
  ckpt_b : int;           (** first block of region B *)
  imap_blocks : int;      (** blocks needed by the whole inode map *)
  usage_blocks : int;     (** blocks needed by the whole usage table *)
  inode_size : int;       (** bytes per on-disk inode *)
  inodes_per_block : int;
  imap_entries_per_block : int;
  usage_entries_per_block : int;
  addrs_per_block : int;  (** pointers per indirect block *)
}

val compute : Config.t -> disk_blocks:int -> t
(** Derive the layout; validates the configuration against the disk. *)

val seg_first_block : t -> int -> int
(** [seg_first_block l s] is the disk address of the first block of
    segment [s]. *)

val seg_of_block : t -> int -> int
(** Segment containing disk block [addr]; -1 for the fixed area. *)

val max_file_blocks : t -> int
(** Largest file representable: 10 direct + single + double indirect. *)

val read_runs :
  t ->
  read:(int -> int -> bytes) ->
  int array ->
  (int -> bytes -> pos:int -> unit) ->
  unit
(** [read_runs l ~read addrs f] loads a table ({!Inode_map},
    {!Seg_usage}) whose block [i] sits at [addrs.(i)]: nil addresses
    are skipped, and each run of table blocks [i, i + 1, ...] at
    adjacent addresses is read with one [read addr n] (the [n] blocks
    from [addr]), in table order.  [f i b ~pos] then decodes table block
    [i] from byte [pos] of its run's buffer. *)

val pp : Format.formatter -> t -> unit
