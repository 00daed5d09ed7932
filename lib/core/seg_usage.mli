(** The segment usage table (Section 3.6).

    For each segment: the number of live bytes and the most recent
    modified time of any block in the segment.  These two values drive
    the cost-benefit cleaning policy.  Blocks of the table are written to
    the log; their addresses are recorded in the checkpoint region.

    A segment whose live count reaches zero can be reused without
    cleaning — Sprite LFS has neither a free list nor a bitmap. *)

type t

val create : Layout.t -> t
(** All segments empty (zero live bytes, zero mtime). *)

val load :
  Layout.t ->
  read:(Types.baddr -> int -> bytes) ->
  block_addrs:Types.baddr array ->
  t
(** Rebuild from the blocks recorded in a checkpoint, reading each run of
    adjacent blocks with one [read addr n] ({!Layout.read_runs}). *)

val nsegs : t -> int

val live_bytes : t -> int -> int
val mtime : t -> int -> float

val utilization : t -> int -> float
(** live bytes / segment capacity, in [\[0, 1\]]. *)

val add_live : t -> int -> bytes:int -> mtime:float -> unit
(** Blocks written into the segment: raise the live count and refresh the
    segment's youngest-data time. *)

val kill : t -> int -> bytes:int -> unit
(** Blocks overwritten or deleted: drop the live count. *)

val set_clean : t -> int -> unit
(** Force a segment empty (after cleaning). *)

val is_clean : t -> int -> bool
val clean_count : t -> int

val clean_segments : t -> int list
(** All currently-clean segments, ascending. *)

val dirty_segments : t -> int list
(** Segments with live data, ascending. *)

val block_addr : t -> int -> Types.baddr
val set_block_addr : t -> int -> Types.baddr -> unit
val nblocks : t -> int
val clear_block_dirty : t -> int -> unit
val dirty_blocks : t -> int list
val encode_block_into : t -> int -> bytes -> pos:int -> unit
(** Serialise table block [i] (for writing to the log) into the block at
    byte [pos] of the buffer, zeroing it first. *)

val utilization_histogram : t -> bins:int -> exclude:(int -> bool) -> Lfs_util.Histogram.t
(** Distribution of per-segment utilisation (Figures 5, 6, 10), skipping
    segments for which [exclude] is true (e.g. the segment being written). *)
