(** A simulated block device.

    Stores block contents in memory, charges modelled time for every
    transfer ({!Geometry}), and keeps cumulative {!Io_stats}.  Sequential
    accesses (starting exactly where the previous transfer ended) cost no
    seek — this is the property log-structured writing exploits.

    The contents live off the OCaml heap, in one zero-on-demand buffer
    per device: blocks never written read as zeros and cost no resident
    memory, so a paper-sized device costs only what is written to it.
    Blocks move in and out by copy; no buffer passed to or returned by
    this interface aliases the medium.

    IO is split into two planes.  The data plane runs at submit time in
    submission order: contents move, crash countdowns tick.  The time
    plane is a per-device {!Io_queue}: every transfer takes a tag, and a
    C-LOOK elevator decides when the device is modelled to finish it.
    In the default [Direct] mode each submit is serviced immediately,
    reproducing synchronous timings exactly; under
    [Queued] ({!set_mode}) submits queue and overlap until awaited,
    drained, or pumped.

    Crash injection: {!plan_crash} arms a countdown of blocks after which
    the device "loses power".  The write the countdown runs out in is
    the one the cut interrupts: it lands a prefix of itself, nothing, or
    a seeded subset of its blocks, as the plan's {!cut} says, and
    {!Crashed} is raised.  All subsequent IO raises {!Crashed} until
    {!reboot}.  This is the only place in the device stack that decides
    what a power cut leaves on the medium: {!Vdev_fault} maps its crash
    modes to a {!cut} and arms the leaf.

    The countdown burns as the device commits writes.  In [Direct] mode
    persistence, countdowns and service coincide with submission, so
    crash points are independent of queueing.  In [Queued] mode the data
    plane is deferred to the elevator's commit: contents land,
    countdowns burn and cuts land in the order the device actually
    retires writes (C-LOOK), reads stay coherent by overlaying
    submitted-but-uncommitted writes, and a reboot drops whatever the
    elevator had not yet retired.  Either way the interrupted write is
    charged in full in modelled time and {!Io_stats}.

    Queued writes are staged per block, in buffers from the device's
    unbounded {!Lfs_util.Buf_pool}: the pending write holds them, and
    the commit lands and gives them back.  The pool grows to the most
    blocks ever queued at once, and a device whose queue has reached
    that depth stages a write without allocating.  A reboot or restore
    drops the pending writes with their buffers. *)

type t

(** What the write a power cut interrupts lands, when [k] blocks were
    left on the countdown. *)
type cut =
  | Prefix  (** its first [k] blocks (a torn write) *)
  | Nothing  (** none of it (a dropped write) *)
  | Subset of int
      (** [k] of its blocks, drawn pseudo-randomly from this seed (a
          reordered write) *)

exception Crashed
(** Raised by IO once an armed crash has triggered (and by the write that
    triggers it). *)

val create : Geometry.t -> t
(** A fresh device with all blocks zeroed. *)

val geometry : t -> Geometry.t
val block_size : t -> int
val nblocks : t -> int

val stats : t -> Io_stats.t
(** Live view of the cumulative statistics (mutated by every IO). *)

val set_mode : t -> Io_queue.mode -> unit
val get_mode : t -> Io_queue.mode

val read_block : t -> int -> bytes
(** [read_block d addr] returns a copy of block [addr]. *)

val write_block : t -> int -> bytes -> unit
(** [write_block d addr b] stores a copy of [b] (must be exactly one
    block) at [addr]. *)

val read_blocks : t -> int -> int -> bytes
(** [read_blocks d addr n] reads [n] contiguous blocks as one transfer
    (one seek at most). *)

val write_blocks : t -> int -> bytes -> unit
(** [write_blocks d addr b] writes [Bytes.length b / block_size]
    contiguous blocks as one transfer. *)

val zero_blocks : t -> int -> int -> unit
(** [zero_blocks d addr n] writes zeros over blocks [addr, addr+n): it
    charges modelled time, counts as a write in {!Io_stats}, and
    respects an armed {!plan_crash} exactly like {!write_blocks} (a torn
    zero clears only its writable prefix). *)

val submit_read_into :
  ?now:float -> t -> int -> int -> bytes -> pos:int -> Io_queue.ticket
(** [submit_read_into d addr n buf ~pos]: tagged read of [n] blocks into
    [buf] at byte [pos].  The data is copied in at submit time; the
    ticket resolves at the modelled completion.  [now] defaults to the
    device horizon ([Direct]) or the queued-mode clock.  Raises
    [Invalid_argument] when the blocks do not fit in [buf]. *)

val submit_read : ?now:float -> t -> int -> int -> Io_queue.ticket * bytes
(** {!submit_read_into} a fresh buffer. *)

val submit_write_from :
  ?now:float -> t -> int -> int -> bytes -> pos:int -> Io_queue.ticket
(** [submit_write_from d addr n buf ~pos]: tagged write of the [n]
    blocks at byte [pos] of [buf].  In [Direct] mode contents (and any
    crash) land at submit time; in [Queued] mode the device stages a
    copy of each block (see above), which lands when the elevator
    commits the request, and the ticket resolves at that modelled
    completion.  Either way the
    caller may reuse [buf] as soon as this returns.  Raises
    [Invalid_argument] when the blocks do not fit in [buf]. *)

val submit_write : ?now:float -> t -> int -> bytes -> Io_queue.ticket
(** {!submit_write_from} a whole buffer (a multiple of the block size). *)

val drain : t -> float
(** Service every outstanding request; returns the final horizon. *)

val pump : t -> now:float -> (int * float) list
(** See {!Io_queue.pump}. *)

val outstanding_in : t -> lo:int -> hi:int -> int
val queue_depth : t -> int

val plan_crash : ?cut:cut -> t -> after_blocks:int -> unit
(** Arm a power cut after [after_blocks] more blocks have been
    committed.  The write that reaches the count lands what [cut]
    (default [Prefix]) says of it, then the device crashes.  Raises
    [Invalid_argument] when [after_blocks] is negative. *)

val is_crashed : t -> bool

val reboot : t -> unit
(** Clear the crashed state; contents are whatever survived.  Pending
    queued requests are dropped and the head goes cold. *)

val snapshot : t -> t
(** Deep copy (contents and stats); the copy is independent and starts
    in [Direct] mode with an idle queue. *)

val restore : t -> from:t -> unit
(** Overwrite contents and stats of [t] with those of [from].  The two
    devices must have identical geometry.  Pending queued requests on
    [t] are dropped. *)

val save_file : t -> string -> unit
(** Persist contents to a raw image file. *)

val load_file : Geometry.t -> string -> t
(** Load a raw image produced by {!save_file}; the file size must match
    the geometry's capacity. *)
