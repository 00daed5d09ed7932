(** A simulated block device.

    Stores block contents in memory, charges modelled time for every
    transfer ({!Geometry}), and keeps cumulative {!Io_stats}.  Sequential
    accesses (starting exactly where the previous transfer ended) cost no
    seek — this is the property log-structured writing exploits.

    IO is split into two planes.  The data plane runs at submit time in
    submission order: contents move, crash countdowns tick.  The time
    plane is a per-device {!Io_queue}: every transfer takes a tag, and a
    C-LOOK elevator decides when the device is modelled to finish it.
    In the default [Direct] mode each submit is serviced immediately,
    reproducing synchronous timings exactly; under
    [Queued] ({!set_mode}) submits queue and overlap until awaited,
    drained, or pumped.

    Crash injection: {!plan_crash} arms a countdown of blocks after which
    the device "loses power": the offending write is torn (a prefix may
    reach the medium) and {!Crashed} is raised.  All subsequent IO raises
    {!Crashed} until {!reboot}.  This lets tests cut power at any point
    of a checkpoint or segment write and exercise recovery.

    In [Direct] mode, persistence, countdowns and service coincide with
    submission, so crash points are independent of queueing.  In
    [Queued] mode the data plane is deferred to the elevator's commit:
    contents land, countdowns burn and crashes tear in the order the
    device actually retires writes (C-LOOK), reads stay coherent by
    overlaying submitted-but-uncommitted writes, and a reboot drops
    whatever the elevator had not yet retired. *)

type t

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

val submit_read : ?now:float -> t -> int -> int -> Io_queue.ticket * bytes
(** Tagged read: the data is copied out at submit time; the ticket
    resolves at the modelled completion.  [now] defaults to the device
    horizon ([Direct]) or the queued-mode clock. *)

val submit_write : ?now:float -> t -> int -> bytes -> Io_queue.ticket
(** Tagged write.  In [Direct] mode contents (and any crash) land at
    submit time; in [Queued] mode they land when the elevator commits
    the request, and the ticket resolves at that modelled completion. *)

val drain : t -> float
(** Service every outstanding request; returns the final horizon. *)

val pump : t -> now:float -> (int * float) list
(** See {!Io_queue.pump}. *)

val outstanding_in : t -> lo:int -> hi:int -> int
val queue_depth : t -> int

val plan_crash : t -> after_blocks:int -> unit
(** Arm a power cut after [after_blocks] more blocks have been written.
    The triggering write persists only its first [after_blocks] remaining
    blocks (a torn write). *)

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
