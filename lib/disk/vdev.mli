(** A first-class block-device interface.

    Everything above the device layer ({!Lfs_core}, {!Lfs_ffs}, the
    benchmarks) programs against this record of operations instead of
    the concrete {!Disk} simulator, so devices compose: a file system
    can run over a plain disk, a RAID-0 stripe ({!Vdev_stripe}), a
    block cache ({!Vdev_cache}), a fault injector ({!Vdev_fault}), a
    tiered volume ({!Vdev_tier}), or any stack of them.

    Each layer implements one read and one write, both over a slice of
    the caller's buffer: [submit_read_into] lands blocks at a byte
    offset of it, [submit_write_from] takes them from one.  Neither
    keeps the buffer: a write's data is taken at submit, so the caller
    may reuse its buffer as soon as the call returns.  The allocating
    read and whole-buffer write fields are derived from those two, once,
    in this module.

    IO has two faces.  The synchronous [read_blocks]/[write_blocks]/
    [zero_blocks] are thin submit-then-complete wrappers: in the default
    [Direct] mode every transfer is serviced at submit time, so existing
    call sites behave exactly as before.  The tagged
    [submit_read]/[submit_write] expose the time plane: each leaf
    transfer takes a tag on its device's {!Io_queue}, a C-LOOK elevator
    orders outstanding requests, and tickets resolve at the modelled
    completion time.  Switching a stack to [Queued] ({!set_mode}) makes
    the synchronous wrappers submit without waiting, so callers overlap
    transfers and settle at barriers ({!drain}, {!await}).

    Crash plumbing: a power cut is armed on a leaf {!Disk} (via
    {!of_disk}), directly or through a {!Vdev_fault} layer, which only
    maps its crash mode to a {!cut}.  The leaf alone burns the countdown
    and decides what the interrupted write leaves, as it commits writes:
    at submit time in [Direct] mode, in C-LOOK order as the elevator
    retires them in [Queued] mode.  Once the cut fires every IO to that
    device raises {!Crashed} until [reboot].  {!Vdev_cache} and
    {!Vdev_fault} forward crash plumbing to their child.  The composites
    {!Vdev_stripe} and {!Vdev_tier} keep no crash state: their
    [plan_crash] raises [Invalid_argument], [is_crashed] reports whether
    any child crashed and [reboot] reboots every child. *)

type mode = Io_queue.mode = Direct | Queued of (unit -> float)

type cut = Disk.cut = Prefix | Nothing | Subset of int
(** What the write a power cut interrupts lands (see {!Disk.cut}). *)

type t = {
  name : string;  (** for traces and error messages, e.g. ["disk"], ["stripe(4)"] *)
  block_size : int;
  nblocks : int;
  read_blocks : int -> int -> bytes;
      (** [read_blocks addr n]: [n] contiguous blocks starting at [addr]. *)
  write_blocks : int -> bytes -> unit;
      (** [write_blocks addr b]: [Bytes.length b / block_size] contiguous
          blocks; length must be a positive multiple of [block_size].
          Every layer derives this field and [submit_write] from
          [submit_write_from] with {!whole_write_blocks} and
          {!whole_submit_write}. *)
  zero_blocks : int -> int -> unit;
      (** Write zeros: charged and crash-checked like [write_blocks]. *)
  submit_read : ?now:float -> int -> int -> Io_queue.ticket * bytes;
      (** Tagged read: data is produced at submit time, the ticket
          resolves at the modelled completion.  Every layer derives this
          field and [read_blocks] from [submit_read_into] with
          {!alloc_submit_read} and {!alloc_read_blocks}. *)
  submit_read_into : ?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket;
      (** [submit_read_into addr n buf ~pos]: the one read each layer
          implements.  The [n] blocks land in the caller's [buf] at byte
          [pos] at submit time (the data plane stays at submit); the
          ticket resolves at the modelled completion.  A layer built
          with [{ lower with ... }] must override this field, or its
          reads bypass it. *)
  submit_write : ?now:float -> int -> bytes -> Io_queue.ticket;
      (** Tagged write of a whole buffer: contents (and any armed crash)
          land at submit time, the ticket resolves at the modelled
          completion. *)
  submit_write_from : ?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket;
      (** [submit_write_from addr n buf ~pos]: the one write each layer
          implements.  It writes the [n] blocks at byte [pos] of the
          caller's [buf].  Data at submit: the layer takes what it needs
          of [buf] before returning (a queued leaf copies the slice), so
          the caller may overwrite [buf] as soon as the call returns.  A
          layer built with [{ lower with ... }] must override this
          field, or its writes bypass it. *)
  drain : unit -> float;
      (** Barrier: service every outstanding request on every leaf;
          returns the latest completion time. *)
  pump : now:float -> (int * float) list;
      (** Event-driven servicing; see {!Io_queue.pump}.  Composites
          concatenate their children's pumps in child order. *)
  outstanding_in : lo:int -> hi:int -> int;
      (** Not-yet-serviced leaf requests with tag in [\[lo, hi)]. *)
  set_mode : mode -> unit;  (** Applied to every leaf device of the stack. *)
  get_mode : unit -> mode;
  stats : unit -> Io_stats.t;
      (** Cumulative statistics of the device (a live view for single
          devices; an aggregated snapshot for composites). *)
  plan_crash : after_blocks:int -> cut:cut -> unit;
      (** As {!Disk.plan_crash}, for a leaf device *)
  is_crashed : unit -> bool;
  reboot : unit -> unit;
}

exception Crashed
(** Equal to {!Disk.Crashed}: raised by any layer once a planned crash
    has triggered, whichever device in the stack it was armed on. *)

val of_disk : Disk.t -> t
(** The canonical implementation: expose a simulated {!Disk} through the
    interface.  All operations delegate 1:1. *)

(** Convenience wrappers (derived from the record's fields). *)

val block_size : t -> int
val nblocks : t -> int

val read_block : t -> int -> bytes
(** [read_block v addr] = [v.read_blocks addr 1]. *)

val write_block : t -> int -> bytes -> unit
(** Writes exactly one block; raises [Invalid_argument] on a length
    mismatch. *)

val read_blocks : t -> int -> int -> bytes
(** Validates the result length against [n * block_size] so a
    misbehaving compositor fails loudly at the boundary. *)

val write_blocks : t -> int -> bytes -> unit
val zero_blocks : t -> int -> int -> unit

val submit_read : ?now:float -> t -> int -> int -> Io_queue.ticket * bytes
(** Validated like {!read_blocks}. *)

val submit_read_into :
  ?now:float -> t -> int -> int -> bytes -> pos:int -> Io_queue.ticket
(** Raises [Invalid_argument] unless the [n] blocks fit in [buf] from
    byte [pos].  The caller owns [buf] before and after: no layer keeps
    or aliases it. *)

val alloc_submit_read :
  block_size:int ->
  (?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket) ->
  ?now:float ->
  int ->
  int ->
  Io_queue.ticket * bytes
(** [alloc_submit_read ~block_size read_into] is the [submit_read]
    field of a layer whose [submit_read_into] is [read_into]: it reads
    into a fresh buffer. *)

val alloc_read_blocks :
  block_size:int ->
  (?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket) ->
  int ->
  int ->
  bytes
(** The matching [read_blocks] field. *)

val submit_write : ?now:float -> t -> int -> bytes -> Io_queue.ticket

val submit_write_from :
  ?now:float -> t -> int -> int -> bytes -> pos:int -> Io_queue.ticket
(** Raises [Invalid_argument] unless the [n] blocks fit in [buf] from
    byte [pos].  The caller owns [buf] before and after: no layer keeps
    or aliases it once the call returns. *)

val whole_submit_write :
  block_size:int ->
  (?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket) ->
  ?now:float ->
  int ->
  bytes ->
  Io_queue.ticket
(** [whole_submit_write ~block_size write_from] is the [submit_write]
    field of a layer whose [submit_write_from] is [write_from]: it
    writes every block of the buffer.  Raises [Invalid_argument] when
    the buffer is not a whole number of blocks. *)

val whole_write_blocks :
  block_size:int ->
  (?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket) ->
  int ->
  bytes ->
  unit
(** The matching [write_blocks] field. *)

val await : Io_queue.ticket -> float
(** Re-export of {!Io_queue.await}: force service of everything the
    ticket covers and return an upper bound on its completion time. *)

val drain : t -> float
val pump : t -> now:float -> (int * float) list
val outstanding_in : t -> lo:int -> hi:int -> int
val set_mode : t -> mode -> unit
val get_mode : t -> mode

val next_tag : unit -> int
(** Re-export of {!Io_queue.next_tag}: bracket a block of work with two
    reads to learn the tag range of every leaf transfer it submitted. *)

val stats : t -> Io_stats.t

val plan_crash : ?cut:cut -> t -> after_blocks:int -> unit
(** [cut] defaults to [Prefix]. *)

val is_crashed : t -> bool
val reboot : t -> unit

val register_metrics : ?prefix:string -> Lfs_obs.Metrics.t -> t -> unit
(** Register callback gauges [<prefix>.reads], [.writes], [.blocks_read],
    [.blocks_written], [.seeks], [.busy_s], [.queue_wait_s] and
    [.max_queue_depth], all backed by the live {!stats} of this layer.
    [prefix] defaults to ["vdev." ^ name].  Works on any layer of a
    stack — register each wrapper to see per-layer IO in one
    {!Lfs_obs.Metrics} registry. *)
