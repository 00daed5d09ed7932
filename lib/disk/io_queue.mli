(** Per-device request queue in the modelled-time domain.

    Splits every IO into two planes.  The {e data plane} executes at
    submit time, in submission order: block contents move, crash
    countdowns tick, caches stay coherent — so torn-write enumeration
    and replay determinism are untouched by scheduling.  The {e time
    plane} is this queue: each submit takes a globally monotonic tag,
    outstanding requests are ordered by a C-LOOK elevator, and the
    device services one request at a time with
    [service start = max(previous completion, submit time)].

    In {!mode} [Direct] (the default for every device) a submit is
    serviced immediately, which reproduces the historical synchronous
    timings exactly; [Queued] defers service to {!await}, {!drain} and
    {!pump}, letting queued requests overlap.

    {b Two service classes.}  Every request is {e foreground} except a
    read submitted inside {!background} on a [Queued] device, which is
    {e background}.  A background read has two rules:
    - {e foreground first}: the elevator serves it only while no
      foreground request is outstanding on its queue;
    - {e slices}: it is served {!slice_blocks} at a time, and its tag
      stays outstanding until the last slice.  A slice that continues
      the same read, served right after the previous one, pays only its
      blocks' transfer time (no reposition, no second per-IO overhead),
      so a read nothing interrupts costs what one transfer of all its
      blocks costs; a read that foreground IO preempted pays a
      reposition when it resumes.
    So a foreground request that arrives during a long background read
    waits at most one slice.

    Writes are never demoted, whatever the scope: the log's writes keep
    their elevator order, so no log write retires behind a later one
    and leaves a hole that roll-forward would stop at.  A background
    read is thus no place for data a write is about to carry: the
    cleaner, whose idle-time victim reads are the background class's
    one user, relocates a victim only on a later step, once its reads
    have completed ({!reads_background}). *)

type t

type ticket =
  | Done  (** completed at submit time (e.g. a cache hit) *)
  | Tag of t * int  (** one leaf transfer on one queue *)
  | Join of ticket list  (** completes when every member completes *)

type mode =
  | Direct  (** every submit is serviced immediately (synchronous timing) *)
  | Queued of (unit -> float)
      (** submits default their arrival time to the given clock and wait
          in the queue for {!await}/{!drain}/{!pump} *)

val next_tag : unit -> int
(** The tag the next submit (on any queue) will take.  Two reads around
    a block of work bracket every leaf transfer it submitted. *)

val background : (unit -> 'a) -> 'a
(** [background f] runs [f] with every read it submits to a [Queued]
    device in the background class (restored on return or exception).
    A global scope, like the tag counter: the serving engine wraps its
    idle cleaner step in it. *)

val metered : (float -> unit) -> (unit -> 'a) -> 'a
(** [metered report f] runs [f] and then calls [report] once with the
    device time served to the requests [f] submitted, on any queue —
    their own service time, not whatever else the elevator retires
    meanwhile.  Under [Direct] mode every request is served at submit,
    so [report] runs as [f] returns; under [Queued] mode it runs when
    the last of them is served, inside whichever {!await}, {!drain} or
    {!pump} serves it.  If [f] raises, or a {!reset} drops a request,
    [report] never runs.  Scopes nest: a request is metered by the
    innermost one only. *)

val reads_background : mode -> bool
(** Whether a read submitted now to a device in this mode takes the
    background class: inside {!background} on a [Queued] device. *)

val slice_blocks : int
(** The most blocks of a background read served at once (32, 128 KB:
    about 100 ms of transfer on the Wren IV geometry). *)

val create :
  service:(head:int -> addr:int -> nblocks:int -> float * bool) ->
  transfer:(nblocks:int -> float) ->
  stats:Io_stats.t ->
  t
(** [service] returns the modelled duration of one transfer and whether
    it repositioned the head; [transfer] its media-transfer part alone,
    what a continued slice of a background read costs.  The queue
    accumulates [busy_s], [seeks], [queue_wait_s] and [max_queue_depth]
    into [stats]. *)

val submit :
  ?on_commit:(unit -> unit) ->
  ?read:bool ->
  t ->
  now:float ->
  addr:int ->
  nblocks:int ->
  int
(** Enqueue a request that arrived at [now]; returns its tag.  [read]
    (default [false]) marks a read, which takes the background class
    inside {!background} on a [Queued] queue.
    [on_commit] runs when the elevator services the request — the hook
    by which a device defers its data plane (payload persistence, crash
    countdowns) to commit order under [Queued] mode.  Exceptions raised
    by the hook (a tripped crash countdown) propagate out of whichever
    call forced the service ({!await}, {!drain} or {!pump}). *)

val await : ticket -> float
(** Force service (in elevator order) of everything the ticket covers.
    Returns an upper bound on its completion time — exact when the
    awaited request was serviced last, the queue horizon otherwise.
    [Done] yields [neg_infinity]. *)

val drain : t -> float
(** Service every outstanding request; returns the final horizon.  The
    sync-barrier primitive. *)

val pump : t -> now:float -> (int * float) list
(** If the device is idle at [now], commit the elevator's next pick: a
    whole foreground request, or one slice of a background read.
    Returns every [(tag, finish)] committed in [Queued] mode since the
    last pump, oldest first, so the caller can schedule completion
    events — one per slice for a background read, so a caller that
    ticks at each finish ticks at every slice boundary, where a
    foreground arrival can take the device; the tag's last finish is
    its completion.  Services committed in [Direct] mode are not recorded: no
    one pumps a Direct queue. *)

val outstanding_in : t -> lo:int -> hi:int -> int
(** Number of not-yet-serviced requests with tag in [\[lo, hi)]; a
    partly served background read still counts. *)

val completed : ticket -> bool
(** Whether everything the ticket covers has been serviced, without
    forcing any service: [Done] always, a [Join] when all its members
    are.  A serviced write has reached the medium. *)

val mode : t -> mode
val set_mode : t -> mode -> unit
val head : t -> int
val set_head : t -> int -> unit
val horizon : t -> float
(** Completion time of the most recently serviced request. *)

val set_horizon : t -> float -> unit
val depth : t -> int
val reset : t -> unit
(** Forget outstanding and unacknowledged requests (reboot). *)
