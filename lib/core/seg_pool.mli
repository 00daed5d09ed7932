(** The clean-segment pool: which segments the log may write next.

    A segment is reusable once it was clean at the last checkpoint — the
    checkpoint then no longer references its old contents, so a crash
    cannot need them (Section 4.1).  The pool holds that set, refreshed
    only at checkpoints, so a segment freed since is not handed out until
    the next one.  It also owns the {e pinned} rule that keeps segments
    away from every consumer — the log's picks, the cleaner's and the
    demoter's candidates, and tier swap donors: a segment is pinned
    while some write head fills it or holds it reserved, or while it is a
    victim of the cleaning pass in progress. *)

type t

val create : Lfs_disk.Vdev_tier.t option -> t
(** An empty pool.  Given a tiered volume (chunks = segments), picks
    prefer segments placed on the fast tier. *)

val length : t -> int
(** Segments the pool can still hand out. *)

val pinned : t -> active:int list -> int -> bool
(** [pinned t ~active s]: [s] is among [active] (every head's current and
    reserved segment, {!Log_writer.active_segments}) or a victim of the
    pass in progress. *)

val refresh : t -> Seg_usage.t -> active:int list -> unit
(** At a checkpoint: the pool becomes every clean segment that is not
    pinned. *)

val withhold : t -> (int -> bool) -> unit
(** Drop the segments a predicate names until the next {!refresh}
    (roll-forward: segments holding post-checkpoint writes look clean in
    the checkpoint's usage table). *)

val pick : t -> exclude:int list -> int
(** Take the lowest-numbered segment that is not pinned ([exclude] plays
    [active]) — on a tiered volume the lowest already on the fast tier,
    else the lowest of all, re-pointed at a free fast chunk when one
    exists (its contents are dead, so nothing is copied).  Raises
    {!Types.Fs_error} when the pool has none. *)

val donors : t -> active:int list -> Lfs_disk.Vdev_tier.tier -> int list
(** Pool segments on the given tier that are not pinned, ascending: the
    dead chunks a tier swap may overwrite.  Empty without a tier. *)

val room : t -> active:int list -> Lfs_disk.Vdev_tier.tier -> int
(** Segments {!move} can still place on the given tier: its free
    physical chunks plus its {!donors}.  [0] without a tier. *)

val move :
  t -> active:int list -> reserve:int -> int -> target:Lfs_disk.Vdev_tier.tier -> bool
(** [move t ~active ~reserve seg ~target] re-places live segment [seg]'s
    chunk on [target]: into a free physical chunk there, else by swapping
    with the lowest {!donors} segment — only while [reserve] more donors
    would remain, so a caller can keep clean segments on [target] for
    the write head.  The donor surfaces on [seg]'s old tier as a clean
    segment.  [false] when neither way is open, and without a tier. *)

val cleaning : t -> int list -> (unit -> 'a) -> 'a
(** [cleaning t victims f] runs [f] with [victims] pinned as the pass in
    progress, and unpins them when [f] returns or raises. *)

val is_victim : t -> int -> bool
(** [s] is a victim of the pass in progress. *)
