(** The clean-segment pool: which segments the log may write next.

    A segment is reusable once it was clean at the last checkpoint — the
    checkpoint then no longer references its old contents, so a crash
    cannot need them (Section 4.1).  The pool holds that set, refreshed
    only at checkpoints, so a segment freed since is not handed out until
    the next one.  It also owns the {e pinned} rule that keeps segments
    away from every consumer — the log's picks, the cleaner's and the
    demoter's candidates, and tier swap donors: a segment is pinned
    while some write head fills it or holds it reserved, or while it is a
    victim of the cleaning pass in progress.  And it states the space
    budget: every clean-segment threshold the cleaner, the checkpoint
    and the idle restock go by. *)

type t

val create : Lfs_disk.Vdev_tier.t option -> t
(** An empty pool.  Given a tiered volume (chunks = segments), picks
    prefer segments placed on the fast tier. *)

val length : t -> int
(** Segments the pool can still hand out. *)

val segments : t -> int list
(** Those segments, ascending. *)

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

(** {1 The space budget}

    The clean-segment thresholds of one mount, built once from its
    config and layout.  Two counts are compared against them: the usage
    table's clean count ({!Seg_usage.clean_count}, which includes
    segments cleaned since the last checkpoint and the heads'
    reservations) and the pool's {!length} (what the log can still be
    handed).  Each rule reads one of them, as below. *)

type budget = {
  flush_need : int;
      (** segments one write-buffer flush may consume: three log blocks
          per buffered block, rounded up to whole segments *)
  head_extra : int;
      (** [log_heads - 1]: the standing reservations of the heads beyond
          the first *)
  reserve : int;
      (** [flush_need + 2 + head_extra]: the floor of [fg_start] *)
  fg_start : int;
      (** foreground cleaning starts when {!length} falls below it:
          [max (clean_start + head_extra) reserve] *)
  fg_stop : int;
      (** foreground passes run while the clean count is below it:
          [max (clean_stop + head_extra) (fg_start + 2)] *)
  bg_start : int;
      (** the background latch engages when the clean count falls below
          it: [max bg_clean_start (fg_start + 1)] *)
  bg_stop : int;
      (** the background latch holds until the clean count reaches it:
          [max bg_clean_stop (bg_start + 2)]; an idle restock needs
          {!length} below it *)
  greedy_below : int;
      (** a pass falls back to the greedy policy when {!length} is below
          it ([flush_need]) *)
  checkpoint_below : int;
      (** a background pass checkpoints when {!length} is below it
          ([fg_start + flush_need]) *)
  restock_gap : int;
      (** an idle step checkpoints instead of cleaning when the clean
          count exceeds {!length} by more than this ([2 * log_heads]) *)
}

val budget : Config.t -> Layout.t -> budget

val relocation_cost : float -> float
(** Segments of clean space a pass spends relocating a victim of
    utilisation [u]: [u * 1.3 + 0.05], the 30% covering the inode and
    indirect blocks rewritten alongside its data. *)

val pass_budget : t -> float
(** Segments a pass may spend on relocation: {!length} less one for the
    checkpoint, and at least 0.7. *)

val affordable : t -> Seg_usage.t -> int list -> int list
(** The victims a pass can afford, in their order: each is kept when its
    {!relocation_cost} still fits within {!pass_budget} beside those
    kept before it. *)
