(** Sprite LFS: the public file-system API.

    All modifications are buffered in the file cache and written to disk
    sequentially in large log writes ({!Log_writer}); the segment cleaner
    ({!Cleaner} policies) regenerates empty segments; checkpoints plus
    roll-forward ({!Recovery}) provide crash recovery.

    Time inside the file system is a logical clock that advances by one
    tick per mutating operation, which keeps every experiment
    deterministic. *)

type t

type stat = {
  st_ino : Types.ino;
  st_ftype : Types.ftype;
  st_size : int;
  st_nlink : int;
  st_mtime : float;
  st_atime : float;
  st_version : int;
}

(** {1 Lifecycle} *)

val format : Lfs_disk.Vdev.t -> Config.t -> unit
(** Create a fresh file system on the device: superblock, empty inode
    map and usage table, root directory, initial checkpoint. *)

val mount :
  ?config:Config.t ->
  ?metrics:Lfs_obs.Metrics.t ->
  ?tier:Lfs_disk.Vdev_tier.t ->
  Lfs_disk.Vdev.t ->
  t
(** Load the latest checkpoint and discard anything after it (how the
    paper's production systems rebooted).  [config] overrides mount-time
    policies (cleaning/grouping/thresholds); geometry always comes from
    the superblock.  [metrics] supplies the registry (view) this mount
    registers its instruments into — pass a {!Lfs_obs.Metrics.scoped}
    view when several mounts share one registry, or omit it for a fresh
    private registry.  [tier] hands over the tiered volume the device
    exports (chunks must be this layout's segments 1:1, or
    [Invalid_argument] is raised); it enables the demotion/promotion
    regimes and tier verification in {!Fsck}.  Raises {!Types.Corrupt}
    if no valid checkpoint. *)

type recovery_report = {
  writes_replayed : int;
  inodes_recovered : int;
  data_blocks_recovered : int;
  dirops_applied : int;
  segments_scanned : int;
}

val recover :
  ?config:Config.t ->
  ?metrics:Lfs_obs.Metrics.t ->
  ?tier:Lfs_disk.Vdev_tier.t ->
  Lfs_disk.Vdev.t ->
  t * recovery_report
(** Mount, then roll the log forward from the checkpoint: reprocess
    recovered inodes, adjust segment utilisations, replay the directory
    operation log, and write a fresh checkpoint.  [metrics] as in
    {!mount}. *)

val unmount : t -> unit
(** Flush everything and checkpoint.  The [t] must not be used after. *)

(** {1 Namespace operations} *)

val root : Types.ino

val create : t -> dir:Types.ino -> string -> Types.ino
(** New empty regular file.  Raises {!Types.Fs_error} if the name exists
    or [dir] is not a directory. *)

val mkdir : t -> dir:Types.ino -> string -> Types.ino
val lookup : t -> dir:Types.ino -> string -> Types.ino option
val readdir : t -> Types.ino -> (string * Types.ino) list

val link : t -> dir:Types.ino -> string -> Types.ino -> unit
(** Hard link to a regular file. *)

val unlink : t -> dir:Types.ino -> string -> unit
(** Remove a name; the file dies when its last link goes.  Refuses to
    unlink directories (use {!rmdir}). *)

val rmdir : t -> dir:Types.ino -> string -> unit
(** Remove an empty directory. *)

val rename :
  t -> odir:Types.ino -> string -> ndir:Types.ino -> string -> unit
(** Atomic rename; an existing target (non-directory) is replaced. *)

(** {1 File IO} *)

val write : t -> Types.ino -> off:int -> bytes -> unit
val read : t -> Types.ino -> off:int -> len:int -> bytes
(** Reads past EOF are truncated; holes read as zeros. *)

val truncate : t -> Types.ino -> len:int -> unit
(** Truncating to zero bumps the file's uid version (Section 3.3). *)

val stat : t -> Types.ino -> stat
val file_size : t -> Types.ino -> int

(** {1 Paths} — convenience wrappers resolving ["/a/b/c"] from the root *)

val resolve : t -> string -> Types.ino option
val create_path : t -> string -> Types.ino
val mkdir_path : t -> string -> Types.ino
val write_path : t -> string -> bytes -> unit
(** Create-or-replace the file's entire contents. *)

val read_path : t -> string -> bytes option
(** Whole-file read; [None] when no file lives at the path (matching
    [lookup]/[resolve]: absence is an option, exceptions mean
    corruption or misuse — see {!Types}). *)

(** {1 Durability and maintenance} *)

val sync : t -> unit
(** Flush the file cache to the log (data reaches disk; metadata
    locations become durable at the next checkpoint). *)

val checkpoint : t -> unit
(** Flush and write a checkpoint region. *)

val on_checkpoint : t -> (unit -> unit) -> unit
(** Register a callback invoked after every completed checkpoint,
    including the automatic ones taken by the cleaner and the
    interval/volume triggers.  {!Nvram_fs} uses it to discard its
    journal exactly when the journalled operations become durable. *)

val on_log_batch : t -> (blocks:int -> unit) -> unit
(** Register a callback invoked after every physical log batch write
    with its total block count (payload plus summary).  The serving
    layer uses it to measure how many blocks each shared group-commit
    flush carries. *)

val pending_log_blocks : t -> int
(** Log blocks queued in the writer but not yet on disk — the part of
    the current batch a {!sync} would flush. *)

val clean : t -> unit
(** Run cleaning passes until the clean-segment target is reached;
    normally automatic, exposed for experiments.  Invocations triggered
    by the write path stall their caller for the whole duration — the
    stall is recorded in the [fs.cleaner.stall_s] histogram. *)

val clean_step : ?max_segments:int -> t -> int
(** One budgeted background cleaning pass, meant to be called from idle
    time (the paper's "clean at night or during idle periods", §4).
    Paced by the [bg_clean_start]/[bg_clean_stop] watermarks with
    hysteresis: a step only does work once the clean pool has dropped
    below the low watermark, and steps keep reporting work until the
    pool refills to the high one.  Cleans at most [max_segments] victims
    (default [segs_per_pass]) and checkpoints, then returns how many
    segments are still owed — [0] means "nothing to do right now", so a
    scheduler can stop polling until the next idle window.  Work done
    here is attributed to [fs.cleaner.bg.*] instead of [fs.cleaner.fg.*]
    and never shows up in [fs.cleaner.stall_s]. *)

(** On a tiered volume an idle step that owes no compaction work instead
    spends the window demoting cold segments (see {!demote_step}); on a
    flat volume the behaviour is unchanged. *)

val demote_step : ?max_segments:int -> t -> int
(** One demotion pass (tiered volumes; [0] and a no-op otherwise): pick
    up to [max_segments] (default [segs_per_pass]) cold, high-utilisation
    fast-tier segments at least [demote_age_s] old — cost-benefit
    inverted, because a full cold segment frees a whole fast segment for
    one sequential copy while compacting it would copy everything for
    nothing — and migrate them to the slow tier.  Bounded by the slow
    tier's free-chunk pool; returns the number of eligible candidates
    still waiting (0 = rest, either done or the slow tier is full).
    Block addresses are tier-logical, so no FS metadata changes and no
    checkpoint is taken; crash consistency is the placement map's
    (see {!Lfs_disk.Vdev_tier}).  Attributed to [fs.cleaner.demote.*]. *)

val tier : t -> Lfs_disk.Vdev_tier.t option
(** The tiered volume handed to {!mount}/{!recover}, if any. *)

val clean_segment_count : t -> int

val drop_caches : t -> unit
(** Flush, then forget cached inodes, block maps and directory contents,
    so subsequent operations hit the disk (cold-cache benchmark
    phases). *)

(** {1 Introspection for benchmarks, fsck and tests} *)

val devices : t -> Lfs_disk.Vdev.t list
(** Singleton: the device this mount sits on ({!Fs_intf.S.devices}). *)

val layout : t -> Layout.t
val config : t -> Config.t

val metrics : t -> Lfs_obs.Metrics.t
(** The observability registry of this mount.  Every layer is already
    registered: per-vdev-layer IO gauges (the handed-in device and the
    block cache, via {!Lfs_disk.Vdev.register_metrics} /
    {!Lfs_disk.Vdev_cache.register_metrics}), per-operation modelled
    latency histograms ([fs.op.<op>.busy_s]), checkpoint count, duration
    and blocks ([fs.checkpoint.*]), cleaner passes and the live victim
    utilisation distribution ([fs.cleaner.*], Fig 6), and the long-run
    accounting: log blocks by kind and origin ([fs.log.*]), cleaner reads
    and segments cleaned, with [fs.write_cost] derived from them.  It is
    the only store of these counts; they run from mount and are never
    reset, so a measured phase is a {!Lfs_obs.Metrics.diff} of snapshots
    taken at its boundaries, read through {!Fs_stats}.  Callers may
    register additional layers of their own stack into the same
    registry. *)

val utilization : t -> float
(** Live bytes / log capacity (disk capacity utilisation). *)

val segment_histogram : t -> bins:int -> Lfs_util.Histogram.t
(** Per-segment utilisation distribution, excluding the segment being
    written (Figures 5-6, 10). *)

type live_breakdown = { by_kind : (Types.block_kind * int) list; total_bytes : int }

val live_breakdown : t -> live_breakdown
(** Walk all live structures and attribute bytes by kind (Table 4's
    "Live data" column).  Flushes first. *)

val iter_files : t -> (Types.ino -> Inode.t -> unit) -> unit
(** Visit every allocated inode (flushed state). *)

val with_handle : t -> Types.ino -> (Inode.t -> Filemap.t -> 'a) -> 'a
(** Read-only access to a file's inode and block map (for fsck). *)

val imap_location : t -> Types.ino -> Types.Iaddr.t
val imap_block_addr : t -> int -> Types.baddr
val usage_block_addrs : t -> Types.baddr list
val segment_live_bytes : t -> int -> int
