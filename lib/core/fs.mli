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

type recovery_phase = {
  phase : string;
      (** ["scan"]: the log scan ({!Recovery.scan}); ["tables"]: the
          inode map and usage table loads; ["reaccount"]: incorporating
          the recovered inodes; ["replay"]: the directory-log replay and
          the orphan sweep; ["checkpoint"]: the closing checkpoint *)
  disk_s : float;  (** modelled device busy time *)
  reads : int;  (** read operations *)
}
(** One phase of a roll-forward, from the device's {!Lfs_disk.Io_stats}
    around it. *)

type recovery_report = {
  writes_replayed : int;
  inodes_recovered : int;
  data_blocks_recovered : int;
  dirops_applied : int;
  segments_scanned : int;
  blocks_verified : int;
      (** payload blocks roll-forward checksummed, of the writes at or
          above the durability watermark up to and including a torn one,
          whether the scan's walk or its check read them: a torn write
          whose last block fails its summary's [tail_sum] counts that one
          block *)
  phases : recovery_phase list;  (** the five phases, in order *)
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
(** Writing past EOF leaves a hole.  Raises {!Types.Fs_error} on a
    negative [off]. *)

val read : t -> Types.ino -> off:int -> len:int -> bytes
(** Reads past EOF are truncated; holes read as zeros.  Raises
    {!Types.Fs_error} on a negative [off] or [len]. *)

val truncate : t -> Types.ino -> len:int -> unit
(** Set the size to [len].  Shrinking to mid-block zeroes the rest of
    the new last block; extending leaves a hole.  Either way, bytes
    past the old end read back as zeros.  Truncating to zero bumps the
    file's uid version (Section 3.3). *)

val stat : t -> Types.ino -> stat
val file_size : t -> Types.ino -> int

(** {1 Paths} — ["/a/b/c"] resolved from the root by the shared
    {!Fs_intf.Paths}; [resolve] and [read_path] report absence as
    [None], like [lookup] (see {!Types}). *)

include Fs_intf.PATHS with type t := t

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
    (default [segs_per_pass]), then returns how many segments are still
    owed — [0] means "nothing to do right now", so a scheduler can stop
    polling until the next idle window.  The pass checkpoints only when
    the reusable pool is within one flush of the foreground trigger;
    otherwise its victims wait, clean, for a later checkpoint.  A step
    that finds the reusable pool below the high watermark and more than
    two segments per write head waiting (clean, not yet reusable)
    writes that checkpoint instead of cleaning.  Work done
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

val reusable_segment_count : t -> int
(** Segments the log may write next ({!Seg_pool.length}): those clean at
    the last checkpoint and not pinned.  A segment cleaned since then
    counts in {!clean_segment_count} but not here until the next
    checkpoint. *)

val reusable_segments : t -> int list
(** The segments {!reusable_segment_count} counts, ascending. *)

val active_segments : t -> int list
(** Every write head's current and reserved segment
    ({!Log_writer.active_segments}): never in the pool. *)

val space_budget : t -> Seg_pool.budget
(** The clean-segment thresholds this mount's cleaner goes by
    ({!Seg_pool.budget} of its config and layout). *)

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

val iter_files : ?flush:bool -> t -> (Types.ino -> Inode.t -> unit) -> unit
(** Visit every allocated inode, after a flush unless [~flush:false]
    (then buffered writes are not yet in the inodes' block maps). *)

val with_handle : t -> Types.ino -> (Inode.t -> Filemap.t -> 'a) -> 'a
(** Read-only access to a file's inode and block map (for fsck). *)

val cached_inos : t -> Types.ino list
(** The inos whose inode and block map are cached, in no order. *)

val block_cached : t -> Types.baddr -> bool
(** Whether the block cache holds block [addr]; no count or LRU
    change. *)

val dirty_inos : t -> Types.ino list
(** The dirty set, ascending: the cached inodes and block maps the next
    flush writes to the log.  A cached handle outside it matches its
    on-disk copy. *)

val imap_location : t -> Types.ino -> Types.Iaddr.t

val imap_ftype : t -> Types.ino -> Types.ftype option
(** The inode map's type word for the ino ({!Inode_map.ftype}). *)

val imap_block_addr : t -> int -> Types.baddr
val usage_block_addrs : t -> Types.baddr list
val segment_live_bytes : t -> int -> int

