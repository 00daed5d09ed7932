(** The paper's long-run accounting formulas — the write cost of
    Section 3.4, Table 2's cleaning statistics and Table 4's
    log-bandwidth breakdown — evaluated over a measurement window.

    A window is a registry read through {!Lfs_obs.Metrics}: either a
    {!Lfs_obs.Metrics.diff} of two snapshots taken at the window's
    boundaries, or a mounted file system's live registry ({!Fs.metrics}),
    which covers everything since mount.  The formulas read only the
    running totals [Fs] registers ([fs.log.*], [fs.cleaner.blocks_read],
    [fs.cleaner.segments_cleaned*], [fs.cleaner.victim_fill]), so they
    give the same answer on a window as on a registry reset at its
    start. *)

val write_cost : Lfs_obs.Metrics.t -> float
(** (log blocks written + cleaner reads) / new-data blocks, the paper's
    formula.  [nan] (undefined) when no new data was written — a
    cleaner-only window has no meaningful cost ratio, and pretending 1.0
    would under-report it.  Reports render [nan] as "undefined". *)

val avg_cleaned_u_nonempty : Lfs_obs.Metrics.t -> float
(** Mean utilisation of the victims the cleaner read (Table 2's "u"
    column; segments that emptied by themselves are not victims).  [0.0]
    when none was cleaned. *)

val empty_fraction : Lfs_obs.Metrics.t -> float
(** Fraction of the segments cleaned that were empty (Table 2); [0.0]
    when none was cleaned. *)

val inline_bytes_name : Types.block_kind -> string
(** The counter, under [fs.], of the bytes of a kind (inodes or dir-log
    records) written inside summary blocks rather than in blocks of
    their own. *)

val log_bandwidth_fraction :
  block_size:int -> Lfs_obs.Metrics.t -> Types.block_kind -> float
(** Fraction of all log blocks of the given kind (Table 4, "Log
    bandwidth" column).  Inode and dir-log bytes carried in summaries
    count, in blocks of [block_size], under their own kinds and not
    under the summaries'. *)
