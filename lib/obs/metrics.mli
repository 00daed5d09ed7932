(** A lightweight metrics registry for the whole stack.

    Every layer — vdev wrappers, the file system, the cleaner, the
    checkpoint machinery — registers its instruments into one [t] owned
    by the mounted file system, so benchmarks and tools read performance
    numbers off a single registry instead of ad-hoc printfs.

    Four instrument kinds:

    - {e counters}: monotonically increasing integers (cleaner passes,
      checkpoints taken);
    - {e gauges}: point-in-time floats, either set explicitly or backed
      by a callback sampled at read time (live [Io_stats] fields, cache
      hit rate, the running write cost);
    - {e histograms}: summaries of observed samples (modelled op latency,
      checkpoint duration/blocks).  Samples land in log-spaced buckets
      backed by {!Lfs_util.Histogram}, and the summary tracks count, sum,
      mean, min and max;
    - {e dists}: distributions over [\[0, 1\]] (the victim segment
      utilisation of Figure 6), stored directly in a
      {!Lfs_util.Histogram}.

    Time is the {e modelled} disk time of the vdev layer, not wall-clock:
    {!span} reads a caller-supplied clock (typically
    [fun () -> (Vdev.stats dev).Io_stats.busy_s]) before and after the
    wrapped operation.

    Registration is get-or-create by name: asking twice for the same
    name and kind returns the same instrument; asking for an existing
    name with a different kind — or re-registering a callback gauge —
    raises [Invalid_argument].  Reports preserve registration order.

    A [t] is a {e view} onto a shared underlying registry.  {!scoped}
    derives a view that prepends a prefix to every name registered or
    looked up through it, so several file-system instances (the shard
    router's N mounts, each under [shard<i>.]) share one process-wide
    registry without colliding. *)

type t
type counter
type gauge
type histogram
type dist

val create : unit -> t

val scoped : t -> string -> t
(** [scoped t p] is a view of [t]'s underlying registry in which every
    name is prefixed with [p] (prefixes compose:
    [scoped (scoped t "a.") "b."] prepends ["a.b."]).  Registration
    order, snapshots and reports stay global to the shared registry. *)

(** {1 Instruments} *)

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
(** An explicitly-set gauge; reads as [nan] ("undefined") until {!set}. *)

val set : gauge -> float -> unit

val gauge_fn : t -> string -> (unit -> float) -> unit
(** [gauge_fn t name f] registers a gauge whose value is [f ()] at each
    report/snapshot.  Registering the same name twice raises
    [Invalid_argument]: a duplicate means two live instances share one
    registry and the second would silently shadow the first — scope the
    instances apart with {!scoped} instead. *)

val histogram : ?lo:float -> ?hi:float -> ?bins:int -> t -> string -> histogram
(** Log-spaced buckets covering [\[lo, hi\]] (defaults [1e-6], [1e4],
    [40] bins); samples outside the range clamp to the edge buckets but
    still count exactly in the summary statistics. *)

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** [percentile h q] estimates the [q]-quantile ([q] in [\[0, 1\]]) of the
    observed samples from the log-spaced buckets, interpolating within
    the bucket that crosses [q] and clamping into the exact
    [\[min, max\]] observed so far.  [nan] when the histogram is empty;
    monotone in [q] by construction.  The summary value exposes the
    common tail quantiles as [p50]/[p95]/[p99]. *)

val span : histogram -> clock:(unit -> float) -> (unit -> 'a) -> 'a
(** [span h ~clock f] runs [f ()] and records [clock () - clock ()] taken
    across it into [h] — also when [f] raises, so crash-injection runs
    still account the partial operation. *)

val dist : ?bins:int -> t -> string -> dist
(** A distribution over [\[0, 1\]] (default [20] bins). *)

val dist_add : ?weight:float -> dist -> float -> unit

(** {1 Reading} *)

type value =
  | Int of int  (** counter *)
  | Float of float  (** gauge; [nan] means undefined *)
  | Summary of {
      count : int;
      sum : float;
      mean : float;
      vmin : float;
      vmax : float;
      p50 : float;
      p95 : float;
      p99 : float;
    }
      (** histogram; everything but [count]/[sum] is [nan] when
          [count = 0].  Percentiles come from {!percentile}. *)
  | Series of { total : float; series : (float * float) array }
      (** dist, as [(bin center, fraction)] pairs *)

val value : t -> string -> value option
(** Current value of the named instrument (callback gauges are sampled). *)

val float_value : t -> string -> float
(** Convenience: the value as a float ([Int] coerced; [Summary] is its
    mean; [Series] its total).  [nan] if the name is unknown. *)

val snapshot : t -> (string * value) list
(** All instruments of the shared registry (every scope) in
    registration order, under their full prefixed names. *)

(** {1 Windows}

    Instruments are never reset: they count from registration.  A
    measurement window is the difference of two snapshots taken at its
    boundaries. *)

val diff : (string * value) list -> (string * value) list -> t
(** [diff before after] is a frozen registry holding, for each
    instrument of [after], what it added since [before] (an instrument
    missing from [before] counts from zero): counters and gauge values
    are subtracted, histograms keep the difference of their [count] and
    [sum] (their [mean] is the window's own; extrema and percentiles are
    [nan]), dists the difference of their [total] (no bins).  Read it
    like any registry ({!value}, {!float_value}, {!report}, {!scoped});
    registering into it raises [Invalid_argument] on a name it holds.
    A gauge that is not a running total (a ratio, a level) diffs to a
    meaningless number: derive such quantities from the window's
    counters instead. *)

(** {1 Reports} *)

val report : ?title:string -> t -> string
(** Text report: box-drawn tables via {!Lfs_util.Table}.  Undefined
    values print as ["undefined"]. *)

val to_json : t -> string
(** One JSON object keyed by instrument name.  Counters and gauges are
    numbers, histograms [{count, sum, mean, min, max}], dists
    [{total, bins: [[center, fraction], ...]}].  NaN and infinities
    render as [null] (JSON has no NaN). *)

val validate : t -> (string * string) list
(** [(name, problem)] pairs for values that should never occur in a
    healthy registry: negative counters or gauges, NaN/infinite gauges,
    non-finite or negative histogram summaries (empty histograms are
    fine), non-monotone percentiles ([p50 <= p95 <= p99], all inside
    [\[min, max\]]), NaN dist totals.  Used by [lfs_tool stats --check]
    and [lfs_tool serve --check]. *)
