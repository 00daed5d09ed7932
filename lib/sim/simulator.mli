(** The file-system simulator of Section 3.5.

    The model is deliberately harsh (the paper says so): a fixed
    population of single-block 4 KB files; at every step one file is
    overwritten in its entirety according to an access pattern; no reads.
    Overall disk capacity utilisation is exactly [nfiles / capacity] and
    stays constant.  The simulator runs the writer until clean segments
    are exhausted, then cleans segments back up to a threshold, exactly
    as described in the paper, and reports steady-state write cost and
    the segment-utilisation distribution seen by the cleaner
    (Figures 4-7). *)

(** The file system's cleaning policies ({!Lfs_core.Cleaner.select}
    picks victims, {!Lfs_core.Cleaner.order_for_grouping} orders their
    live blocks); a segment's age is the time since it was last
    written, a block's the time since it was.  [Random_victim] is not
    simulated: {!run} raises [Invalid_argument] for it. *)
type policy = {
  selection : Lfs_core.Config.cleaning_policy;
  grouping : Lfs_core.Config.grouping_policy;
}

type params = {
  nsegs : int;             (** segments on the simulated disk *)
  blocks_per_seg : int;    (** 4 KB file slots per segment *)
  utilization : float;     (** overall disk capacity utilisation *)
  pattern : Access.t;
  policy : policy;
  clean_low : int;         (** start cleaning below this many clean segs *)
  clean_high : int;        (** clean until this many clean segs *)
  segs_per_pass : int;     (** victims selected per pass *)
  warmup_writes : int;     (** steps discarded before measurement *)
  measured_writes : int;
  seed : int;
}

val default_params : params
(** 256 segments x 256 blocks (the paper's 1 MB segments of 4 KB files),
    75% utilisation, uniform access, greedy in-order cleaning, and a
    small clean-segment reserve — the calibration that reproduces the
    published curves. *)

type result = {
  write_cost : float;
      (** (new + cleaner reads + cleaner writes) / new, whole-segment
          reads, empty segments not read *)
  avg_cleaned_u : float;   (** mean utilisation of segments cleaned *)
  segments_cleaned : int;
  cleaner_histogram : Lfs_util.Histogram.t;
      (** utilisations of all cleanable segments, sampled every time
          cleaning is initiated — the distributions of Figures 5-6 *)
  final_histogram : Lfs_util.Histogram.t;
      (** utilisation snapshot at the end of the run *)
}

val run : params -> result

val sweep_utilization :
  ?points:int -> ?lo:float -> ?hi:float -> params -> (float * result) list
(** Run at several overall utilisations (x-axis of Figures 4 and 7). *)
