(** Segment-selection policies (Section 3.4, policy question 3).

    Pure functions from segment statistics to a cleaning order; the
    mechanical part of cleaning (reading victims, identifying live data,
    rewriting it) lives in the cleaner layer under {!Fs}. *)

type candidate = {
  seg : int;
  u : float;    (** utilisation: live bytes / capacity, in [\[0,1\]] *)
  age : float;  (** now - youngest data mtime; never negative *)
}

val benefit_cost : candidate -> float
(** The paper's cost-benefit ratio [(1-u)*age / (1+u)]: free space
    generated times how long it is expected to stay free, over the cost
    of reading the segment and rewriting its live data. *)

val select :
  policy:Config.cleaning_policy ->
  ?rand:(int -> int) ->
  candidates:candidate list ->
  count:int ->
  unit ->
  int list
(** Pick up to [count] victims.  [rand] (uniform in [\[0,n)]) is required
    by the [Random_victim] ablation policy and ignored otherwise.
    Candidates with [u = 0] are always taken first — a segment with no
    live blocks need not even be read (Section 3.4). *)

val select_demotion :
  candidates:candidate list -> min_age:float -> count:int -> int list
(** Pick up to [count] demotion victims for a tiered volume: dirty
    segments at least [min_age] old, ranked by [u * age] descending —
    cost-benefit {e inverted}, because the best segment to move to the
    slow tier is cold {e and} full (compacting it would copy nearly
    everything for nearly no space, while demoting it frees a whole
    fast-tier segment with one sequential copy).  Segments with [u = 0]
    are excluded: they are free space, not data worth a copy. *)

val order_for_grouping :
  grouping:Config.grouping_policy ->
  ('a * float) list ->
  'a list
(** Order live blocks for writing out (policy question 4): [In_order]
    keeps the given order; [Age_sort] sorts by the age value, oldest
    first, segregating cold data from hot. *)
