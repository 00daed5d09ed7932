(** Streaming summary statistics (Welford's algorithm) and small helpers
    used by benchmark reports. *)

type t
(** A mutable accumulator of floating-point observations. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
val total : t -> float

val mean : t -> float
(** Mean of the observations; 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two observations. *)

val min_value : t -> float
(** Smallest observation; [infinity] when empty. *)

val max_value : t -> float
(** Largest observation; [neg_infinity] when empty. *)

val percentile : float array -> float -> float
(** [percentile data p] with [p] in [\[0,1\]] computes the p-th percentile
    by linear interpolation.  Sorts a copy; [data] must be non-empty. *)

val mean_of : float list -> float
