(** Deterministic pseudo-random number generation.

    All stochastic components of the library (workload generators, the
    cleaning-policy simulator, property tests) draw from this module so
    that every experiment is reproducible from a seed.  The generator is
    SplitMix64, which is fast, has a full 64-bit state, and allows cheap
    independent substreams via {!split}. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val split : t -> t
(** [split t] derives an independent substream and advances [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto-distributed sample; used for heavy-tailed file sizes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

