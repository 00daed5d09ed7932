(** Cumulative IO accounting for a block device.

    Time is the modelled disk busy time; callers compare it against a CPU
    model to derive elapsed time (Section 5.1's "disk was 17% busy"
    analysis).  [queue_wait_s] and [max_queue_depth] describe the request
    queue in front of the device: how long submits waited for service and
    the deepest the queue ever got (1 under synchronous callers). *)

type t = {
  mutable reads : int;           (** read operations *)
  mutable writes : int;          (** write operations *)
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable seeks : int;           (** non-sequential repositionings *)
  mutable busy_s : float;        (** total modelled device busy time *)
  mutable queue_wait_s : float;  (** total time requests waited for service *)
  mutable max_queue_depth : int; (** high watermark of outstanding requests *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : t -> t -> t
(** [diff now before] is the per-field difference: activity since
    [before] was captured with {!copy}.  [max_queue_depth], a watermark,
    carries [now]'s value. *)

val merge : t -> t -> t
(** Per-field sum: the combined activity of two devices (busy time is a
    sum of per-spindle busy times, not wall-clock; [max_queue_depth] is
    the max of the two watermarks). *)

val bytes_written : block_size:int -> t -> int
val total_ios : t -> int

val pp : Format.formatter -> t -> unit
