(** Recycled byte buffers, in two shapes: {!t}, a free list of buffers
    of one size (block cache entries, queued-disk staging, write-buffer
    blocks, cleaner segment buffers), and {!Scratch}, one buffer grown
    to the largest request (the log writer's transfer buffer,
    roll-forward's payload buffer, the checkpoint region, a stripe's
    gather buffer).  A buffer is the taker's from its take until its
    give, and dead after the give. *)

val poison : bool ref
(** Test hook, [false] outside tests.  While set, a give fills the
    buffer with a marker, and a take of a buffer so filled raises
    [Failure] unless every byte still holds it: a write after the give
    is caught, and a read after it sees no data.  Unset, take and give
    neither touch nor check the bytes. *)

type t
(** An array stack of free [size]-byte buffers: a warm pool allocates
    nothing on a take or a give. *)

val create : ?bound:int -> int -> t
(** [create ~bound size] keeps at most [bound] (default unbounded) free
    buffers; a give beyond that drops the buffer. *)

val take : t -> bytes
(** The last buffer given, or a fresh one; its bytes are stale. *)

val give : t -> bytes -> unit
(** Raises [Invalid_argument] on a buffer of another size. *)

module Scratch : sig
  type t

  val create : unit -> t

  val take : t -> int -> bytes
  (** [take t n]: the buffer when it has [n] bytes, else a fresh one of
      [n] bytes that replaces it.  Its bytes are stale. *)

  val give : t -> unit
  (** The buffer is dead until the next take. *)
end
