(** Little-endian binary encoding helpers shared by all on-disk formats.

    A {!cursor} wraps a [bytes] buffer with a mutable offset; [put_*]
    functions advance it while writing, [get_*] while reading.  Bounds
    errors raise {!Overflow} rather than a generic [Invalid_argument] so
    corrupt images are reported precisely. *)

exception Overflow of string
(** Raised when an encode or decode runs past the end of the buffer. *)

type cursor

val writer : bytes -> cursor
(** Cursor positioned at offset 0 for writing into the buffer. *)

val reader : bytes -> cursor
(** Cursor positioned at offset 0 for reading from the buffer. *)

val at : bytes -> int -> cursor
(** Cursor at an explicit offset. *)

val pos : cursor -> int
val seek : cursor -> int -> unit
val remaining : cursor -> int

val put_u8 : cursor -> int -> unit
val put_u16 : cursor -> int -> unit
val put_u32 : cursor -> int -> unit
val put_u64 : cursor -> int64 -> unit
val put_int : cursor -> int -> unit
(** 63-bit OCaml int as a signed 64-bit field. *)

val put_float : cursor -> float -> unit
val put_string : cursor -> string -> unit
(** Length-prefixed (u16) string. *)


val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_u64 : cursor -> int64
val get_int : cursor -> int
val get_float : cursor -> float
val get_string : cursor -> string
