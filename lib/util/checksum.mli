(** Adler-32 checksums protecting on-disk metadata blocks (checkpoint
    regions and segment summaries), so torn or stale writes are detected
    during recovery instead of silently corrupting the file system.

    The two running sums are reduced modulo 65521 once per 5552-byte
    chunk rather than once per byte (zlib's deferred reduction: no sum
    can overflow within a chunk).  Inside a chunk the loop takes eight
    bytes per step and adds to each sum exactly what eight per-byte
    steps would have added.  The result is bit-identical to the
    per-byte definition, so every checksum already on disk still
    verifies. *)

val adler32 : ?pos:int -> ?len:int -> bytes -> int32
(** Checksum of [len] bytes of [b] starting at [pos] (defaults: whole
    buffer).  Raises [Invalid_argument] if the range is not within [b]. *)

val adler32_string : string -> int32
