(** Adler-32 checksums protecting on-disk metadata blocks (checkpoint
    regions and segment summaries) and every logged block's payload, so
    torn or stale writes are detected during recovery instead of
    silently corrupting the file system.

    The kernel is C ([checksum_stubs.c]).  On x86-64 it takes 32 bytes
    per SSE2 step: [psadbw] gives the byte sums, [pmaddwd] with the
    weights 32 .. 1 gives the position-weighted sums, and a running
    prefix of the byte sums carries each step into the next.  Both sums
    are reduced modulo 65521 once per run of at most 173 steps (5,536
    bytes, within zlib's 5,552-byte bound), which keeps every 32-bit lane
    below 2{^32}.  A portable per-byte loop takes the tail, and all of
    the input on targets without SSE2.  Both paths are bit-identical to
    the per-byte definition, so every checksum already on disk still
    verifies.

    Checksums are unsigned ints in [[0, 2{^32})], the form segment
    summaries store, so callers fold and compare them without boxing. *)

val adler32 : ?pos:int -> ?len:int -> bytes -> int
(** Checksum of [len] bytes of [b] starting at [pos] (defaults: whole
    buffer).  Raises [Invalid_argument] if the range is not within [b]. *)

val adler32_portable : ?pos:int -> ?len:int -> bytes -> int
(** [adler32] by the portable loop alone: what a build without SSE2
    runs, exposed so it is tested on every machine. *)

val combine : int -> int -> len2:int -> int
(** [combine c1 c2 ~len2] is the checksum of two byte strings joined,
    given [c1] of the first, and [c2] and the length [len2] of the second
    (zlib's [adler32_combine]): O(1), without reading either.  The empty
    string's checksum is 1, so [combine 1 c ~len2] is [c].  Raises
    [Invalid_argument] if [len2] is negative. *)
