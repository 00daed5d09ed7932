(** Adler-32 checksums protecting on-disk metadata blocks (checkpoint
    regions and segment summaries), so torn or stale writes are detected
    during recovery instead of silently corrupting the file system.

    The kernel loads eight bytes at a time and splits each word into its
    even and its odd bytes, held in 16-bit lanes.  A run of up to 128
    words sums the lanes (an OCaml int's top lane has 15 bits, which 128
    words of 0xff bytes just fit), so the lane totals are the byte sums
    per position within a word; one multiply folds a word's lanes into
    its byte sum, and a running prefix of those gives the second sum.
    Both sums are reduced modulo 65521 once per run.  The result is
    bit-identical to the per-byte definition, so every checksum already
    on disk still verifies. *)

val adler32 : ?pos:int -> ?len:int -> bytes -> int32
(** Checksum of [len] bytes of [b] starting at [pos] (defaults: whole
    buffer).  Raises [Invalid_argument] if the range is not within [b]. *)

val adler32_string : string -> int32

val combine : int -> int -> len2:int -> int
(** [combine c1 c2 ~len2] is the checksum of two byte strings joined,
    given [c1] of the first, and [c2] and the length [len2] of the second
    (zlib's [adler32_combine]): O(1), without reading either.  Checksums
    here are unsigned ints ([Int32.to_int c land 0xffff_ffff], the form
    segment summaries store), so the log writer folds one per block
    without boxing.  The empty string's checksum is 1, so
    [combine 1 c ~len2] is [c].  Raises [Invalid_argument] if [len2] is
    negative. *)
