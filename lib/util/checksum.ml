let base = 65521

external adler32_unsafe : bytes -> int -> int -> int = "lfs_util_adler32"
[@@noalloc]

external adler32_portable_unsafe : bytes -> int -> int -> int
  = "lfs_util_adler32_portable"
[@@noalloc]

let checked kernel ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.adler32: range out of bounds";
  kernel b pos len

let adler32 ?pos ?len b = checked adler32_unsafe ?pos ?len b
let adler32_portable ?pos ?len b = checked adler32_portable_unsafe ?pos ?len b

(* zlib's adler32_combine.  Appending [len2] bytes with sums (a2, s2) to
   a prefix with sums (a1, s1): a = a1 + a2 - 1, since both started from
   1; each of the [len2] later bytes' [a] also carried the prefix's
   a1 - 1, so s = s1 + s2 + len2 (a1 - 1). *)
let combine c1 c2 ~len2 =
  if len2 < 0 then invalid_arg "Checksum.combine: negative length";
  let a1 = c1 land 0xffff and a2 = c2 land 0xffff in
  let r = len2 mod base in
  let a = (a1 + a2 + base - 1) mod base in
  let s = ((r * a1) + (c1 lsr 16) + (c2 lsr 16) + base - r) mod base in
  (s lsl 16) lor a
