let base = 65521

(* Deferred reduction, as in zlib: the largest n with
   255 n (n + 1) / 2 + (n + 1) (base - 1) <= 2^32 - 1.  Within a chunk of
   [nmax] bytes neither sum can pass 2^32, so each needs one [mod] per
   chunk instead of one per byte. *)
let nmax = 5552

let adler32 ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.adler32: range out of bounds";
  let byte k = Char.code (Bytes.unsafe_get b k) in
  let a = ref 1 and s = ref 0 in
  let i = ref pos and stop = pos + len in
  while !i < stop do
    let chunk_stop = min stop (!i + nmax) in
    (* Eight bytes per step: byte by byte, x0 .. x7 add their sum to [a]
       and 8a + 8x0 + 7x1 + ... + 1x7 to [s]. *)
    while chunk_stop - !i >= 8 do
      let j = !i in
      let x0 = byte j and x1 = byte (j + 1) and x2 = byte (j + 2)
      and x3 = byte (j + 3) and x4 = byte (j + 4) and x5 = byte (j + 5)
      and x6 = byte (j + 6) and x7 = byte (j + 7) in
      s :=
        !s + (8 * (!a + x0)) + (7 * x1) + (6 * x2) + (5 * x3) + (4 * x4)
        + (3 * x5) + (2 * x6) + x7;
      a := !a + x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;
      i := j + 8
    done;
    while !i < chunk_stop do
      a := !a + byte !i;
      s := !s + !a;
      incr i
    done;
    a := !a mod base;
    s := !s mod base
  done;
  Int32.logor (Int32.shift_left (Int32.of_int !s) 16) (Int32.of_int !a)

let adler32_string s = adler32 (Bytes.unsafe_of_string s)
