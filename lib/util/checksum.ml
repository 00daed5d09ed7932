let base = 65521

(* The even bytes of a little-endian word (x0, x2, x4, x6), each in its
   own 16-bit lane; the odd bytes (x1, x3, x5, x7) are the same mask
   over the word shifted down a byte. *)
let lanes = 0x00ff_00ff_00ff_00ffL

(* Words summed lane-wise before the lanes are drained.  An OCaml int
   has 63 bits, so the top lane holds only 15: 128 words of 0xff bytes
   fill a lane to 32640, and 256 would overflow it. *)
let run_words = 128

let lane v k = (v lsr (16 * k)) land 0xffff

let adler32 ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.adler32: range out of bounds";
  let a = ref 1 and s = ref 0 in
  let i = ref pos and stop = pos + len in
  (* Runs of up to [run_words] words.  Byte by byte, byte p of a run of
     n words adds x_p to [a] and (8n - p) x_p to [s], on top of 8n a.
     Word k's own bytes contribute 8x0 + 7x1 + ... + 1x7: summed over the
     run, that is the lane totals weighted by position.  Each later word
     adds 8 times the byte sum of every word before it, which the running
     prefix [pre] accumulates into [spre].  Both sums are reduced once per
     run. *)
  while stop - !i >= 8 do
    let words = min run_words ((stop - !i) / 8) in
    let even = ref 0 and odd = ref 0 and pre = ref 0 and spre = ref 0 in
    for k = 0 to words - 1 do
      let w = Bytes.get_int64_le b (!i + (8 * k)) in
      let e = Int64.to_int (Int64.logand w lanes) in
      let o = Int64.to_int (Int64.logand (Int64.shift_right_logical w 8) lanes) in
      even := !even + e;
      odd := !odd + o;
      spre := !spre + !pre;
      (* The multiply sums the four lanes of [e + o] into the top one. *)
      pre := !pre + (((e + o) * 0x0001_0001_0001_0001) lsr 48)
    done;
    let e = !even and o = !odd in
    s :=
      (!s + (8 * words * !a) + (8 * !spre)
       + (8 * lane e 0) + (7 * lane o 0) + (6 * lane e 1) + (5 * lane o 1)
       + (4 * lane e 2) + (3 * lane o 2) + (2 * lane e 3) + lane o 3)
      mod base;
    a := (!a + !pre) mod base;
    i := !i + (8 * words)
  done;
  while !i < stop do
    a := !a + Char.code (Bytes.unsafe_get b !i);
    s := !s + !a;
    incr i
  done;
  let a = !a mod base and s = !s mod base in
  Int32.logor (Int32.shift_left (Int32.of_int s) 16) (Int32.of_int a)

let adler32_string s = adler32 (Bytes.unsafe_of_string s)

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
