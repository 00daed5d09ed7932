exception Overflow of string

type cursor = { buf : bytes; mutable off : int }

let writer buf = { buf; off = 0 }
let reader buf = { buf; off = 0 }
let at buf off = { buf; off }

let pos c = c.off
let seek c off = c.off <- off
let remaining c = Bytes.length c.buf - c.off

let check c n what =
  if c.off + n > Bytes.length c.buf then
    raise
      (Overflow
         (Printf.sprintf "%s: need %d bytes at offset %d, buffer has %d" what n
            c.off (Bytes.length c.buf)))

let put_u8 c v =
  check c 1 "put_u8";
  Bytes.unsafe_set c.buf c.off (Char.unsafe_chr (v land 0xff));
  c.off <- c.off + 1

let put_u16 c v =
  check c 2 "put_u16";
  Bytes.set_uint16_le c.buf c.off (v land 0xffff);
  c.off <- c.off + 2

let put_u32 c v =
  check c 4 "put_u32";
  Bytes.set_int32_le c.buf c.off (Int32.of_int v);
  c.off <- c.off + 4

let put_u64 c v =
  check c 8 "put_u64";
  Bytes.set_int64_le c.buf c.off v;
  c.off <- c.off + 8

let put_int c v = put_u64 c (Int64.of_int v)
let put_float c v = put_u64 c (Int64.bits_of_float v)

let put_string c s =
  let n = String.length s in
  if n > 0xffff then raise (Overflow "put_string: string longer than 65535");
  put_u16 c n;
  check c n "put_string";
  Bytes.blit_string s 0 c.buf c.off n;
  c.off <- c.off + n

let get_u8 c =
  check c 1 "get_u8";
  let v = Char.code (Bytes.unsafe_get c.buf c.off) in
  c.off <- c.off + 1;
  v

let get_u16 c =
  check c 2 "get_u16";
  let v = Bytes.get_uint16_le c.buf c.off in
  c.off <- c.off + 2;
  v

let get_u32 c =
  check c 4 "get_u32";
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.off) land 0xffffffff in
  c.off <- c.off + 4;
  v

let get_u64 c =
  check c 8 "get_u64";
  let v = Bytes.get_int64_le c.buf c.off in
  c.off <- c.off + 8;
  v

let get_int c = Int64.to_int (get_u64 c)
let get_float c = Int64.float_of_bits (get_u64 c)

let get_string c =
  let n = get_u16 c in
  check c n "get_string";
  let s = Bytes.sub_string c.buf c.off n in
  c.off <- c.off + n;
  s

