module Codec = Lfs_util.Bytes_codec
module Index = Hashtbl.Make (String)

(* The image is [count] (u32) then each entry as name (u16 length, bytes)
   and ino (u32), in insertion order.  [img] may be longer than [len]:
   the slack lets [add] append in place. *)
type t = {
  block_size : int;
  mutable img : bytes;
  mutable len : int;
  mutable count : int;
  index : Types.ino Index.t;  (* name -> ino of its first entry *)
}

let max_name = 255

let check_name name =
  let n = String.length name in
  if n = 0 then Types.fs_error "empty file name";
  if n > max_name then Types.fs_error "file name longer than %d bytes" max_name;
  String.iter
    (fun ch ->
      if ch = '/' || ch = '\000' then
        Types.fs_error "file name %S contains '/' or NUL" name)
    name

let create ~block_size =
  {
    block_size;
    img = Bytes.make 64 '\000';
    len = 4;
    count = 0;
    index = Index.create 16;
  }

let of_bytes ~block_size b =
  try
    let c = Codec.reader b in
    let n = Codec.get_u32 c in
    if n > Bytes.length b then
      Types.corrupt "directory: impossible entry count %d" n;
    let index = Index.create (max 16 n) in
    for _ = 1 to n do
      let name = Codec.get_string c in
      let ino = Codec.get_u32 c in
      if not (Index.mem index name) then Index.add index name ino
    done;
    let len = Codec.pos c in
    { block_size; img = b; len; count = n; index }
  with Codec.Overflow msg -> Types.corrupt "directory: truncated (%s)" msg

let block_size t = t.block_size
let length t = t.len
let to_bytes t = Bytes.sub t.img 0 t.len

let block_into t blockno b =
  let bs = t.block_size in
  let lo = blockno * bs in
  let n = max 0 (min bs (t.len - lo)) in
  Bytes.blit t.img lo b 0 n;
  Bytes.fill b n (bs - n) '\000'

let is_empty t = t.count = 0
let cardinal t = t.count
let find t name = Index.find_opt t.index name
let mem t name = Index.mem t.index name

(* Offsets of an entry's fields: the name's bytes start at [off + 2] and
   its ino at [ino_at t off]. *)
let name_len t off = Bytes.get_uint16_le t.img off
let ino_at t off = off + 2 + name_len t off
let next t off = ino_at t off + 4
let get_ino t off =
  Int32.to_int (Bytes.get_int32_le t.img (ino_at t off)) land 0xffffffff

let name_is t off name =
  let n = String.length name in
  name_len t off = n
  &&
  let rec go i =
    i = n
    || Bytes.unsafe_get t.img (off + 2 + i) = String.unsafe_get name i
       && go (i + 1)
  in
  go 0

let set_count t n =
  t.count <- n;
  Bytes.set_int32_le t.img 0 (Int32.of_int n)

(* Changed block numbers, collected in ascending order without repeats. *)
let note blocks blockno =
  match blocks with b :: _ when b >= blockno -> blocks | _ -> blockno :: blocks

let rec range lo hi = if lo > hi then [] else lo :: range (lo + 1) hi

let append t name ino =
  let old_len = t.len in
  let n = String.length name in
  let len = old_len + 2 + n + 4 in
  if len > Bytes.length t.img then begin
    let img = Bytes.make (max len (2 * Bytes.length t.img)) '\000' in
    Bytes.blit t.img 0 img 0 old_len;
    t.img <- img
  end;
  Bytes.set_uint16_le t.img old_len n;
  Bytes.blit_string name 0 t.img (old_len + 2) n;
  Bytes.set_int32_le t.img (old_len + 2 + n) (Int32.of_int ino);
  t.len <- len;
  set_count t (t.count + 1);
  Index.replace t.index name ino;
  let bs = t.block_size in
  0 :: range (max 1 (old_len / bs)) ((len - 1) / bs)

let add t name ino =
  check_name name;
  if mem t name then Types.fs_error "name %S already exists" name;
  append t name ino

(* Whether [img.[a, a + n)] equals [img.[b, b + n)]. *)
let same img a b n =
  let rec go i =
    if i + 8 <= n then
      Bytes.get_int64_ne img (a + i) = Bytes.get_int64_ne img (b + i)
      && go (i + 8)
    else
      i = n
      || Bytes.unsafe_get img (a + i) = Bytes.unsafe_get img (b + i)
         && go (i + 1)
  in
  go 0

(* Move the kept entries [src, src + n) down to [dst], first noting
   each block of the destination whose bytes the move changes. *)
let move_down t blocks ~dst ~src n =
  let bs = t.block_size in
  let blocks = ref blocks in
  let pos = ref dst in
  while !pos < dst + n do
    let blockno = !pos / bs in
    let stop = min (dst + n) ((blockno + 1) * bs) in
    if not (same t.img !pos (!pos + src - dst) (stop - !pos)) then
      blocks := note !blocks blockno;
    pos := stop
  done;
  Bytes.blit t.img src t.img dst n;
  !blocks

(* Compact every entry named [name] (one, unless the image came with
   duplicates) out of the image. *)
let remove t name =
  if not (mem t name) then Types.fs_error "no such entry %S" name;
  let blocks = ref [ 0 ] and removed = ref 0 in
  (* Each run [run, stop) of kept entries moves down to [dst]. *)
  let dst = ref 4 and run = ref 4 and off = ref 4 in
  let keep stop =
    if !dst <> !run then
      blocks := move_down t !blocks ~dst:!dst ~src:!run (stop - !run);
    dst := !dst + stop - !run
  in
  for _ = 1 to t.count do
    let here = !off in
    off := next t here;
    if name_is t here name then begin
      keep here;
      incr removed;
      run := !off
    end
  done;
  keep !off;
  t.len <- !dst;
  set_count t (t.count - !removed);
  Index.remove t.index name;
  List.rev !blocks

let replace t name ino =
  check_name name;
  if not (mem t name) then append t name ino
  else begin
    let bs = t.block_size in
    let blocks = ref [] and off = ref 4 in
    for _ = 1 to t.count do
      if name_is t !off name then begin
        (* Overwrite the little-endian ino byte by byte. *)
        let at = ino_at t !off in
        for i = 0 to 3 do
          let byte = Char.unsafe_chr ((ino lsr (8 * i)) land 0xff) in
          if Bytes.get t.img (at + i) <> byte then begin
            blocks := note !blocks ((at + i) / bs);
            Bytes.set t.img (at + i) byte
          end
        done
      end;
      off := next t !off
    done;
    Index.replace t.index name ino;
    List.rev !blocks
  end

let entries t =
  let rec go off k acc =
    if k = 0 then List.rev acc
    else
      let name = Bytes.sub_string t.img (off + 2) (name_len t off) in
      go (next t off) (k - 1) ((name, get_ino t off) :: acc)
  in
  go 4 t.count []
