module Codec = Lfs_util.Bytes_codec
module Checksum = Lfs_util.Checksum

type entry = {
  kind : Types.block_kind;
  ino : Types.ino;
  blockno : int;
  version : int;
  mtime : float;
}

type t = {
  seq : int;
  seg : int;
  slot : int;
  next_seg : int;
  timestamp : float;
  payload_sum : int;
  entries : entry list;
}

let magic = 0x5355_4D31 (* "SUM1" *)
let header_size = 64
let entry_size = 25

let max_entries ~block_size = (block_size - header_size) / entry_size

let encode ~block_size t =
  let n = List.length t.entries in
  if n > max_entries ~block_size then
    invalid_arg
      (Printf.sprintf "Summary.encode: %d entries exceed capacity %d" n
         (max_entries ~block_size));
  let b = Bytes.make block_size '\000' in
  let c = Codec.at b 8 in
  Codec.put_u32 c magic;
  Codec.put_u32 c t.seq;
  Codec.put_u32 c t.seg;
  Codec.put_u32 c t.slot;
  Codec.put_int c t.next_seg;
  Codec.put_float c t.timestamp;
  Codec.put_u32 c t.payload_sum;
  Codec.put_u32 c n;
  Codec.seek c header_size;
  List.iter
    (fun e ->
      Codec.put_u8 c (Types.block_kind_to_int e.kind);
      Codec.put_u32 c e.ino;
      Codec.put_int c e.blockno;
      Codec.put_u32 c e.version;
      Codec.put_float c e.mtime)
    t.entries;
  let sum = Int32.to_int (Checksum.adler32 ~pos:8 b) land 0xffffffff in
  let c0 = Codec.writer b in
  Codec.put_u32 c0 sum;
  Codec.put_u32 c0 0;
  b

let decode b =
  let c0 = Codec.reader b in
  let stored = Codec.get_u32 c0 in
  let _pad = Codec.get_u32 c0 in
  let sum = Int32.to_int (Checksum.adler32 ~pos:8 b) land 0xffffffff in
  if stored <> sum then None
  else begin
    let c = Codec.at b 8 in
    let m = Codec.get_u32 c in
    if m <> magic then None
    else begin
      let seq = Codec.get_u32 c in
      let seg = Codec.get_u32 c in
      let slot = Codec.get_u32 c in
      let next_seg = Codec.get_int c in
      let timestamp = Codec.get_float c in
      let payload_sum = Codec.get_u32 c in
      let n = Codec.get_u32 c in
      if n > max_entries ~block_size:(Bytes.length b) then None
      else begin
        Codec.seek c header_size;
        let entries =
          List.init n (fun _ ->
              let kind = Types.block_kind_of_int (Codec.get_u8 c) in
              let ino = Codec.get_u32 c in
              let blockno = Codec.get_int c in
              let version = Codec.get_u32 c in
              let mtime = Codec.get_float c in
              { kind; ino; blockno; version; mtime })
        in
        Some { seq; seg; slot; next_seg; timestamp; payload_sum; entries }
      end
    end
  end

let payload_checksum payload =
  Int32.to_int (Checksum.adler32 payload) land 0xffffffff

let entry_addr t layout i = Layout.seg_first_block layout t.seg + t.slot + 1 + i

let next_slot t = t.slot + 1 + List.length t.entries

let walk_segment ~seg_blocks ~seg ~read visit =
  let rec walk slot =
    if slot <= seg_blocks - 2 then
      match decode (read slot) with
      | Some s
        when s.seg = seg && s.slot = slot
             && slot + 1 + List.length s.entries <= seg_blocks ->
          if visit s then walk (next_slot s)
      | Some _ | None -> ()
  in
  walk 0
