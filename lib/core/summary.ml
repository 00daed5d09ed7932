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
  durable_below : int;
  tail_sum : int;
  entries : entry list;
  records : Dir_log.record list;
  inodes : Inode.t list;
}

let magic = 0x5355_4D31 (* "SUM1" *)
let header_size = 64
let entry_size = 25

let max_entries ~block_size = (block_size - header_size) / entry_size

(* The slot of the first of [k] inline inodes: they fill the block's
   last [k] inode slots. *)
let first_inline_slot ~block_size k = (block_size / Inode.slot_size) - k

let fits ~block_size ~entries ~record_bytes ~inodes =
  entries >= 0 && record_bytes >= 0 && inodes >= 0
  && inodes <= block_size / Inode.slot_size
  && header_size + (entries * entry_size) + record_bytes
     <= first_inline_slot ~block_size inodes * Inode.slot_size

let encode_into ~block_size t b =
  let n = List.length t.entries and k = List.length t.inodes in
  let record_bytes = Dir_log.records_size t.records in
  if not (fits ~block_size ~entries:n ~record_bytes ~inodes:k) then
    invalid_arg
      (Printf.sprintf
         "Summary.encode_into: %d entries, %d record bytes and %d inodes \
          overflow a %d-byte block"
         n record_bytes k block_size);
  if Bytes.length b < block_size then
    invalid_arg "Summary.encode_into: buffer shorter than a block";
  Bytes.fill b 0 block_size '\000';
  let c = Codec.at b 8 in
  Codec.put_u32 c magic;
  Codec.put_u32 c t.seq;
  Codec.put_u32 c t.seg;
  Codec.put_u32 c t.slot;
  Codec.put_int c t.next_seg;
  Codec.put_float c t.timestamp;
  Codec.put_u32 c t.payload_sum;
  Codec.put_u32 c n;
  Codec.put_u32 c t.durable_below;
  Codec.put_u32 c t.tail_sum;
  Codec.put_u32 c k;
  Codec.put_u32 c record_bytes;
  Codec.seek c header_size;
  List.iter
    (fun e ->
      Codec.put_u8 c (Types.block_kind_to_int e.kind);
      Codec.put_u32 c e.ino;
      Codec.put_int c e.blockno;
      Codec.put_u32 c e.version;
      Codec.put_float c e.mtime)
    t.entries;
  Dir_log.encode_records_into b ~pos:(Codec.pos c) t.records;
  let first = first_inline_slot ~block_size k in
  List.iteri (fun i inode -> Inode.encode inode b ~slot:(first + i)) t.inodes;
  let sum = Checksum.adler32 ~pos:8 ~len:(block_size - 8) b in
  let c0 = Codec.writer b in
  Codec.put_u32 c0 sum;
  Codec.put_u32 c0 0

(* The entries, records and inline inodes of a summary whose header has
   passed its checks.  A block that passes its checksum was written by
   [encode_into], so a failure here is a malformed summary, never a torn
   one: every failure is a [Types.Corrupt]. *)
let decode_body b ~pos ~block_size ~n ~k ~record_bytes =
  let c = Codec.at b (pos + header_size) in
  match
    let entries =
      List.init n (fun _ ->
          let kind = Types.block_kind_of_int (Codec.get_u8 c) in
          let ino = Codec.get_u32 c in
          let blockno = Codec.get_int c in
          let version = Codec.get_u32 c in
          let mtime = Codec.get_float c in
          { kind; ino; blockno; version; mtime })
    in
    let records = Dir_log.decode_records b ~pos:(Codec.pos c) ~len:record_bytes in
    let first = first_inline_slot ~block_size k in
    let inodes =
      List.init k (fun i ->
          match Inode.decode ~pos b ~slot:(first + i) with
          | Some inode -> inode
          | None -> Types.corrupt "summary: inline inode slot %d is empty" (first + i))
    in
    (entries, records, inodes)
  with
  | body -> body
  | exception (Codec.Overflow m | Invalid_argument m) ->
      Types.corrupt "summary: malformed body: %s" m

let decode ?(pos = 0) ?block_size b =
  let block_size =
    match block_size with Some n -> n | None -> Bytes.length b - pos
  in
  if pos < 0 || block_size < header_size || pos + block_size > Bytes.length b
  then None
  else
    let c0 = Codec.at b pos in
    let stored = Codec.get_u32 c0 in
    let _pad = Codec.get_u32 c0 in
    let sum = Checksum.adler32 ~pos:(pos + 8) ~len:(block_size - 8) b in
    let c = Codec.at b (pos + 8) in
    if stored <> sum || Codec.get_u32 c <> magic then None
    else begin
      let seq = Codec.get_u32 c in
      let seg = Codec.get_u32 c in
      let slot = Codec.get_u32 c in
      let next_seg = Codec.get_int c in
      let timestamp = Codec.get_float c in
      let payload_sum = Codec.get_u32 c in
      let n = Codec.get_u32 c in
      let durable_below = Codec.get_u32 c in
      let tail_sum = Codec.get_u32 c in
      let k = Codec.get_u32 c in
      let record_bytes = Codec.get_u32 c in
      if n > max_entries ~block_size then None
      else if not (fits ~block_size ~entries:n ~record_bytes ~inodes:k) then
        Types.corrupt
          "summary of seg %d slot %d: %d record bytes and %d inline inodes \
           overlap its %d entries"
          seg slot record_bytes k n
      else
        let entries, records, inodes =
          decode_body b ~pos ~block_size ~n ~k ~record_bytes
        in
        Some
          {
            seq;
            seg;
            slot;
            next_seg;
            timestamp;
            payload_sum;
            durable_below;
            tail_sum;
            entries;
            records;
            inodes;
          }
    end

let payload_checksum = Checksum.adler32

let entry_addr t layout i = Layout.seg_first_block layout t.seg + t.slot + 1 + i

let addr t layout = Layout.seg_first_block layout t.seg + t.slot

let inline_inodes t layout =
  let block = addr t layout in
  let first =
    first_inline_slot ~block_size:layout.Layout.block_size (List.length t.inodes)
  in
  List.mapi
    (fun i inode -> (Types.Iaddr.make ~block ~slot:(first + i), inode))
    t.inodes

let next_slot t = t.slot + 1 + List.length t.entries

type run = { first : int; n : int; blocks : int }

let walk_segment layout ~seg ?(from = 0) ~read ?(need = fun _ _ _ -> false)
    ?(read_run = fun _ _ -> invalid_arg "Summary.walk_segment: need without read_run")
    visit =
  let seg_blocks = layout.Layout.seg_blocks
  and block_size = layout.Layout.block_size in
  (* Whether a summary can sit at a slot: it and one payload block fit. *)
  let holds_summary slot = slot <= seg_blocks - 2 in
  (* The runs [need] picks of [s]'s write, each read once the entry
     that ends it is known; the next summary's block when the last run
     brought it along. *)
  let read_write s =
    let count = List.length s.entries in
    let start = ref (-1) and ahead = ref None in
    let close stop =
      if !start >= 0 then begin
        let n = stop - !start in
        let fused = stop = count && holds_summary (next_slot s) in
        let buf, pos =
          read_run s { first = !start; n; blocks = (if fused then n + 1 else n) }
        in
        if fused then ahead := Some (buf, pos + (n * block_size));
        start := -1
      end
    in
    List.iteri
      (fun i e -> if need s i e then (if !start < 0 then start := i) else close i)
      s.entries;
    close count;
    !ahead
  in
  let rec walk slot ahead =
    (not (holds_summary slot))
    ||
    let b, pos = match ahead with Some block -> block | None -> read slot in
    match decode ~pos ~block_size b with
    | Some s
      when s.seg = seg && s.slot = slot
           && slot + 1 + List.length s.entries <= seg_blocks ->
        visit s
        &&
        let ahead = read_write s in
        walk (next_slot s) ahead
    | Some _ | None -> false
  in
  walk from None
