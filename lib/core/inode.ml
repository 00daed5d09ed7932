module Codec = Lfs_util.Bytes_codec

type t = {
  ino : Types.ino;
  mutable ftype : Types.ftype;
  mutable nlink : int;
  mutable size : int;
  mutable mtime : float;
  direct : Types.baddr array;
  mutable indirect : Types.baddr;
  mutable dindirect : Types.baddr;
}

let ndirect = 10
let slot_size = 128
let slot_magic = 0xA5
let slot_free = 0x00

let create ~ino ~ftype ~mtime =
  {
    ino;
    ftype;
    nlink = 1;
    size = 0;
    mtime;
    direct = Array.make ndirect Types.nil_addr;
    indirect = Types.nil_addr;
    dindirect = Types.nil_addr;
  }

let copy t = { t with direct = Array.copy t.direct }

let nblocks ~block_size t = (t.size + block_size - 1) / block_size

let encode ?(pos = 0) t b ~slot =
  let c = Codec.at b (pos + (slot * slot_size)) in
  Codec.put_u8 c slot_magic;
  Codec.put_u8 c (Types.ftype_to_int t.ftype);
  Codec.put_u16 c t.nlink;
  Codec.put_u32 c t.ino;
  Codec.put_u64 c (Int64.of_int t.size);
  Codec.put_float c t.mtime;
  Array.iter (fun a -> Codec.put_int c a) t.direct;
  Codec.put_int c t.indirect;
  Codec.put_int c t.dindirect

(* Reads the magic byte at [c]: whether the slot is used.  Raises on a
   bad magic. *)
let slot_used c ~slot =
  let m = Codec.get_u8 c in
  if m = slot_free then false
  else if m <> slot_magic then
    Types.corrupt "inode slot %d: bad magic %#x" slot m
  else true

let decode_ino ?(pos = 0) b ~slot =
  let c = Codec.at b (pos + (slot * slot_size)) in
  if not (slot_used c ~slot) then None
  else begin
    (* Past the ftype and link count. *)
    Codec.seek c (Codec.pos c + 3);
    Some (Codec.get_u32 c)
  end

(* The magic byte, then the ftype and link count, then the ino. *)
let slot_ino ?(pos = 0) b ~slot =
  let off = pos + (slot * slot_size) in
  if Bytes.get_uint8 b off <> slot_magic then None
  else Some (Int32.to_int (Bytes.get_int32_le b (off + 4)) land 0xffffffff)

let decode ?(pos = 0) b ~slot =
  let c = Codec.at b (pos + (slot * slot_size)) in
  if not (slot_used c ~slot) then None
  else begin
    let ftype = Types.ftype_of_int (Codec.get_u8 c) in
    let nlink = Codec.get_u16 c in
    let ino = Codec.get_u32 c in
    let size = Int64.to_int (Codec.get_u64 c) in
    let mtime = Codec.get_float c in
    let direct = Array.init ndirect (fun _ -> Codec.get_int c) in
    let indirect = Codec.get_int c in
    let dindirect = Codec.get_int c in
    Some { ino; ftype; nlink; size; mtime; direct; indirect; dindirect }
  end

let clear_slot b ~slot = Bytes.set b (slot * slot_size) '\000'

let equal a b =
  a.ino = b.ino && a.ftype = b.ftype && a.nlink = b.nlink && a.size = b.size
  && a.mtime = b.mtime
  && Array.for_all2 ( = ) a.direct b.direct
  && a.indirect = b.indirect && a.dindirect = b.dindirect

let pp ppf t =
  Format.fprintf ppf "ino %d %s size=%d nlink=%d mtime=%.0f" t.ino
    (match t.ftype with Types.Regular -> "file" | Types.Directory -> "dir")
    t.size t.nlink t.mtime
