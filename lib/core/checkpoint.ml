module Codec = Lfs_util.Bytes_codec
module Checksum = Lfs_util.Checksum
module Vdev = Lfs_disk.Vdev

type t = {
  timestamp : float;
  log_seq : int;
  heads : Log_writer.position array;
  imap_addrs : Types.baddr array;
  usage_addrs : Types.baddr array;
}

let magic = 0x434B_5032 (* "CKP2": multi-head log positions *)

let region_addr layout region =
  match region with
  | 0 -> layout.Layout.ckpt_a
  | 1 -> layout.Layout.ckpt_b
  | n -> invalid_arg (Printf.sprintf "Checkpoint: region %d" n)

let write layout disk ~region t =
  let size = layout.Layout.ckpt_blocks * layout.Layout.block_size in
  let b = Bytes.make size '\000' in
  let c = Codec.at b 8 in
  Codec.put_u32 c magic;
  Codec.put_float c t.timestamp;
  Codec.put_u32 c t.log_seq;
  Codec.put_u32 c (Array.length t.heads);
  Array.iter
    (fun (h : Log_writer.position) ->
      Codec.put_u32 c h.seg;
      Codec.put_u32 c h.off;
      Codec.put_int c h.next_seg)
    t.heads;
  Codec.put_u32 c (Array.length t.imap_addrs);
  Codec.put_u32 c (Array.length t.usage_addrs);
  Array.iter (fun a -> Codec.put_int c a) t.imap_addrs;
  Array.iter (fun a -> Codec.put_int c a) t.usage_addrs;
  let sum = Int32.to_int (Checksum.adler32 ~pos:8 b) land 0xffffffff in
  let c0 = Codec.writer b in
  Codec.put_u32 c0 sum;
  Codec.put_u32 c0 0;
  Vdev.write_blocks disk (region_addr layout region) b

let read layout disk ~region =
  let b =
    Vdev.read_blocks disk (region_addr layout region) layout.Layout.ckpt_blocks
  in
  let c0 = Codec.reader b in
  let stored = Codec.get_u32 c0 in
  let _pad = Codec.get_u32 c0 in
  let sum = Int32.to_int (Checksum.adler32 ~pos:8 b) land 0xffffffff in
  if stored <> sum then None
  else begin
    let c = Codec.at b 8 in
    if Codec.get_u32 c <> magic then None
    else begin
      let timestamp = Codec.get_float c in
      let log_seq = Codec.get_u32 c in
      let n_heads = Codec.get_u32 c in
      let heads =
        Array.init n_heads (fun _ ->
            let seg = Codec.get_u32 c in
            let off = Codec.get_u32 c in
            let next_seg = Codec.get_int c in
            { Log_writer.seg; off; next_seg })
      in
      let n_imap = Codec.get_u32 c in
      let n_usage = Codec.get_u32 c in
      let imap_addrs = Array.init n_imap (fun _ -> Codec.get_int c) in
      let usage_addrs = Array.init n_usage (fun _ -> Codec.get_int c) in
      Some { timestamp; log_seq; heads; imap_addrs; usage_addrs }
    end
  end

let read_latest layout disk =
  match (read layout disk ~region:0, read layout disk ~region:1) with
  | None, None -> None
  | Some a, None -> Some (0, a)
  | None, Some b -> Some (1, b)
  | Some a, Some b -> if a.timestamp >= b.timestamp then Some (0, a) else Some (1, b)
