module Codec = Lfs_util.Bytes_codec

type t = {
  layout : Layout.t;
  live : int array;
  mtimes : float array;
  block_addrs : int array;
  dirty : bool array;
}

let entries_per_block t = t.layout.Layout.usage_entries_per_block
let seg_capacity t = t.layout.Layout.seg_blocks * t.layout.Layout.block_size

let create layout =
  {
    layout;
    live = Array.make layout.Layout.nsegs 0;
    mtimes = Array.make layout.Layout.nsegs 0.0;
    block_addrs = Array.make layout.Layout.usage_blocks Types.nil_addr;
    dirty = Array.make layout.Layout.usage_blocks true;
  }

let nsegs t = Array.length t.live

let check t s =
  if s < 0 || s >= nsegs t then
    Types.fs_error "segment %d out of range [0, %d)" s (nsegs t)

let live_bytes t s =
  check t s;
  t.live.(s)

let mtime t s =
  check t s;
  t.mtimes.(s)

let utilization t s = float_of_int (live_bytes t s) /. float_of_int (seg_capacity t)

let block_of_seg t s = s / entries_per_block t
let mark_block_dirty t i = t.dirty.(i) <- true
let clear_block_dirty t i = t.dirty.(i) <- false
let mark_seg_dirty t s = mark_block_dirty t (block_of_seg t s)

let dirty_blocks t =
  let acc = ref [] in
  for i = Array.length t.dirty - 1 downto 0 do
    if t.dirty.(i) then acc := i :: !acc
  done;
  !acc

let add_live t s ~bytes ~mtime =
  check t s;
  t.live.(s) <- t.live.(s) + bytes;
  assert (t.live.(s) <= seg_capacity t);
  if mtime > t.mtimes.(s) then t.mtimes.(s) <- mtime;
  mark_seg_dirty t s

let kill t s ~bytes =
  check t s;
  t.live.(s) <- t.live.(s) - bytes;
  assert (t.live.(s) >= 0);
  mark_seg_dirty t s

let set_clean t s =
  check t s;
  t.live.(s) <- 0;
  t.mtimes.(s) <- 0.0;
  mark_seg_dirty t s

let is_clean t s = live_bytes t s = 0

let clean_count t =
  let n = ref 0 in
  Array.iter (fun l -> if l = 0 then incr n) t.live;
  !n

let clean_segments t =
  let acc = ref [] in
  for s = nsegs t - 1 downto 0 do
    if t.live.(s) = 0 then acc := s :: !acc
  done;
  !acc

let dirty_segments t =
  let acc = ref [] in
  for s = nsegs t - 1 downto 0 do
    if t.live.(s) > 0 then acc := s :: !acc
  done;
  !acc

let block_addr t i = t.block_addrs.(i)
let set_block_addr t i addr = t.block_addrs.(i) <- addr
let nblocks t = Array.length t.block_addrs

let encode_block t i =
  let b = Bytes.make t.layout.Layout.block_size '\000' in
  let c = Codec.writer b in
  let lo = i * entries_per_block t in
  let hi = min (lo + entries_per_block t) (nsegs t) in
  for s = lo to hi - 1 do
    Codec.put_u32 c t.live.(s);
    Codec.put_u32 c 0;
    Codec.put_float c t.mtimes.(s)
  done;
  b

let decode_block t i b =
  let c = Codec.reader b in
  let lo = i * entries_per_block t in
  let hi = min (lo + entries_per_block t) (nsegs t) in
  for s = lo to hi - 1 do
    t.live.(s) <- Codec.get_u32 c;
    ignore (Codec.get_u32 c);
    t.mtimes.(s) <- Codec.get_float c
  done

let load layout ~read ~block_addrs =
  if Array.length block_addrs <> layout.Layout.usage_blocks then
    Types.corrupt
      "segment usage table: checkpoint has %d block addresses, layout wants %d"
      (Array.length block_addrs) layout.Layout.usage_blocks;
  let t = create layout in
  Array.iteri
    (fun i addr ->
      t.block_addrs.(i) <- addr;
      if addr <> Types.nil_addr then decode_block t i (read addr);
      t.dirty.(i) <- false)
    block_addrs;
  t

let utilization_histogram t ~bins ~exclude =
  let h = Lfs_util.Histogram.create ~bins in
  for s = 0 to nsegs t - 1 do
    if not (exclude s) then Lfs_util.Histogram.add h (utilization t s)
  done;
  h
