module Codec = Lfs_util.Bytes_codec

type t = {
  layout : Layout.t;
  locations : int array;   (* Iaddr.to_int; -1 = free *)
  versions : int array;
  atimes : float array;
  block_addrs : int array; (* map-block index -> current log address *)
  dirty : bool array;      (* per map block *)
  mutable alloc_hint : int;
}

let entries_per_block t = t.layout.Layout.imap_entries_per_block

let create layout =
  let n = layout.Layout.max_inodes in
  {
    layout;
    locations = Array.make n (Types.Iaddr.to_int Types.Iaddr.nil);
    versions = Array.make n 0;
    atimes = Array.make n 0.0;
    block_addrs = Array.make layout.Layout.imap_blocks Types.nil_addr;
    dirty = Array.make layout.Layout.imap_blocks true;
    alloc_hint = Types.root_ino;
  }

let max_inodes t = t.layout.Layout.max_inodes

let check_ino t ino =
  if ino < 0 || ino >= max_inodes t then
    Types.fs_error "inode number %d out of range [0, %d)" ino (max_inodes t)

let location t ino =
  check_ino t ino;
  Types.Iaddr.of_int t.locations.(ino)

let version t ino =
  check_ino t ino;
  t.versions.(ino)

let atime t ino =
  check_ino t ino;
  t.atimes.(ino)

let is_allocated t ino = not (Types.Iaddr.is_nil (location t ino))

let block_of_ino t ino = ino / entries_per_block t

let mark_block_dirty t i = t.dirty.(i) <- true
let clear_block_dirty t i = t.dirty.(i) <- false
let mark_ino_dirty t ino = mark_block_dirty t (block_of_ino t ino)

let set_location t ino iaddr =
  check_ino t ino;
  t.locations.(ino) <- Types.Iaddr.to_int iaddr;
  mark_ino_dirty t ino

let set_atime t ino time =
  check_ino t ino;
  t.atimes.(ino) <- time;
  mark_ino_dirty t ino

let allocate t =
  let n = max_inodes t in
  let rec scan tried ino =
    if tried >= n then Types.fs_error "inode map full (%d inodes)" n
    else
      let ino = if ino >= n then Types.root_ino else ino in
      if Types.Iaddr.is_nil (Types.Iaddr.of_int t.locations.(ino)) then begin
        t.alloc_hint <- ino + 1;
        ino
      end
      else scan (tried + 1) (ino + 1)
  in
  scan 0 (max Types.root_ino t.alloc_hint)

let free t ino =
  check_ino t ino;
  t.locations.(ino) <- Types.Iaddr.to_int Types.Iaddr.nil;
  t.versions.(ino) <- t.versions.(ino) + 1;
  if ino < t.alloc_hint then t.alloc_hint <- ino;
  mark_ino_dirty t ino

let bump_version t ino =
  check_ino t ino;
  t.versions.(ino) <- t.versions.(ino) + 1;
  mark_ino_dirty t ino

let block_addr t i = t.block_addrs.(i)
let set_block_addr t i addr = t.block_addrs.(i) <- addr
let nblocks t = Array.length t.block_addrs

let dirty_blocks t =
  let acc = ref [] in
  for i = Array.length t.dirty - 1 downto 0 do
    if t.dirty.(i) then acc := i :: !acc
  done;
  !acc

let encode_block t i =
  let b = Bytes.make t.layout.Layout.block_size '\000' in
  let c = Codec.writer b in
  let lo = i * entries_per_block t in
  let hi = min (lo + entries_per_block t) (max_inodes t) in
  for ino = lo to hi - 1 do
    Codec.put_int c t.locations.(ino);
    Codec.put_u32 c t.versions.(ino);
    Codec.put_u32 c 0;
    Codec.put_float c t.atimes.(ino)
  done;
  b

let decode_block t i b =
  let c = Codec.reader b in
  let lo = i * entries_per_block t in
  let hi = min (lo + entries_per_block t) (max_inodes t) in
  for ino = lo to hi - 1 do
    t.locations.(ino) <- Codec.get_int c;
    t.versions.(ino) <- Codec.get_u32 c;
    ignore (Codec.get_u32 c);
    t.atimes.(ino) <- Codec.get_float c
  done

let load layout ~read ~block_addrs =
  if Array.length block_addrs <> layout.Layout.imap_blocks then
    Types.corrupt "inode map: checkpoint has %d block addresses, layout wants %d"
      (Array.length block_addrs) layout.Layout.imap_blocks;
  let t = create layout in
  Array.iteri
    (fun i addr ->
      t.block_addrs.(i) <- addr;
      if addr <> Types.nil_addr then decode_block t i (read addr);
      t.dirty.(i) <- false)
    block_addrs;
  t

let iter_allocated t f =
  Array.iteri
    (fun ino loc ->
      let iaddr = Types.Iaddr.of_int loc in
      if not (Types.Iaddr.is_nil iaddr) then f ino iaddr)
    t.locations

let count_allocated t =
  let n = ref 0 in
  iter_allocated t (fun _ _ -> incr n);
  !n
