type t = {
  block_size : int;
  seg_blocks : int;
  max_inodes : int;
  nsegs : int;
  seg_start : int;
  ckpt_blocks : int;
  ckpt_a : int;
  ckpt_b : int;
  imap_blocks : int;
  usage_blocks : int;
  inode_size : int;
  inodes_per_block : int;
  imap_entries_per_block : int;
  usage_entries_per_block : int;
  addrs_per_block : int;
}

let inode_size = Inode.slot_size
let imap_entry_size = 24
let usage_entry_size = 16
let ckpt_header_size = 96

let cdiv a b = (a + b - 1) / b

let compute (c : Config.t) ~disk_blocks =
  Config.validate c;
  let block_size = c.Config.block_size in
  let imap_entries_per_block = block_size / imap_entry_size in
  let usage_entries_per_block = block_size / usage_entry_size in
  let imap_blocks = cdiv c.Config.max_inodes imap_entries_per_block in
  (* Upper bound on segments, used to size the usage table; the real
     count is computed below and can only be smaller. *)
  let nsegs_bound = disk_blocks / c.Config.seg_blocks in
  let usage_blocks = cdiv nsegs_bound usage_entries_per_block in
  let ckpt_payload = ckpt_header_size + ((imap_blocks + usage_blocks) * 8) in
  let ckpt_blocks = cdiv ckpt_payload block_size in
  let seg_start = 1 + (2 * ckpt_blocks) in
  let nsegs = (disk_blocks - seg_start) / c.Config.seg_blocks in
  (* Every head pins two segments (current + reservation); the clean
     pool must still recover above the stop watermark beyond those. *)
  let need = c.Config.clean_stop + (2 * c.Config.log_heads) in
  if nsegs < need then
    invalid_arg
      (Printf.sprintf
         "Layout.compute: only %d segments fit after the fixed area; need %d"
         nsegs need);
  {
    block_size;
    seg_blocks = c.Config.seg_blocks;
    max_inodes = c.Config.max_inodes;
    nsegs;
    seg_start;
    ckpt_blocks;
    ckpt_a = 1;
    ckpt_b = 1 + ckpt_blocks;
    imap_blocks;
    usage_blocks;
    inode_size;
    inodes_per_block = block_size / inode_size;
    imap_entries_per_block;
    usage_entries_per_block;
    addrs_per_block = block_size / 8;
  }

let seg_first_block t s =
  assert (s >= 0 && s < t.nsegs);
  t.seg_start + (s * t.seg_blocks)

let seg_of_block t addr =
  if addr < t.seg_start then -1 else (addr - t.seg_start) / t.seg_blocks

let max_file_blocks t =
  10 + t.addrs_per_block + (t.addrs_per_block * t.addrs_per_block)

let pp ppf t =
  Format.fprintf ppf
    "layout: %d segs x %d blk (start %d), ckpt %d+%d blk @ %d/%d, imap %d blk, usage %d blk"
    t.nsegs t.seg_blocks t.seg_start t.ckpt_blocks t.ckpt_blocks t.ckpt_a
    t.ckpt_b t.imap_blocks t.usage_blocks

let read_runs t ~read addrs f =
  let n = Array.length addrs in
  let i = ref 0 in
  while !i < n do
    if addrs.(!i) = Types.nil_addr then incr i
    else begin
      let first = !i in
      incr i;
      while !i < n && addrs.(!i) = addrs.(!i - 1) + 1 do
        incr i
      done;
      let b = read addrs.(first) (!i - first) in
      for k = first to !i - 1 do
        f k b ~pos:((k - first) * t.block_size)
      done
    end
  done
