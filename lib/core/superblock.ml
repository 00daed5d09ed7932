module Codec = Lfs_util.Bytes_codec
module Checksum = Lfs_util.Checksum
module Vdev = Lfs_disk.Vdev

type t = { config : Config.t; layout : Layout.t }

let magic = 0x4C46_5331 (* "LFS1" *)
let format_version = 5

let create config ~disk_blocks =
  { config; layout = Layout.compute config ~disk_blocks }

let encode_policy = function
  | Config.Greedy -> 0
  | Config.Cost_benefit -> 1
  | Config.Age_only -> 2
  | Config.Random_victim -> 3

let decode_policy = function
  | 0 -> Config.Greedy
  | 1 -> Config.Cost_benefit
  | 2 -> Config.Age_only
  | 3 -> Config.Random_victim
  | n -> Types.corrupt "superblock: unknown cleaning policy %d" n

let store t disk =
  let bs = t.layout.Layout.block_size in
  let b = Bytes.make bs '\000' in
  let c = Codec.at b 8 in
  Codec.put_u32 c magic;
  Codec.put_u32 c format_version;
  Codec.put_int c t.config.Config.block_size;
  Codec.put_int c t.config.Config.seg_blocks;
  Codec.put_int c t.config.Config.max_inodes;
  Codec.put_int c t.config.Config.clean_start;
  Codec.put_int c t.config.Config.clean_stop;
  Codec.put_int c t.config.Config.bg_clean_start;
  Codec.put_int c t.config.Config.bg_clean_stop;
  Codec.put_int c t.config.Config.segs_per_pass;
  Codec.put_int c t.config.Config.write_buffer_blocks;
  Codec.put_int c t.config.Config.cache_blocks;
  Codec.put_int c t.config.Config.checkpoint_interval_ops;
  Codec.put_int c t.config.Config.checkpoint_interval_blocks;
  Codec.put_u8 c (encode_policy t.config.Config.cleaning_policy);
  Codec.put_u8 c
    (match t.config.Config.grouping_policy with
    | Config.In_order -> 0
    | Config.Age_sort -> 1);
  Codec.put_u8 c
    (match t.config.Config.cleaner_read with
    | Config.Whole_segment -> 0
    | Config.Live_blocks -> 1);
  Codec.put_float c t.config.Config.demote_age_s;
  Codec.put_int c t.config.Config.promote_reads;
  Codec.put_int c t.config.Config.log_heads;
  (* Whole-block checksum over everything after the checksum field. *)
  let sum = Checksum.adler32 ~pos:8 b in
  let c0 = Codec.writer b in
  Codec.put_u32 c0 sum;
  Codec.put_u32 c0 0;
  Vdev.write_block disk 0 b

let load disk =
  let b = Vdev.read_block disk 0 in
  let c0 = Codec.reader b in
  let stored_sum = Codec.get_u32 c0 in
  let _pad = Codec.get_u32 c0 in
  let sum = Checksum.adler32 ~pos:8 b in
  if stored_sum <> sum then
    Types.corrupt "superblock: checksum mismatch (%x vs %x)" stored_sum sum;
  let c = Codec.at b 8 in
  let m = Codec.get_u32 c in
  if m <> magic then Types.corrupt "superblock: bad magic %x" m;
  let v = Codec.get_u32 c in
  if v <> format_version then Types.corrupt "superblock: unknown version %d" v;
  let block_size = Codec.get_int c in
  let seg_blocks = Codec.get_int c in
  let max_inodes = Codec.get_int c in
  let clean_start = Codec.get_int c in
  let clean_stop = Codec.get_int c in
  let bg_clean_start = Codec.get_int c in
  let bg_clean_stop = Codec.get_int c in
  let segs_per_pass = Codec.get_int c in
  let write_buffer_blocks = Codec.get_int c in
  let cache_blocks = Codec.get_int c in
  let checkpoint_interval_ops = Codec.get_int c in
  let checkpoint_interval_blocks = Codec.get_int c in
  let cleaning_policy = decode_policy (Codec.get_u8 c) in
  let grouping_policy =
    match Codec.get_u8 c with
    | 0 -> Config.In_order
    | 1 -> Config.Age_sort
    | n -> Types.corrupt "superblock: unknown grouping policy %d" n
  in
  let cleaner_read =
    match Codec.get_u8 c with
    | 0 -> Config.Whole_segment
    | 1 -> Config.Live_blocks
    | n -> Types.corrupt "superblock: unknown cleaner read policy %d" n
  in
  let demote_age_s = Codec.get_float c in
  let promote_reads = Codec.get_int c in
  let log_heads = Codec.get_int c in
  if block_size <> Vdev.block_size disk then
    Types.corrupt "superblock: block size %d but device has %d" block_size
      (Vdev.block_size disk);
  let config =
    {
      Config.block_size;
      seg_blocks;
      max_inodes;
      clean_start;
      clean_stop;
      bg_clean_start;
      bg_clean_stop;
      segs_per_pass;
      write_buffer_blocks;
      cache_blocks;
      checkpoint_interval_ops;
      checkpoint_interval_blocks;
      cleaning_policy;
      grouping_policy;
      cleaner_read;
      demote_age_s;
      promote_reads;
      log_heads;
    }
  in
  create config ~disk_blocks:(Vdev.nblocks disk)
