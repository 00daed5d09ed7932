type cleaning_policy = Greedy | Cost_benefit | Age_only | Random_victim
type grouping_policy = In_order | Age_sort
type cleaner_read_policy = Whole_segment | Live_blocks

type t = {
  block_size : int;
  seg_blocks : int;
  max_inodes : int;
  clean_start : int;
  clean_stop : int;
  bg_clean_start : int;
  bg_clean_stop : int;
  segs_per_pass : int;
  write_buffer_blocks : int;
  cache_blocks : int;
  checkpoint_interval_ops : int;
  checkpoint_interval_blocks : int;
  cleaning_policy : cleaning_policy;
  grouping_policy : grouping_policy;
  cleaner_read : cleaner_read_policy;
  demote_age_s : float;
  promote_reads : int;
  log_heads : int;
}

let default =
  {
    block_size = 4096;
    seg_blocks = 256;
    max_inodes = 65536;
    clean_start = 4;
    clean_stop = 8;
    bg_clean_start = 12;
    bg_clean_stop = 16;
    segs_per_pass = 8;
    write_buffer_blocks = 256;
    cache_blocks = 4096;
    checkpoint_interval_ops = 0;
    checkpoint_interval_blocks = 0;
    cleaning_policy = Cost_benefit;
    grouping_policy = Age_sort;
    cleaner_read = Whole_segment;
    demote_age_s = 64.0;
    promote_reads = 0;
    log_heads = 1;
  }

let small =
  {
    default with
    block_size = 1024;
    seg_blocks = 16;
    max_inodes = 512;
    clean_start = 3;
    clean_stop = 5;
    bg_clean_start = 7;
    bg_clean_stop = 9;
    segs_per_pass = 4;
    write_buffer_blocks = 16;
    cache_blocks = 64;
  }

let with_policy ?cleaning ?grouping t =
  let t =
    match cleaning with None -> t | Some p -> { t with cleaning_policy = p }
  in
  match grouping with None -> t | Some g -> { t with grouping_policy = g }

let validate t =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  if t.block_size < 512 then fail "Config: block_size %d < 512" t.block_size;
  if t.block_size land (t.block_size - 1) <> 0 then
    fail "Config: block_size %d is not a power of two" t.block_size;
  if t.seg_blocks < 4 then fail "Config: seg_blocks %d < 4" t.seg_blocks;
  if t.max_inodes < 2 then fail "Config: max_inodes %d < 2" t.max_inodes;
  if t.clean_start < 2 then fail "Config: clean_start %d < 2" t.clean_start;
  if t.clean_stop <= t.clean_start then
    fail "Config: clean_stop %d <= clean_start %d" t.clean_stop t.clean_start;
  if t.bg_clean_start < t.clean_start then
    fail "Config: bg_clean_start %d < clean_start %d (background must engage \
          before the emergency threshold)" t.bg_clean_start t.clean_start;
  if t.bg_clean_stop <= t.bg_clean_start then
    fail "Config: bg_clean_stop %d <= bg_clean_start %d" t.bg_clean_stop
      t.bg_clean_start;
  if t.segs_per_pass < 1 then fail "Config: segs_per_pass %d < 1" t.segs_per_pass;
  if t.write_buffer_blocks < 1 then
    fail "Config: write_buffer_blocks %d < 1" t.write_buffer_blocks;
  if not (t.demote_age_s >= 0.0) then
    fail "Config: demote_age_s %g < 0 (or NaN)" t.demote_age_s;
  if t.promote_reads < 0 then
    fail "Config: promote_reads %d < 0" t.promote_reads;
  if t.log_heads < 1 || t.log_heads > 8 then
    fail "Config: log_heads %d outside 1..8" t.log_heads

let cleaning_policy_name = function
  | Greedy -> "greedy"
  | Cost_benefit -> "cost-benefit"
  | Age_only -> "age-only"
  | Random_victim -> "random"

let grouping_policy_name = function In_order -> "in-order" | Age_sort -> "age-sort"

let cleaner_read_policy_name = function
  | Whole_segment -> "whole-segment"
  | Live_blocks -> "live-blocks"
