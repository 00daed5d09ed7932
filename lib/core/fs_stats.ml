module Metrics = Lfs_obs.Metrics

let total = Metrics.float_value

let write_cost m =
  let fresh = total m "fs.log.blocks_new" in
  if fresh = 0.0 then Float.nan
  else
    (fresh +. total m "fs.log.blocks_cleaner" +. total m "fs.cleaner.blocks_read")
    /. fresh

(* Every victim is read with live bytes in it, so the victims' own
   utilisation histogram is exactly the non-empty segments cleaned. *)
let avg_cleaned_u_nonempty m =
  match Metrics.value m "fs.cleaner.victim_fill" with
  | Some (Metrics.Summary { count; sum; _ }) when count > 0 ->
      sum /. float_of_int count
  | _ -> 0.0

let empty_fraction m =
  let cleaned = total m "fs.cleaner.segments_cleaned" in
  if cleaned = 0.0 then 0.0
  else total m "fs.cleaner.segments_cleaned_empty" /. cleaned

let inline_bytes_name kind = "log.inline_bytes." ^ Types.block_kind_name kind

(* Inode and dir-log bytes a summary carries count as their own kinds'
   share of the summary's block. *)
let log_bandwidth_fraction ~block_size m kind =
  let all = total m "fs.log.blocks_new" +. total m "fs.log.blocks_cleaner" in
  let inline k = total m ("fs." ^ inline_bytes_name k) /. float_of_int block_size in
  let blocks = total m ("fs.log.blocks." ^ Types.block_kind_name kind) in
  if all = 0.0 then 0.0
  else
    (match kind with
    | Types.Inode_block | Types.Dir_log -> blocks +. inline kind
    | Types.Summary -> blocks -. inline Types.Inode_block -. inline Types.Dir_log
    | Types.Data | Types.Indirect | Types.Dindirect | Types.Imap | Types.Seg_usage
      ->
        blocks)
    /. all
