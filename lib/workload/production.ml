module Prng = Lfs_util.Prng
module Disk = Lfs_disk.Disk
module Fs = Lfs_core.Fs
module Types = Lfs_core.Types
module Fs_stats = Lfs_core.Fs_stats
module Metrics = Lfs_obs.Metrics

type spec = {
  name : string;
  disk_mb : int;
  seg_kb : int;
  mean_file_kb : float;
  target_util : float;
  traffic_to_disk_ratio : float;
  hot_fraction : float;
  hot_traffic : float;
  frozen_fraction : float;
  whole_file_writes : bool;
  create_delete_fraction : float;
  checkpoint_interval_ops : int;
  seed : int;
}

(* Disk sizes are the paper's divided by 20; everything else matches
   Table 2's description of each system. *)
let user6 =
  {
    name = "/user6";
    disk_mb = 64;
    seg_kb = 512;
    mean_file_kb = 23.5;
    target_util = 0.75;
    traffic_to_disk_ratio = 2.0;
    hot_fraction = 0.1;
    hot_traffic = 0.9;
    frozen_fraction = 0.75;
    whole_file_writes = true;
    create_delete_fraction = 0.3;
    checkpoint_interval_ops = 500;
    seed = 101;
  }

let pcs =
  {
    name = "/pcs";
    disk_mb = 48;
    seg_kb = 512;
    mean_file_kb = 10.5;
    target_util = 0.63;
    traffic_to_disk_ratio = 2.0;
    hot_fraction = 0.15;
    hot_traffic = 0.85;
    frozen_fraction = 0.7;
    whole_file_writes = true;
    create_delete_fraction = 0.35;
    checkpoint_interval_ops = 500;
    seed = 102;
  }

let src_kernel =
  {
    name = "/src/kernel";
    disk_mb = 64;
    seg_kb = 512;
    mean_file_kb = 37.5;
    target_util = 0.72;
    traffic_to_disk_ratio = 2.0;
    hot_fraction = 0.08;
    hot_traffic = 0.95;
    frozen_fraction = 0.8;
    whole_file_writes = true;
    create_delete_fraction = 0.5;
    checkpoint_interval_ops = 500;
    seed = 103;
  }

let tmp =
  {
    name = "/tmp";
    disk_mb = 16;
    seg_kb = 256;
    mean_file_kb = 28.9;
    target_util = 0.11;
    traffic_to_disk_ratio = 3.0;
    hot_fraction = 0.3;
    hot_traffic = 0.8;
    frozen_fraction = 0.0;
    whole_file_writes = true;
    create_delete_fraction = 0.7;
    checkpoint_interval_ops = 500;
    seed = 104;
  }

let swap2 =
  {
    name = "/swap2";
    disk_mb = 16;
    seg_kb = 256;
    mean_file_kb = 68.1;
    target_util = 0.65;
    traffic_to_disk_ratio = 3.0;
    hot_fraction = 0.25;
    hot_traffic = 0.75;
    frozen_fraction = 0.5;
    whole_file_writes = false;
    create_delete_fraction = 0.02;
    checkpoint_interval_ops = 500;
    seed = 105;
  }

let all = [ user6; pcs; src_kernel; tmp; swap2 ]

type result = {
  spec : spec;
  avg_file_size : float;
  in_use : float;
  segments_cleaned : int;
  cleaner_blocks_read : int;
  empty_fraction : float;
  avg_nonempty_u : float;
  write_cost : float;
  histogram : Lfs_util.Histogram.t;
  live_breakdown : (Types.block_kind * float) list;
  log_bandwidth : (Types.block_kind * float) list;
}

(* Heavy-tailed file sizes around the target mean: a 3:1 mix of
   exponential small files and a Pareto tail, which matches the paper's
   observation that most files are small but a few long files carry much
   of the data. *)
let sample_size prng ~mean_bytes ~max_bytes =
  let x =
    if Prng.bernoulli prng ~p:0.75 then
      Prng.exponential prng ~mean:(mean_bytes *. 0.4)
    else Prng.pareto prng ~alpha:1.6 ~x_min:(mean_bytes *. 0.8)
  in
  let x = Float.min x (Float.min (mean_bytes *. 50.0) max_bytes) in
  max 256 (int_of_float x)

let run ?(scale = 1.0) ?(policy = Lfs_core.Config.Cost_benefit)
    ?(cleaner_read = Lfs_core.Config.Whole_segment) spec =
  let prng = Prng.create ~seed:spec.seed in
  let disk_blocks = int_of_float (float_of_int (spec.disk_mb * 256) *. scale) in
  let geom = Lfs_disk.Geometry.wren_iv ~blocks:disk_blocks in
  let disk = Lfs_disk.Vdev.of_disk (Disk.create geom) in
  let config =
    {
      Lfs_core.Config.default with
      seg_blocks = spec.seg_kb * 1024 / 4096;
      max_inodes = 16384;
      write_buffer_blocks = spec.seg_kb * 1024 / 4096;
      checkpoint_interval_ops = spec.checkpoint_interval_ops;
      cleaning_policy = policy;
      cleaner_read;
    }
  in
  Fs.format disk config;
  let fs = Fs.mount disk in
  let mean_bytes = spec.mean_file_kb *. 1024.0 in
  let capacity = disk_blocks * 4096 in
  (* No single file may dominate a scaled-down disk. *)
  let max_bytes = float_of_int capacity /. 24.0 in
  let sample_size prng ~mean_bytes = sample_size prng ~mean_bytes ~max_bytes in
  (* Populate until the measured disk utilisation (which includes block
     rounding and metadata) reaches the target. *)
  let files = ref [] in
  let nfiles = ref 0 in
  ignore (Fs.mkdir_path fs "/data");
  let new_file_name () =
    incr nfiles;
    Printf.sprintf "/data/f%d" !nfiles
  in
  let payload size = Bytes.make size 'p' in
  while Fs.utilization fs < spec.target_util do
    let size = sample_size prng ~mean_bytes in
    let name = new_file_name () in
    Fs.write_path fs name (payload size);
    files := (name, size) :: !files
  done;
  let files = Array.of_list (List.rev !files) in
  let count = Array.length files in
  Fs.checkpoint fs;
  (* Measure from a steady start. *)
  let start = Metrics.snapshot (Fs.metrics fs) in
  let traffic_target =
    spec.traffic_to_disk_ratio *. float_of_int capacity *. scale
  in
  let traffic = ref 0.0 in
  let pick_file () =
    let n = Array.length files in
    let active = max 2 (n - int_of_float (spec.frozen_fraction *. float_of_int n)) in
    let nhot = max 1 (int_of_float (spec.hot_fraction *. float_of_int active)) in
    if Prng.bernoulli prng ~p:spec.hot_traffic then Prng.int prng nhot
    else nhot + Prng.int prng (max 1 (active - nhot))
  in
  while !traffic < traffic_target do
    let i = pick_file () mod count in
    let name, size = files.(i) in
    if spec.whole_file_writes then begin
      if Prng.bernoulli prng ~p:spec.create_delete_fraction then begin
        (* Delete and recreate with a fresh size: whole-file turnover. *)
        (match Fs.resolve fs name with
        | Some _ ->
            let dir, leaf =
              match String.rindex_opt name '/' with
              | Some i ->
                  ( Option.get (Fs.resolve fs (String.sub name 0 (max 1 i))),
                    String.sub name (i + 1) (String.length name - i - 1) )
              | None -> (Fs.root, name)
            in
            Fs.unlink fs ~dir leaf
        | None -> ());
        (* Bound the random walk in total live data so utilisation stays
           near the target on small scaled disks. *)
        let size' = sample_size prng ~mean_bytes in
        let size' =
          if Fs.utilization fs > spec.target_util +. 0.02 then min size' size
          else size'
        in
        Fs.write_path fs name (payload size');
        files.(i) <- (name, size');
        traffic := !traffic +. float_of_int size'
      end
      else begin
        Fs.write_path fs name (payload size);
        traffic := !traffic +. float_of_int size
      end
    end
    else begin
      (* Swap-like: backing store is rewritten in large extents when a
         process pages out, with occasional single-page updates.  The
         allocation (and hence utilisation) stays stable. *)
      let pages = max 1 (size / 4096) in
      let extent =
        if Prng.bernoulli prng ~p:0.7 then min pages (16 + Prng.int prng 48)
        else 1
      in
      let start = Prng.int prng (max 1 (pages - extent + 1)) in
      let bytes = extent * 4096 in
      (match Fs.resolve fs name with
      | Some ino -> Fs.write fs ino ~off:(start * 4096) (payload bytes)
      | None -> Fs.write_path fs name (payload bytes));
      traffic := !traffic +. float_of_int bytes
    end
  done;
  Fs.checkpoint fs;
  let breakdown = Fs.live_breakdown fs in
  let total_live = float_of_int breakdown.Fs.total_bytes in
  let live_breakdown =
    List.map
      (fun (k, b) -> (k, if total_live = 0.0 then 0.0 else float_of_int b /. total_live))
      breakdown.Fs.by_kind
  in
  let window = Metrics.diff start (Metrics.snapshot (Fs.metrics fs)) in
  let total name = int_of_float (Metrics.float_value window name) in
  let log_bandwidth =
    List.map
      (fun k ->
        (k, Fs_stats.log_bandwidth_fraction
             ~block_size:config.Lfs_core.Config.block_size window k))
      Types.all_block_kinds
  in
  let avg_file_size =
    Array.fold_left (fun acc (_, s) -> acc +. float_of_int s) 0.0 files
    /. float_of_int count
  in
  {
    spec;
    avg_file_size;
    in_use = Fs.utilization fs;
    segments_cleaned = total "fs.cleaner.segments_cleaned";
    cleaner_blocks_read = total "fs.cleaner.blocks_read";
    empty_fraction = Fs_stats.empty_fraction window;
    avg_nonempty_u = Fs_stats.avg_cleaned_u_nonempty window;
    write_cost = Fs_stats.write_cost window;
    histogram = Fs.segment_histogram fs ~bins:50;
    live_breakdown;
    log_bandwidth;
  }
