(* Watching the segment cleaner at work (Sections 3.4-3.6).

   Runs a hot-and-cold overwrite workload on a small disk under the
   greedy and the cost-benefit cleaning policies, printing the segment
   utilisation distribution and the measured write cost — the live
   version of Figures 5-7.

   Run with:  dune exec examples/cleaner_tuning.exe *)

module Disk = Lfs_disk.Disk
module Fs = Lfs_core.Fs
module Prng = Lfs_util.Prng

let run_policy policy =
  let disk = Lfs_disk.Vdev.of_disk (Disk.create (Lfs_disk.Geometry.wren_iv ~blocks:16384)) in
  let config =
    {
      Lfs_core.Config.default with
      seg_blocks = 64;
      write_buffer_blocks = 64;
      cleaning_policy = policy;
    }
  in
  Fs.format disk config;
  let fs = Fs.mount disk in
  let prng = Prng.create ~seed:11 in
  (* Fill to ~75%: 120 files of ~384 KB total is about 48 MB. *)
  let nfiles = 120 in
  for i = 0 to nfiles - 1 do
    Fs.write_path fs
      (Printf.sprintf "/f%03d" i)
      (Bytes.make (380_000 + Prng.int prng 20_000) 'd')
  done;
  (* Hot-and-cold churn: 90% of writes hit 10% of the files. *)
  for _ = 1 to 1500 do
    let i =
      if Prng.bernoulli prng ~p:0.9 then Prng.int prng (nfiles / 10)
      else Prng.int prng nfiles
    in
    Fs.write_path fs
      (Printf.sprintf "/f%03d" i)
      (Bytes.make (380_000 + Prng.int prng 20_000) 'h')
  done;
  (* The registry counts from mount: the whole run is the window. *)
  let m = Fs.metrics fs in
  Printf.printf
    "%-13s: write cost %.2f, %4.0f segments cleaned (%2.0f%% empty), avg u of \
     non-empty %.2f\n"
    (Lfs_core.Config.cleaning_policy_name policy)
    (Lfs_core.Fs_stats.write_cost m)
    (Lfs_obs.Metrics.float_value m "fs.cleaner.segments_cleaned")
    (100.0 *. Lfs_core.Fs_stats.empty_fraction m)
    (Lfs_core.Fs_stats.avg_cleaned_u_nonempty m);
  let h = Fs.segment_histogram fs ~bins:10 in
  Printf.printf "  segment utilisation distribution:\n";
  Array.iter
    (fun (x, f) ->
      Printf.printf "    %.2f %s\n" x
        (String.make (int_of_float (f *. 120.0)) '#'))
    (Lfs_util.Histogram.to_series h)

let () =
  print_endline "Hot-and-cold churn at ~75% utilisation, 256 KB segments:";
  List.iter run_policy
    [ Lfs_core.Config.Greedy; Lfs_core.Config.Cost_benefit ]
