module Disk = Lfs_disk.Disk
module Io_stats = Lfs_disk.Io_stats
module Fs = Lfs_core.Fs

type params = { file_kb : int; data_mb : int; disk_mb : int; cpu : Cpu_model.t }

type result = {
  params : params;
  recovery_s : float;
  disk_s : float;
  cpu_s : float;
  files_recovered : int;
  writes_replayed : int;
  segments_scanned : int;
  phases : Fs.recovery_phase list;
}

(* 1 KB blocks so a 1 KB file costs ~1 KB of log, as in Sprite; the
   paper's grid writes up to 50 MB of 1 KB files. *)
let geometry p =
  { (Lfs_disk.Geometry.wren_iv ~blocks:(p.disk_mb * 1024)) with
    block_size = 1024 }

(* Format, mount and populate, stopping just short of the final sync:
   a checkpoint, then [data_mb] of fresh files living only in the log. *)
let prepare p disk =
  let nfiles = p.data_mb * 1024 / p.file_kb in
  (* Infinite checkpoint interval, as in the paper's special LFS; the
     inode map is sized to the experiment so loading it does not dwarf
     the roll-forward being measured. *)
  let config =
    {
      Lfs_core.Config.default with
      block_size = 1024;
      seg_blocks = 1024;
      write_buffer_blocks = 1024;
      max_inodes = max 4096 (nfiles * 5 / 4);
      checkpoint_interval_ops = 0;
    }
  in
  Fs.format disk config;
  let fs = Fs.mount disk in
  let payload = Bytes.make (p.file_kb * 1024) 'r' in
  let files_per_dir = 1000 in
  for d = 0 to ((nfiles - 1) / files_per_dir) do
    ignore (Fs.mkdir_path fs (Printf.sprintf "/d%d" d))
  done;
  Fs.checkpoint fs;
  for i = 0 to nfiles - 1 do
    let ino =
      Fs.create_path fs (Printf.sprintf "/d%d/f%d" (i / files_per_dir) i)
    in
    Fs.write fs ino ~off:0 payload
  done;
  fs

let measure p disk =
  let before = Io_stats.copy (Lfs_disk.Vdev.stats disk) in
  let _fs2, report = Fs.recover disk in
  let after = Lfs_disk.Vdev.stats disk in
  let disk_s = (Io_stats.diff after before).Io_stats.busy_s in
  (* Roll-forward work per inode is lighter than a full syscall: charge
     half the per-operation cost, plus the handling of each payload
     block it reads and checksums.  Data blocks it only references by
     address cost nothing. *)
  let cpu_s =
    Cpu_model.cost p.cpu ~ops:(report.Fs.inodes_recovered / 2)
      ~blocks:report.Fs.blocks_verified
  in
  {
    params = p;
    recovery_s = disk_s +. cpu_s;
    disk_s;
    cpu_s;
    files_recovered = report.Fs.inodes_recovered;
    writes_replayed = report.Fs.writes_replayed;
    segments_scanned = report.Fs.segments_scanned;
    phases = report.Fs.phases;
  }

let run p =
  let disk = Lfs_disk.Vdev.of_disk (Disk.create (geometry p)) in
  let fs = prepare p disk in
  Fs.sync fs;
  (* Crash: abandon the mounted state and roll the disk forward. *)
  measure p disk

let run_crashed ?(mode = Lfs_disk.Vdev_fault.Torn) ?(seed = 0) p =
  let fault =
    Lfs_disk.Vdev_fault.create ~seed
      (Lfs_disk.Vdev.of_disk (Disk.create (geometry p)))
  in
  let disk = Lfs_disk.Vdev_fault.vdev fault in
  let fs = prepare p disk in
  (* Cut the power a few blocks into the final flush, so the log ends in
     a torn / dropped / reordered write exactly as a real power failure
     would leave it.  Recovery must discard the incomplete tail and roll
     forward everything before it. *)
  Lfs_disk.Vdev_fault.plan_crash fault ~mode ~after_blocks:4 ();
  (match Fs.sync fs with () -> () | exception Lfs_disk.Vdev.Crashed -> ());
  Lfs_disk.Vdev_fault.reboot fault;
  measure p disk

let table3 ?(disk_mb = 160) () =
  List.concat_map
    (fun file_kb ->
      List.map
        (fun data_mb ->
          let r =
            run { file_kb; data_mb; disk_mb; cpu = Cpu_model.sun4_260 }
          in
          (file_kb, data_mb, r))
        [ 1; 10; 50 ])
    [ 1; 10; 100 ]
