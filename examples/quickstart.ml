(* Quickstart: create a log-structured file system on a simulated disk,
   use it like any file system, survive a power cut, and look at the
   statistics the paper is about.

   Run with:  dune exec examples/quickstart.exe *)

module Disk = Lfs_disk.Disk
module Fs = Lfs_core.Fs

let () =
  (* A 64 MB disk with the timing characteristics of the paper's
     Wren IV (1.3 MB/s, 17.5 ms average seek). *)
  let disk = Lfs_disk.Vdev.of_disk (Disk.create (Lfs_disk.Geometry.wren_iv ~blocks:16384)) in

  (* mkfs + mount. *)
  Fs.format disk Lfs_core.Config.default;
  let fs = Fs.mount disk in

  (* Ordinary file-system work, via the path helpers. *)
  ignore (Fs.mkdir_path fs "/home");
  ignore (Fs.mkdir_path fs "/home/alice");
  Fs.write_path fs "/home/alice/notes.txt"
    (Bytes.of_string "log-structured file systems write sequentially\n");
  Fs.write_path fs "/home/alice/todo.txt" (Bytes.of_string "read the paper");

  Printf.printf "notes.txt: %s"
    (Bytes.to_string (Option.get (Fs.read_path fs "/home/alice/notes.txt")));
  Printf.printf "/home/alice contains: %s\n"
    (String.concat ", "
       (List.map fst (Fs.readdir fs (Option.get (Fs.resolve fs "/home/alice")))));

  (* Rename is atomic — the directory operation log guarantees it even
     across crashes. *)
  let alice = Option.get (Fs.resolve fs "/home/alice") in
  Fs.rename fs ~odir:alice "todo.txt" ~ndir:alice "done.txt";

  (* Make everything durable, then write something more and cut the
     power before the next checkpoint... *)
  Fs.checkpoint fs;
  Fs.write_path fs "/home/alice/draft.txt" (Bytes.of_string "unsaved work");
  Fs.sync fs;
  (* ... the data is in the log but no checkpoint covers it.  A reboot
     with roll-forward recovers it from the log tail. *)
  let fs', report = Fs.recover disk in
  Printf.printf "recovered %d inodes from %d log writes after the crash\n"
    report.Fs.inodes_recovered report.Fs.writes_replayed;
  Printf.printf "draft.txt survived: %S\n"
    (Bytes.to_string (Option.get (Fs.read_path fs' "/home/alice/draft.txt")));

  (* The numbers the paper cares about. *)
  let m = Fs.metrics fs' in
  Printf.printf "disk utilisation %.1f%%, write cost %.2f, %.0f checkpoints\n"
    (100.0 *. Fs.utilization fs')
    (Lfs_core.Fs_stats.write_cost m)
    (Lfs_obs.Metrics.float_value m "fs.checkpoints");

  (* And the integrity check used throughout the test suite. *)
  let r = Lfs_core.Fsck.check fs' in
  Format.printf "%a@." Lfs_core.Fsck.pp_report r
