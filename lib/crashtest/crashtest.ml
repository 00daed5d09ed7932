module Prng = Lfs_util.Prng
module Vdev_fault = Lfs_disk.Vdev_fault
module Fsops = Lfs_workload.Fsops
module Refine = Lfs_model.Refine

(* Subjects come from the volume recipe ({!Lfs_spec.Spec.subject}); the
   enumeration, the per-point verification and the crash-state oracle
   are [Refine.sweep]'s — the one crash sweep shared with the model
   refinement checker ([lfs_tool modelcheck]).  This harness only
   supplies the workloads, run under a recorder at io-depth 1, and its
   report. *)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = { wname : string; run : Fsops.t -> unit }

let smallfile ?(nfiles = 48) ?(file_size = 1024) ?(files_per_dir = 12) () =
  let p =
    { Lfs_workload.Smallfile.default_params with nfiles; file_size; files_per_dir }
  in
  {
    wname = Printf.sprintf "smallfile(n=%d,size=%d)" nfiles file_size;
    run = (fun fsops -> ignore (Lfs_workload.Smallfile.run p fsops));
  }

let andrew ?(dirs = 4) ?(files = 16) ?(file_bytes = 2048) () =
  let p = { Lfs_workload.Andrew.default_params with dirs; files; file_bytes } in
  {
    wname = Printf.sprintf "andrew(dirs=%d,files=%d)" dirs files;
    run = (fun fsops -> ignore (Lfs_workload.Andrew.run p fsops));
  }

let script ?(ops = 60) ~seed () =
  let run (fs : Fsops.t) =
    let prng = Prng.create ~seed in
    let dirs = [| "/w0"; "/w1" |] in
    Array.iter (fun d -> ignore (fs.Fsops.mkdir_path d)) dirs;
    fs.Fsops.sync ();
    let path i = Printf.sprintf "%s/f%d" dirs.(i mod 2) (i mod 6) in
    let fresh_bytes len =
      Bytes.init len (fun _ -> Char.chr (Char.code 'a' + Prng.int prng 26))
    in
    for _step = 1 to ops do
      let p = path (Prng.int prng 12) in
      match Prng.int prng 10 with
      | 0 | 1 | 2 | 3 ->
          (* create-or-overwrite with fresh content *)
          let data = fresh_bytes (1 + Prng.int prng 20_000) in
          let ino =
            match fs.Fsops.resolve p with
            | Some ino -> ino
            | None -> fs.Fsops.create_path p
          in
          fs.Fsops.write ino ~off:0 data
      | 4 | 5 -> (
          (* append *)
          match fs.Fsops.resolve p with
          | Some ino ->
              let data = fresh_bytes (1 + Prng.int prng 6_000) in
              fs.Fsops.write ino ~off:(fs.Fsops.file_size ino) data
          | None -> ())
      | 6 -> (
          match fs.Fsops.resolve (Filename.dirname p) with
          | Some dir when fs.Fsops.resolve p <> None ->
              fs.Fsops.unlink ~dir (Filename.basename p)
          | _ -> ())
      | 7 -> fs.Fsops.sync ()
      | _ -> (
          match fs.Fsops.resolve p with
          | Some ino ->
              let len = min 4096 (fs.Fsops.file_size ino) in
              if len > 0 then ignore (fs.Fsops.read ino ~off:0 ~len)
          | None -> ())
    done
  in
  { wname = Printf.sprintf "script(seed=%d,ops=%d)" seed ops; run }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type failure = Refine.divergence = {
  cut : int;
  mode : Vdev_fault.mode;
  stage : string;
  detail : string;
}

type report = {
  subject : string;
  workload : string;
  seed : int;
  total_blocks : int;
  points : int;
  crashes : int;
  fsck_failures : failure list;
  oracle_failures : failure list;
}

let is_clean r = r.fsck_failures = [] && r.oracle_failures = []

let pp_failure ppf f =
  Format.fprintf ppf "cut %d (%s) %s: %s" f.cut
    (Vdev_fault.mode_name f.mode)
    f.stage f.detail

let pp_report ppf r =
  Format.fprintf ppf "crashtest: subject=%s workload=%s seed=%d@\n" r.subject
    r.workload r.seed;
  Format.fprintf ppf "  crash-point space: %d blocks; replayed %d point%s (%d crashed)@\n"
    r.total_blocks r.points
    (if r.points = 1 then "" else "s")
    r.crashes;
  Format.fprintf ppf "  fsck/recovery failures: %d@\n" (List.length r.fsck_failures);
  Format.fprintf ppf "  oracle divergences:     %d@\n" (List.length r.oracle_failures);
  let show label fs =
    List.iteri
      (fun i f ->
        if i < 10 then Format.fprintf ppf "  %s %a@\n" label pp_failure f
        else if i = 10 then Format.fprintf ppf "  %s ...@\n" label)
      fs
  in
  show "FSCK" r.fsck_failures;
  show "ORACLE" r.oracle_failures;
  Format.fprintf ppf "  %s (replay with seed %d)"
    (if is_clean r then "PASS" else "FAIL")
    r.seed

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

let run ?blocks ?stride ?cuts ?(seed = 0) spec (w : workload) =
  let module S = (val Lfs_spec.Spec.subject spec) in
  let module R = Refine.Make (S) in
  let r = R.sweep ?blocks ?stride ?cuts ~seed ~seq:(-1) (R.recorded w.run) in
  let oracle_failures, fsck_failures =
    List.partition (fun (f : failure) -> f.stage = "oracle") r.divergences
  in
  {
    subject = r.subject;
    workload = w.wname;
    seed;
    total_blocks = r.total_blocks;
    points = r.points;
    crashes = r.crashes;
    fsck_failures;
    oracle_failures;
  }
