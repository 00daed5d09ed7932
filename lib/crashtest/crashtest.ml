module Prng = Lfs_util.Prng
module Vdev = Lfs_disk.Vdev
module Vdev_fault = Lfs_disk.Vdev_fault
module Fsops = Lfs_workload.Fsops
module Model = Lfs_model.Fs_model

(* Subjects come from the volume recipe ({!Lfs_shard.Spec.subject}); the
   crash-state oracle and the per-point verification (reboot, recover,
   fsck, walk, oracle) come from [Lfs_model.Refine] — one definition of
   crash semantics shared with the model-based refinement checker
   ([lfs_tool modelcheck]).  This harness keeps its own
   enumeration loop because it exercises a different fault surface:
   device-level Torn/Dropped/Reordered transfers under synchronous
   submission, where the refinement driver cuts the queued elevator in
   commit order. *)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = { wname : string; run : Lfs_workload.Fsops.t -> unit }

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

type failure = {
  cut : int;
  mode : Lfs_disk.Vdev_fault.mode;
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

let run ?(blocks = 1024) ?(stride = 1) ?cuts ?(seed = 0)
    ?(modes = [ Vdev_fault.Torn; Dropped; Reordered ]) spec (w : workload) =
  let module S = (val Lfs_shard.Spec.subject spec) in
  let module R = Lfs_model.Refine.Make (S) in
  if stride < 1 then invalid_arg "Crashtest.run: stride";
  if modes = [] then invalid_arg "Crashtest.run: modes";
  (* Reference run: learn the crash-point space. *)
  let fault, devs = R.fresh_fault ~blocks ~seed in
  S.format devs;
  let base = Vdev_fault.blocks_written fault in
  let fs = S.mount devs in
  let recorder = Model.Recorder.create ~root:S.root in
  w.run (Model.Recorder.instrument recorder (R.make_fsops fs));
  let total = Vdev_fault.blocks_written fault - base in
  let bs = (List.hd devs).Vdev.block_size in
  let points = R.select_points ?cuts ~stride total in
  let mode_rng = Prng.create ~seed:(seed lxor 0x1fe3a9) in
  let mode_arr = Array.of_list modes in
  let crashes = ref 0 in
  let fsck_failures = ref [] and oracle_failures = ref [] in
  List.iter
    (fun cut ->
      let mode = mode_arr.(Prng.int mode_rng (Array.length mode_arr)) in
      let fail bucket stage detail =
        bucket := { cut; mode; stage; detail } :: !bucket
      in
      let fault, devs = R.fresh_fault ~blocks ~seed in
      S.format devs;
      Vdev_fault.plan_crash fault ~mode ~after_blocks:cut ();
      let r = Model.Recorder.create ~root:S.root in
      let crashed =
        try
          let fs = S.mount devs in
          w.run (Model.Recorder.instrument r (R.make_fsops fs));
          false
        with Vdev.Crashed -> true
      in
      if crashed then incr crashes
      else fail fsck_failures "replay" "power cut never fired (non-deterministic workload?)";
      match
        R.verify ~bs ~events:(Model.Recorder.events r)
          ~durable:(Model.Recorder.durable r) ~upto:(Model.Recorder.op r)
          ~fault ~devs
      with
      | None -> ()
      | Some ("oracle", detail) -> fail oracle_failures "oracle" detail
      | Some (stage, detail) -> fail fsck_failures stage detail)
    points;
  {
    subject = S.subject_name;
    workload = w.wname;
    seed;
    total_blocks = total;
    points = List.length points;
    crashes = !crashes;
    fsck_failures = List.rev !fsck_failures;
    oracle_failures = List.rev !oracle_failures;
  }
