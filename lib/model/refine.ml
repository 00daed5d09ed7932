(* The crash sweep: the one per-cut replay loop in the tree.

   A {!driver} runs one workload over a freshly mounted volume while a
   shadow model records what the oracle needs ({!trace}).  [sweep]
   performs a reference run (no fault) to learn the crash-point space —
   every payload block device 0 receives — then replays the workload
   from scratch once per enumerated point ([once]), cutting the power at
   exactly that block in the mode [mode_for ~seed cut] picks, rebooting,
   recovering, and asking {!Fs_model.check} whether the surviving
   namespace is some state between the durability frontier and the
   crash op.

   Three drivers feed it: [scripted] runs a model op sequence and checks
   the model in the *logical* direction on every op too (backend
   acceptance must match {!Fs_model.step} acceptance exactly); with
   [io_depth > 1] the devices run in queued submission, the driver keeps
   about [io_depth] transfers in flight via {!Lfs_disk.Vdev.pump}, and
   every generated [Sync] is a group-commit barrier.  [recorded] runs
   any {!Fsops} workload under a {!Fs_model.Recorder} — the serving
   engine ([check_engine]) and the crashtest workloads, which run at
   io-depth 1 (Direct). *)

module Prng = Lfs_util.Prng
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Vdev_fault = Lfs_disk.Vdev_fault
module Geometry = Lfs_disk.Geometry
module Fsops = Lfs_workload.Fsops
module Types = Lfs_core.Types
module Engine = Lfs_server.Engine

(* [mode] is the crash mode the cut was replayed with. *)
type divergence = {
  cut : int;
  mode : Vdev_fault.mode;
  stage : string;
  detail : string;
}

type seq_report = {
  subject : string;
  seed : int;
  seq : int;
  ops : int;
  total_blocks : int;
  points : int;
  crashes : int;
  divergences : divergence list;
}

let seq_clean r = r.divergences = []

let pp_divergence ppf d =
  Format.fprintf ppf "cut %d %s: %s" d.cut d.stage d.detail

let pp_seq_report ppf r =
  Format.fprintf ppf
    "modelcheck: subject=%s seed=%d seq=%d ops=%d space=%d points=%d crashes=%d"
    r.subject r.seed r.seq r.ops r.total_blocks r.points r.crashes;
  List.iteri
    (fun i d ->
      if i < 10 then Format.fprintf ppf "@\n  DIVERGENCE %a" pp_divergence d
      else if i = 10 then Format.fprintf ppf "@\n  DIVERGENCE ...")
    r.divergences;
  Format.fprintf ppf "@\n  %s (replay with --seed %d, sequence %d)"
    (if seq_clean r then "PASS" else "FAIL")
    r.seed r.seq

exception Semantics of string

(* Crash modes keyed by (seed, cut), not by enumeration position, so a
   single (seed, cut) pair replays bit-identically no matter which other
   points ran. *)
let mode_for ~seed cut =
  let r = Prng.create ~seed:(seed lxor 0x1fe3a9 lxor (cut * 0x85ebca6b)) in
  [| Vdev_fault.Torn; Dropped; Reordered |].(Prng.int r 3)

let select_points ?cuts ~stride total =
  match cuts with
  | Some cs -> List.filter (fun c -> c >= 0 && c < total) cs
  | None ->
      let rec gen i acc =
        if i >= total then acc else gen (i + stride) (i :: acc)
      in
      let pts = gen 0 [] in
      let pts =
        if total > 0 && not (List.mem (total - 1) pts) then
          (total - 1) :: pts
        else pts
      in
      List.rev pts

(* What a run leaves for the oracle: the ops issued ([upto]), the last
   completed sync barrier ([durable]) and the numbered model events. *)
type trace = { upto : int; durable : int; events : (int * Fs_model.event) list }

module Make (S : Lfs_spec.Spec.SUBJECT) = struct
  module Ops = Fsops.Make (S)

  let make_fsops fs =
    Ops.make ~name:S.subject_name ~async_writes:S.async_writes fs

  (* [S.ndevices] fresh devices; device 0 wears the fault layer, so the
     crash-point space is that device's writes — for multi-device
     subjects the other devices never crash and the oracle checks their
     durable state survives a neighbour's power cut. *)
  let fresh_fault ~blocks ~seed =
    let mk () = Vdev.of_disk (Disk.create (Geometry.instant ~blocks)) in
    let fault = Vdev_fault.create ~seed (mk ()) in
    let rest = List.init (S.ndevices - 1) (fun _ -> mk ()) in
    (fault, Vdev_fault.vdev fault :: rest)

  (* Service queued transfers until at most [io_depth] remain in
     flight.  The counter clock only ever moves forward, so horizons
     computed at submit time are always reachable. *)
  let settle ~now ~io_depth devs =
    List.iter
      (fun d ->
        let guard = ref 0 in
        while
          Vdev.outstanding_in d ~lo:0 ~hi:max_int > io_depth
          && !guard < 1_000_000
        do
          incr guard;
          now := !now +. 1.0;
          ignore (Vdev.pump d ~now:!now)
        done)
      devs

  (* One op against the backend.  Logical rejections surface as
     {!Types.Fs_error}; anything else escapes. *)
  let exec (fsops : Fsops.t) op =
    let dir_ino p =
      match fsops.Fsops.resolve p with
      | Some ino -> ino
      | None -> Types.fs_error "%s: no such directory" p
    in
    let file_ino p =
      match fsops.Fsops.resolve p with
      | Some ino -> ino
      | None -> Types.fs_error "%s: no such file" p
    in
    match op with
    | Fs_model.Mkdir p -> ignore (fsops.Fsops.mkdir_path p)
    | Fs_model.Create p -> ignore (fsops.Fsops.create_path p)
    | Fs_model.Write { path; off; data } ->
        fsops.Fsops.write (file_ino path) ~off data
    | Fs_model.Truncate { path; len } ->
        fsops.Fsops.truncate (file_ino path) ~len
    | Fs_model.Rename { src; dst } ->
        let odir = dir_ino (Fs_model.parent src) in
        let ndir = dir_ino (Fs_model.parent dst) in
        fsops.Fsops.rename ~odir (Fs_model.leaf src) ~ndir (Fs_model.leaf dst)
    | Fs_model.Remove p ->
        fsops.Fsops.unlink ~dir:(dir_ino (Fs_model.parent p)) (Fs_model.leaf p)
    | Fs_model.Rmdir p ->
        fsops.Fsops.rmdir ~dir:(dir_ino (Fs_model.parent p)) (Fs_model.leaf p)
    | Fs_model.Sync -> fsops.Fsops.sync ()

  (* A workload to sweep.  [driver ()] sets up fresh shadow state and
     returns the function that runs the workload on a mounted volume and
     its devices, and the function that reads the shadow's trace — also
     after a power cut stopped the run part-way. *)
  type driver = unit -> (Fsops.t -> Vdev.t list -> unit) * (unit -> trace)

  (* Run a model op sequence, shadowing each op with {!Fs_model.step}.
     Events are recorded *before* execution (a crash mid-op may persist
     part of the effect).  The durability frontier advances only when a
     [Sync]'s barrier completes — i.e. when the backend sync returns.
     A final flush outside the op list extends the crash-point space;
     the frontier stays at the last recorded [Sync] unless that barrier
     completes too. *)
  let scripted ~io_depth ops () =
    let st = ref Fs_model.empty and events_rev = ref [] in
    let opn = ref 0 and durable = ref 0 in
    let step fsops op =
      incr opn;
      let n = !opn in
      let expected = Fs_model.step !st op in
      (match expected with
      | Ok (_, evs) -> List.iter (fun e -> events_rev := (n, e) :: !events_rev) evs
      | Error _ -> ());
      let actual =
        try
          exec fsops op;
          Ok ()
        with Types.Fs_error m -> Error m
      in
      match (expected, actual) with
      | Ok (st', _), Ok () ->
          st := st';
          if op = Fs_model.Sync then durable := n
      | Error _, Error _ -> ()
      | Ok _, Error m ->
          raise
            (Semantics
               (Printf.sprintf "op %d (%s): model accepts, backend refused: %s"
                  n (Fs_model.op_to_string op) m))
      | Error m, Ok () ->
          raise
            (Semantics
               (Printf.sprintf "op %d (%s): model refuses (%s), backend \
                                accepted"
                  n (Fs_model.op_to_string op) m))
    in
    let run fsops devs =
      let now = ref 0.0 in
      let queued = io_depth > 1 in
      if queued then
        List.iter (fun d -> Vdev.set_mode d (Vdev.Queued (fun () -> !now))) devs;
      List.iter
        (fun op ->
          step fsops op;
          if queued then settle ~now ~io_depth devs)
        ops;
      fsops.Fsops.sync ();
      durable := !opn
    in
    (run, fun () -> { upto = !opn; durable = !durable; events = List.rev !events_rev })

  (* Run an {!Fsops} workload under a {!Fs_model.Recorder}. *)
  let recorded workload () =
    let r = Fs_model.Recorder.create ~root:S.root in
    ( (fun fsops _devs -> workload (Fs_model.Recorder.instrument r fsops)),
      fun () ->
        {
          upto = Fs_model.Recorder.op r;
          durable = Fs_model.Recorder.durable r;
          events = Fs_model.Recorder.events r;
        } )

  type run = {
    crashed : bool;
    trace : trace;
    total : int;  (** payload blocks device 0 received *)
    fault : Vdev_fault.t;
    devs : Vdev.t list;
  }

  (* One full execution of [driver] on fresh devices, with a power cut
     armed at [cut] if given.  Devices come back drained and in Direct
     mode (fault device excepted when crashed — {!Vdev_fault.reboot}
     clears its queue). *)
  let once ~blocks ~seed ?cut (driver : driver) =
    let fault, devs = fresh_fault ~blocks ~seed in
    S.format devs;
    let base = Vdev_fault.blocks_written fault in
    Option.iter
      (fun c ->
        Vdev_fault.plan_crash fault ~mode:(mode_for ~seed c) ~after_blocks:c ())
      cut;
    let run, trace = driver () in
    let crashed =
      try
        let fs = S.mount devs in
        run (make_fsops fs) devs;
        false
      with Vdev.Crashed -> true
    in
    List.iter
      (fun d ->
        (try ignore (Vdev.drain d) with Vdev.Crashed -> ());
        Vdev.set_mode d Vdev.Direct)
      devs;
    {
      crashed;
      trace = trace ();
      total = Vdev_fault.blocks_written fault - base;
      fault;
      devs;
    }

  (* Reboot, recover, fsck, walk, refinement-check.  [None] = clean. *)
  let verify { trace = { upto; durable; events }; fault; devs; _ } =
    let bs = (List.hd devs).Vdev.block_size in
    Vdev_fault.reboot fault;
    match (try Ok (S.recover devs) with e -> Error e) with
    | Error e -> Some ("recover", Printexc.to_string e)
    | Ok fs2 -> (
        match S.fsck_errors fs2 with
        | _ :: _ as errs -> Some ("fsck", String.concat "; " errs)
        | [] -> (
            let model_dirs = Fs_model.dirs_of_events events ~upto in
            match
              try
                Ok
                  (Fs_model.walk ~root:S.root
                     ~readdir:(fun ino -> S.readdir fs2 ino)
                     ~file_size:(fun ino -> S.file_size fs2 ino)
                     ~read:(fun ino ~off ~len -> S.read fs2 ino ~off ~len)
                     ~model_dirs)
              with e -> Error e
            with
            | Error e -> Some ("walk", Printexc.to_string e)
            | Ok (files, dirs) -> (
                match
                  Fs_model.check ~bs ~events ~durable ~upto ~files ~dirs
                with
                | [] -> None
                | divs -> Some ("oracle", String.concat "; " divs))))

  (* The per-cut loop: a reference run sizes the crash-point space, then
     every selected cut replays [driver] from scratch and is verified.
     [?stride] (default 1) thins the cuts but always keeps the final
     write; [?cuts] replays exactly the given points instead.  A
     {!Semantics} disagreement aborts that run and is reported at its
     cut ([-1] for the reference run). *)
  let sweep ?(blocks = 1024) ?(stride = 1) ?cuts ~seed ~seq driver =
    if stride < 1 then invalid_arg "Refine.sweep: stride";
    let divergences = ref [] in
    let div cut stage detail =
      divergences :=
        { cut; mode = mode_for ~seed cut; stage; detail } :: !divergences
    in
    let report ~ops ~total ~points ~crashes =
      {
        subject = S.subject_name;
        seed;
        seq;
        ops;
        total_blocks = total;
        points;
        crashes;
        divergences = List.rev !divergences;
      }
    in
    match once ~blocks ~seed driver with
    | exception Semantics m ->
        div (-1) "semantics" m;
        report ~ops:0 ~total:0 ~points:0 ~crashes:0
    | reference ->
        let points = select_points ?cuts ~stride reference.total in
        let crashes = ref 0 in
        List.iter
          (fun cut ->
            match once ~blocks ~seed ~cut driver with
            | exception Semantics m -> div cut "semantics" m
            | replay ->
                if replay.crashed then incr crashes
                else
                  div cut "replay"
                    "power cut never fired (non-deterministic replay?)";
                Option.iter
                  (fun (stage, detail) -> div cut stage detail)
                  (verify replay))
          points;
        report ~ops:reference.trace.upto ~total:reference.total
          ~points:(List.length points) ~crashes:!crashes

  let check_ops ?blocks ?(io_depth = 4) ?stride ?cuts ?(seed = 0) ?(seq = 0)
      ops =
    let r = sweep ?blocks ?stride ?cuts ~seed ~seq (scripted ~io_depth ops) in
    { r with ops = List.length ops }

  let check_seq ?blocks ?io_depth ?stride ?cuts ?(seed = 0) ?(nops = 60) ~seq
      () =
    let ops = Opgen.sequence ~seed ~seq ~nops in
    check_ops ?blocks ?io_depth ?stride ?cuts ~seed ~seq ops

  (* The serving engine's own generated load (group commit, admission
     control, io-depth) as the op source. *)
  let check_engine ?blocks ?stride ?cuts ?(seed = 0) (ecfg : Engine.config) =
    sweep ?blocks ?stride ?cuts ~seed ~seq:(-1)
      (recorded (fun fsops -> ignore (Engine.run ecfg fsops)))
end
