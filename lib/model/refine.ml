(* The refinement driver.

   For one operation sequence it performs a reference run (no fault) to
   learn the crash-point space — every payload block device 0 receives —
   then replays the sequence from scratch once per enumerated point,
   cutting the power at exactly that block, rebooting, recovering, and
   asking {!Fs_model.check} whether the surviving namespace is some
   state between the durability frontier and the crash op.

   Ops flow through the same serving stack the benchmarks use: with
   [io_depth > 1] the devices run in queued submission, the driver keeps
   about [io_depth] transfers in flight via {!Lfs_disk.Vdev.pump}, and
   every generated [Sync] is a group-commit barrier.  The model is also
   checked in the *logical* direction on every op: backend acceptance
   must match {!Fs_model.step} acceptance exactly. *)

module Prng = Lfs_util.Prng
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Vdev_fault = Lfs_disk.Vdev_fault
module Geometry = Lfs_disk.Geometry
module Fsops = Lfs_workload.Fsops
module Types = Lfs_core.Types
module Engine = Lfs_server.Engine

type divergence = { cut : int; stage : string; detail : string }

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

module Make (S : Lfs_shard.Spec.SUBJECT) = struct
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

  (* Drive the whole sequence, shadowing each op with the model.
     Events are recorded *before* execution (a crash mid-op may persist
     part of the effect) and popped again on logical rejection.  The
     durability frontier advances only when a [Sync]'s barrier
     completes — i.e. when the backend sync returns. *)
  let drive fsops ~pump ops ~st ~events_rev ~opn ~durable =
    List.iter
      (fun op ->
        incr opn;
        let n = !opn in
        let expected = Fs_model.step !st op in
        (match expected with
        | Ok (_, evs) ->
            List.iter (fun e -> events_rev := (n, e) :: !events_rev) evs
        | Error _ -> ());
        let actual =
          try
            exec fsops op;
            Ok ()
          with Types.Fs_error m -> Error m
        in
        (match (expected, actual) with
        | Ok (st', _), Ok () ->
            st := st';
            if op = Fs_model.Sync then durable := n
        | Error _, Error _ -> ()
        | Ok _, Error m ->
            let rec pop = function
              | (o, _) :: rest when o = n -> pop rest
              | rest -> rest
            in
            events_rev := pop !events_rev;
            raise
              (Semantics
                 (Printf.sprintf "op %d (%s): model accepts, backend refused: %s"
                    n (Fs_model.op_to_string op) m))
        | Error m, Ok () ->
            raise
              (Semantics
                 (Printf.sprintf "op %d (%s): model refuses (%s), backend \
                                  accepted"
                    n (Fs_model.op_to_string op) m)));
        pump ())
      ops

  type once = {
    crashed : bool;
    upto : int;
    durable : int;
    events : (int * Fs_model.event) list;
    total : int;
    fault : Vdev_fault.t;
    devs : Vdev.t list;
  }

  (* One full execution of [ops], optionally with a crash armed at
     [cut].  Devices come back drained and in Direct mode (fault device
     excepted when crashed — {!Vdev_fault.reboot} clears its queue). *)
  let run_once ~blocks ~seed ~io_depth ?cut ?mode ops =
    let fault, devs = fresh_fault ~blocks ~seed in
    S.format devs;
    let base = Vdev_fault.blocks_written fault in
    (match cut with
    | Some c ->
        Vdev_fault.plan_crash fault ?mode ~after_blocks:c ()
    | None -> ());
    let now = ref 0.0 in
    let queued = io_depth > 1 in
    let pump () = if queued then settle ~now ~io_depth devs in
    let st = ref Fs_model.empty in
    let events_rev = ref [] and opn = ref 0 and durable = ref 0 in
    let crashed =
      try
        let fs = S.mount devs in
        let fsops = make_fsops fs in
        if queued then
          List.iter
            (fun d -> Vdev.set_mode d (Vdev.Queued (fun () -> !now)))
            devs;
        drive fsops ~pump ops ~st ~events_rev ~opn ~durable;
        (* final flush outside the op list: its blocks extend the
           crash-point space, but the frontier stays at the last
           recorded Sync unless this barrier completes too *)
        fsops.Fsops.sync ();
        durable := !opn;
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
      upto = !opn;
      durable = !durable;
      events = List.rev !events_rev;
      total = Vdev_fault.blocks_written fault - base;
      fault;
      devs;
    }

  (* Reboot, recover, fsck, walk, refinement-check.  [None] = clean. *)
  let verify ~bs ~events ~durable ~upto ~fault ~devs =
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

  (* Replay modes keyed by (seed, cut), not by enumeration position, so
     a single (seed, seq, cut) triple replays bit-identically no matter
     which other points ran. *)
  let mode_for ~seed cut =
    let r = Prng.create ~seed:(seed lxor 0x1fe3a9 lxor (cut * 0x85ebca6b)) in
    [| Vdev_fault.Torn; Dropped; Reordered |].(Prng.int r 3)

  let check_ops ?(blocks = 1024) ?(io_depth = 4) ?(stride = 1) ?cuts
      ?(seed = 0) ?(seq = 0) ops =
    if stride < 1 then invalid_arg "Refine.check_ops: stride";
    let divergences = ref [] in
    let div cut stage detail =
      divergences := { cut; stage; detail } :: !divergences
    in
    let reference =
      try Some (run_once ~blocks ~seed ~io_depth ops)
      with Semantics m ->
        div (-1) "semantics" m;
        None
    in
    match reference with
    | None ->
        {
          subject = S.subject_name;
          seed;
          seq;
          ops = List.length ops;
          total_blocks = 0;
          points = 0;
          crashes = 0;
          divergences = List.rev !divergences;
        }
    | Some r ->
        let bs = (List.hd r.devs).Vdev.block_size in
        let points = select_points ?cuts ~stride r.total in
        let crashes = ref 0 in
        List.iter
          (fun cut ->
            let mode = mode_for ~seed cut in
            match
              try Ok (run_once ~blocks ~seed ~io_depth ~cut ~mode ops)
              with Semantics m -> Error m
            with
            | Error m -> div cut "semantics" m
            | Ok replay ->
                if replay.crashed then incr crashes
                else
                  div cut "replay"
                    "power cut never fired (non-deterministic replay?)";
                (match
                   verify ~bs ~events:replay.events ~durable:replay.durable
                     ~upto:replay.upto ~fault:replay.fault ~devs:replay.devs
                 with
                | None -> ()
                | Some (stage, detail) -> div cut stage detail))
          points;
        {
          subject = S.subject_name;
          seed;
          seq;
          ops = List.length ops;
          total_blocks = r.total;
          points = List.length points;
          crashes = !crashes;
          divergences = List.rev !divergences;
        }

  let check_seq ?blocks ?io_depth ?stride ?cuts ?(seed = 0) ?(nops = 60) ~seq
      () =
    let ops = Opgen.sequence ~seed ~seq ~nops in
    check_ops ?blocks ?io_depth ?stride ?cuts ~seed ~seq ops

  (* ---------------- the serving-engine path ---------------- *)

  (* Same enumeration, but the op stream is the request-serving engine's
     own generated load (group commit, admission control, io-depth) and
     the events come from a {!Fs_model.Recorder} shadowing the Fsops
     surface the engine drives. *)
  let engine_once ~blocks ~seed ?cut ?mode ecfg =
    let fault, devs = fresh_fault ~blocks ~seed in
    S.format devs;
    let base = Vdev_fault.blocks_written fault in
    (match cut with
    | Some c -> Vdev_fault.plan_crash fault ?mode ~after_blocks:c ()
    | None -> ());
    let recorder = Fs_model.Recorder.create ~root:S.root in
    let crashed =
      try
        let fs = S.mount devs in
        ignore
          (Engine.run ecfg (Fs_model.Recorder.instrument recorder (make_fsops fs)));
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
      upto = Fs_model.Recorder.op recorder;
      durable = Fs_model.Recorder.durable recorder;
      events = Fs_model.Recorder.events recorder;
      total = Vdev_fault.blocks_written fault - base;
      fault;
      devs;
    }

  let check_engine ?(blocks = 1024) ?(stride = 1) ?cuts ?(seed = 0)
      (ecfg : Engine.config) =
    if stride < 1 then invalid_arg "Refine.check_engine: stride";
    let reference = engine_once ~blocks ~seed ecfg in
    let bs = (List.hd reference.devs).Vdev.block_size in
    let points = select_points ?cuts ~stride reference.total in
    let crashes = ref 0 in
    let divergences = ref [] in
    let div cut stage detail =
      divergences := { cut; stage; detail } :: !divergences
    in
    List.iter
      (fun cut ->
        let mode = mode_for ~seed cut in
        let replay = engine_once ~blocks ~seed ~cut ~mode ecfg in
        if replay.crashed then incr crashes
        else div cut "replay" "power cut never fired (non-deterministic replay?)";
        match
          verify ~bs ~events:replay.events ~durable:replay.durable
            ~upto:replay.upto ~fault:replay.fault ~devs:replay.devs
        with
        | None -> ()
        | Some (stage, detail) -> div cut stage detail)
      points;
    {
      subject = S.subject_name;
      seed;
      seq = -1;
      ops = reference.upto;
      total_blocks = reference.total;
      points = List.length points;
      crashes = !crashes;
      divergences = List.rev !divergences;
    }
end
