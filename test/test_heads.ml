(* Multi-head log: observational equivalence across head counts,
   checkpoint/recovery with divergent head positions, and crash sweeps
   whose cut points land inside each head's summary chain. *)

module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Checkpoint = Lfs_core.Checkpoint
module Superblock = Lfs_core.Superblock
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Geometry = Lfs_disk.Geometry
module Crashtest = Lfs_crashtest.Crashtest
module Spec = Lfs_spec.Spec
module Refine = Lfs_model.Refine
module Opgen = Lfs_model.Opgen
module Fsops = Lfs_workload.Fsops

let heads_config heads = { Helpers.test_config with Config.log_heads = heads }

let fresh ?(blocks = 1024) heads =
  let dev = Vdev.of_disk (Disk.create (Geometry.instant ~blocks)) in
  Fs.format dev (heads_config heads);
  (dev, Fs.mount dev)

(* ------------------------------------------------------------------ *)
(* QCheck: the head count is invisible to the namespace                *)
(* ------------------------------------------------------------------ *)

(* Writes are big enough that a sequence plus the churn epilogue laps
   the 32-segment disk, so the cleaner runs and its survivors travel
   through the cold head(s) on the multi-head instances. *)
type op =
  | Write of int * int * int  (* file index, size, content tag *)
  | Append of int * int
  | Delete of int
  | Read of int
  | Clean
  | Sync

let nfiles = 8
let name i = Printf.sprintf "/f%d" i

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun f s t -> Write (f, s, t))
            (int_bound (nfiles - 1))
            (int_range 4_096 80_000) (int_bound 25) );
        (2, map2 (fun f s -> Append (f, s)) (int_bound (nfiles - 1)) (int_range 1 8_000));
        (2, map (fun f -> Delete f) (int_bound (nfiles - 1)));
        (2, map (fun f -> Read f) (int_bound (nfiles - 1)));
        (1, return Clean);
        (1, return Sync);
      ])

let print_op = function
  | Write (f, s, t) -> Printf.sprintf "Write(f%d,%d,#%d)" f s t
  | Append (f, s) -> Printf.sprintf "Append(f%d,%d)" f s
  | Delete f -> Printf.sprintf "Delete(f%d)" f
  | Read f -> Printf.sprintf "Read(f%d)" f
  | Clean -> "Clean"
  | Sync -> "Sync"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 10 50) op_gen)

(* One op applied to one instance, summarised as a normalized
   observation string (content digests, not inos — inos may differ once
   cleaning reorders allocations). *)
let apply fs = function
  | Write (f, size, tag) ->
      Fs.write_path fs (name f) (Bytes.make size (Char.chr (65 + (tag mod 26))));
      Printf.sprintf "wrote %d" size
  | Append (f, size) -> (
      match Fs.resolve fs (name f) with
      | None -> "absent"
      | Some ino ->
          let off = Fs.file_size fs ino in
          Fs.write fs ino ~off (Bytes.make size 'z');
          Printf.sprintf "appended at %d" off)
  | Delete f -> (
      match Fs.resolve fs (name f) with
      | None -> "absent"
      | Some _ ->
          Fs.unlink fs ~dir:Fs.root (String.sub (name f) 1 (String.length (name f) - 1));
          "unlinked")
  | Read f -> (
      match Fs.read_path fs (name f) with
      | None -> "absent"
      | Some b -> Digest.to_hex (Digest.bytes b))
  | Clean ->
      Fs.clean fs;
      "cleaned"
  | Sync ->
      Fs.sync fs;
      "synced"

(* Deterministic overwrite churn, identical on every instance: enough
   traffic to lap the log so the cleaner must relocate survivors. *)
let churn fs =
  for k = 1 to 24 do
    Fs.write_path fs "/churn" (Bytes.make 40_960 (Char.chr (97 + (k mod 26))));
    if k mod 6 = 0 then Fs.clean fs
  done;
  Fs.sync fs

let namespace fs =
  let files =
    List.map
      (fun i ->
        match Fs.read_path fs (name i) with
        | None -> name i ^ ":absent"
        | Some b -> name i ^ ":" ^ Digest.to_hex (Digest.bytes b))
      (List.init nfiles (fun i -> i))
  in
  let root =
    List.sort String.compare (List.map fst (Fs.readdir fs Fs.root))
  in
  String.concat ";" files ^ "|" ^ String.concat "," root

let prop_heads_equivalent =
  QCheck.Test.make ~count:20
    ~name:"heads=1, heads=2 and heads=4 produce identical namespaces"
    arb_ops
    (fun ops ->
      match List.map (fun h -> snd (fresh h)) [ 1; 2; 4 ] with
      | [ fs1; fs2; fs4 ] ->
          List.for_all
            (fun op ->
              let a = apply fs1 op and b = apply fs2 op and c = apply fs4 op in
              if String.equal a b && String.equal b c then true
              else
                QCheck.Test.fail_reportf "%s: heads=1 %S heads=2 %S heads=4 %S"
                  (print_op op) a b c)
            ops
          &&
          (List.iter churn [ fs1; fs2; fs4 ];
           List.iter Helpers.fsck_clean [ fs1; fs2; fs4 ];
           let n1 = namespace fs1 and n2 = namespace fs2 and n4 = namespace fs4 in
           if String.equal n1 n2 && String.equal n2 n4 then true
           else
             QCheck.Test.fail_reportf "final namespaces differ:@\n1: %s@\n2: %s@\n4: %s"
               n1 n2 n4)
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Checkpoint / recovery with divergent head positions                 *)
(* ------------------------------------------------------------------ *)

let test_recover_divergent_heads () =
  let dev, fs = fresh ~blocks:1024 3 in
  let expected : (string, bytes) Hashtbl.t = Hashtbl.create 16 in
  let put path len tag =
    let data = Bytes.make len (Char.chr (97 + (tag mod 26))) in
    Fs.write_path fs path data;
    Hashtbl.replace expected path data
  in
  for i = 0 to 79 do
    put (name i) 16_384 i
  done;
  Fs.sync fs;
  (* Overwrite one file per step, rotating slower than the log laps the
     disk: victim segments then still hold live blocks, so the cleaner
     pushes survivors through the cold heads and the head positions
     genuinely diverge. *)
  let steps = ref 0 in
  while Helpers.fs_total fs "fs.log.blocks_cleaner" = 0 && !steps < 600 do
    incr steps;
    put (name (!steps * 7 mod 80)) 16_384 !steps;
    if !steps mod 10 = 0 then Fs.clean fs
  done;
  Alcotest.(check bool) "cleaner relocated survivors" true
    (Helpers.fs_total fs "fs.log.blocks_cleaner" > 0);
  Fs.checkpoint fs;
  let layout = (Superblock.load dev).Superblock.layout in
  let _, ck = Option.get (Checkpoint.read_latest layout dev) in
  let segs =
    Array.to_list (Array.map (fun h -> h.Lfs_core.Log_writer.seg) ck.Checkpoint.heads)
  in
  Alcotest.(check int) "checkpoint records three heads" 3 (List.length segs);
  Alcotest.(check bool) "head positions diverged" true
    (List.length (List.sort_uniq compare segs) >= 2);
  (* Post-checkpoint traffic sits in the roll-forward window. *)
  put "/late" 8_192 7;
  Fs.sync fs;
  let fs2, _report = Fs.recover dev in
  Helpers.fsck_clean fs2;
  Hashtbl.iter
    (fun path data ->
      Helpers.check_bytes path data (Option.get (Fs.read_path fs2 path)))
    expected

(* ------------------------------------------------------------------ *)
(* Crash sweeps with cuts inside each head's chain                     *)
(* ------------------------------------------------------------------ *)

(* Heavy overwrite churn on a small disk: one file rewritten per step,
   rotating over more files than one log lap covers, so victim segments
   still hold live blocks.  The cleaner then relocates survivors and the
   device-write tape contains both heads' chains — the strided sweep
   cuts inside each. *)
let churn_workload ~files ~steps ~bytes =
  {
    Crashtest.wname = Printf.sprintf "churn(files=%d,steps=%d)" files steps;
    run =
      (fun fsops ->
        let path i = Printf.sprintf "/c%d" i in
        for k = 1 to steps do
          let p = path (k * 7 mod files) in
          let ino =
            match fsops.Fsops.resolve p with
            | Some ino -> ino
            | None -> fsops.Fsops.create_path p
          in
          fsops.Fsops.write ino ~off:0
            (Bytes.make bytes (Char.chr (97 + (k mod 26))));
          if k mod 20 = 0 then fsops.Fsops.sync ()
        done;
        fsops.Fsops.sync ());
  }

(* The same traffic on a plain heads=2 instance must drive the cold
   head: this pins down that the sweep below really enumerates cut
   points inside a second chain, not just head 0's. *)
let test_churn_reaches_cold_head () =
  let dev = Vdev.of_disk (Disk.create (Geometry.instant ~blocks:1024)) in
  Fs.format dev { Spec.small_config with Config.log_heads = 2 };
  let fs = Fs.mount dev in
  let w = churn_workload ~files:160 ~steps:500 ~bytes:16_384 in
  w.Crashtest.run (Fsops.of_lfs fs);
  Alcotest.(check bool) "survivors flowed through the cold head" true
    (Helpers.fs_total fs "fs.log.blocks_cleaner" > 0)

let check_clean report =
  if not (Crashtest.is_clean report) then
    Alcotest.failf "crashtest not clean:@\n%a" Crashtest.pp_report report

let test_crashtest_heads_chain_cuts () =
  let report =
    Crashtest.run ~stride:89 ~seed:3 (Spec.of_string "lfs:heads=2")
      (churn_workload ~files:160 ~steps:500 ~bytes:16_384)
  in
  Alcotest.(check bool) "has crash points" true (report.Crashtest.total_blocks > 0);
  check_clean report

(* Script workloads with deletes and appends over the 3-head subject. *)
let test_crashtest_three_heads_script () =
  check_clean
    (Crashtest.run ~stride:7 ~seed:11 (Spec.of_string "lfs:heads=3")
       (Crashtest.script ~seed:11 ()))

(* Model-based refinement: every strided crash point of a generated
   sequence recovers to a state the model allows, on the 2-head
   subject. *)
module SH2 = (val Spec.subject (Spec.of_string "lfs:heads=2"))
module RH2 = Refine.Make (SH2)

let test_refinement_heads2 () =
  let r =
    RH2.check_ops ~io_depth:4 ~stride:11 ~seed:5 ~seq:1
      (Opgen.sequence ~seed:5 ~seq:1 ~nops:30)
  in
  if not (Refine.seq_clean r) then
    Alcotest.failf "refinement not clean:@\n%a" Refine.pp_seq_report r

(* Regression: an idle clean step restocks the reusable pool with a
   checkpoint only when that would recover a segment.  The threshold
   ignored the extra heads' pinned segments, so once a multi-head
   volume's pool sat below the background watermark every idle step
   checkpointed, and the serving engine's idle loop never came to rest
   (the run never returned).  The guard turns that hang into a failure. *)
let test_idle_steps_settle () =
  let fs = Spec.fresh ~blocks:5461 (Spec.of_string "lfs:heads=2") in
  let calls = ref 0 in
  let guarded step ~max_segments =
    incr calls;
    if !calls > 5_000 then Alcotest.fail "idle cleaner never came to rest";
    step ~max_segments
  in
  let r =
    Lfs_server.Engine.run
      {
        Lfs_server.Engine.default with
        clients = 8;
        ops_per_client = 50;
        seed = 1;
        bg_clean = true;
      }
      { fs with Fsops.clean_step = Option.map guarded fs.Fsops.clean_step }
  in
  Alcotest.(check int) "every request completed" 400 r.Lfs_server.Engine.completed

let suite =
  ( "heads",
    [
      QCheck_alcotest.to_alcotest prop_heads_equivalent;
      Alcotest.test_case "recover with divergent head positions" `Quick
        test_recover_divergent_heads;
      Alcotest.test_case "churn drives the cold head" `Quick
        test_churn_reaches_cold_head;
      Alcotest.test_case "crash sweep cuts inside both chains" `Quick
        test_crashtest_heads_chain_cuts;
      Alcotest.test_case "crash sweep, three heads, script workload" `Quick
        test_crashtest_three_heads_script;
      Alcotest.test_case "refinement sweep on lfs:heads=2" `Quick
        test_refinement_heads2;
      Alcotest.test_case "idle clean steps come to rest" `Quick
        test_idle_steps_settle;
    ] )
