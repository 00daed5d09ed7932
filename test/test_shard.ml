(* The shard router: placement determinism, the unified namespace's
   observational equivalence with a single LFS (and FFS's), ino
   encoding, per-shard metrics scoping, and the one-faulted-shard crash
   sweep. *)

module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Geometry = Lfs_disk.Geometry
module Fs = Lfs_core.Fs
module Ffs = Lfs_ffs.Ffs
module Router = Lfs_shard.Shard_router
module Spec = Lfs_spec.Spec
module Metrics = Lfs_obs.Metrics
module Prng = Lfs_util.Prng

let shard_config = Helpers.test_config

let fresh_devs n =
  List.init n (fun _ -> Vdev.of_disk (Disk.create (Geometry.instant ~blocks:2048)))

let fresh_router ?(shards = 3) ?(policy = Router.By_hash) () =
  let devs = fresh_devs shards in
  List.iter (fun d -> Fs.format d shard_config) devs;
  (devs, Router.mount ~policy (List.map (fun d metrics -> Fs.mount ~metrics d) devs))

let recover_router devs =
  Router.recover (List.map (fun d metrics -> Fs.recover ~metrics d) devs)

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let test_spec_grammar () =
  let ok s = match Spec.parse s with Ok t -> t | Error e -> Alcotest.fail e in
  let is s expected =
    Alcotest.(check string) s (Spec.to_string expected) (Spec.to_string (ok s));
    Alcotest.(check bool) (s ^ " parses to the recipe") true (ok s = expected)
  in
  let plain = { Spec.heads = 1; tier = None; shard = None } in
  let sharded n policy = Some { Spec.shards = n; policy } in
  is "lfs" (Spec.Lfs plain);
  is "ffs" Spec.Ffs;
  is "shard" (Spec.Lfs { plain with shard = sharded 4 Router.By_hash });
  is "shard:4" (Spec.Lfs { plain with shard = sharded 4 Router.By_hash });
  is "shard:2:by_subtree" (Spec.Lfs { plain with shard = sharded 2 Router.By_subtree });
  (* the features compose, options in any order after the base *)
  let composed =
    Spec.Lfs
      {
        Spec.heads = 3;
        tier = Some { Spec.fast_pct = 10; promote_reads = 2 };
        shard = sharded 2 Router.By_subtree;
      }
  in
  is "shard:2:by_subtree:heads=3:tier:10:promote=2" composed;
  is "shard:2:promote=2:tier:10:by_subtree:heads=3" composed;
  is "lfs:tier" (Spec.Lfs { plain with tier = Some { fast_pct = 25; promote_reads = 0 } });
  List.iter
    (fun s ->
      match Spec.parse s with
      | Error _ -> ()
      | Ok t -> Alcotest.failf "%s accepted as %s" s (Spec.to_string t))
    [ "shard:0"; "ext4"; "lfs:heads=9"; "lfs:promote=2"; "lfs:by_hash";
      "lfs:tier:0"; "ffs:heads=2"; "lfs:bogus" ];
  (* canonical spellings round-trip; the single-feature ones keep the
     spelling they had before the features composed *)
  List.iter
    (fun s -> Alcotest.(check string) "canonical" s (Spec.to_string (ok s)))
    [ "lfs"; "ffs"; "lfs:heads=2"; "lfs:tier:25"; "lfs:tier:25:promote=2";
      "shard:4:by_hash"; "shard:2:by_hash:heads=2:tier:25:promote=2" ];
  Alcotest.(check string) "--shards override" "shard:8:by_hash:tier:25"
    (Spec.to_string (Spec.with_shards 8 (ok "shard:2:tier")));
  Alcotest.(check string) "override ignores unsharded" "lfs:heads=2"
    (Spec.to_string (Spec.with_shards 8 (ok "lfs:heads=2")))

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let test_placement_determinism () =
  let _, r1 = fresh_router () in
  let _, r2 = fresh_router () in
  let paths =
    List.init 40 (fun i -> Printf.sprintf "dir%d/sub%d/f%d" (i mod 5) (i mod 3) i)
  in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "place %s" p)
        (Router.place_path r1 p) (Router.place_path r2 p))
    paths;
  (* placement must actually spread: 40 paths over 3 shards should not
     degenerate onto one *)
  let used =
    List.sort_uniq compare (List.map (Router.place_path r1) paths)
  in
  Alcotest.(check bool) "spreads over >1 shard" true (List.length used > 1)

let test_by_hash_colocates_siblings () =
  let _, r = fresh_router ~policy:Router.By_hash () in
  let home = Router.place_path r "proj/a" in
  List.iter
    (fun n ->
      Alcotest.(check int) "siblings colocate" home
        (Router.place_path r (Printf.sprintf "proj/%s" n)))
    [ "b"; "c"; "d"; "e" ]

let test_by_subtree_pins_tree () =
  let _, r = fresh_router ~policy:Router.By_subtree () in
  let home = Router.place_path r "proj" in
  List.iter
    (fun p ->
      Alcotest.(check int) (Printf.sprintf "%s pins to subtree root" p) home
        (Router.place_path r p))
    [ "proj/a"; "proj/deep/nest/f"; "proj/x/y/z/w" ]

(* ------------------------------------------------------------------ *)
(* Ino encoding                                                        *)
(* ------------------------------------------------------------------ *)

let test_ino_encoding () =
  let _, r = fresh_router () in
  Alcotest.(check (option int)) "root carries no shard" None
    (Router.ino_shard Router.root);
  let d = Router.mkdir_path r "docs" in
  let f = Router.create_path r "docs/note" in
  Alcotest.(check (option int))
    "dir ino carries its home shard"
    (Some (Router.place_path r "docs"))
    (Router.ino_shard d);
  Alcotest.(check (option int))
    "file ino carries its home shard"
    (Some (Router.place_path r "docs/note"))
    (Router.ino_shard f);
  (* a foreign / root ino is rejected by file IO, not misrouted *)
  (match Router.read r Router.root ~off:0 ~len:1 with
  | exception Lfs_core.Types.Fs_error _ -> ()
  | _ -> Alcotest.fail "file IO on the root ino should be an Fs_error")

(* ------------------------------------------------------------------ *)
(* Namespace equivalence with a single LFS                             *)
(* ------------------------------------------------------------------ *)

(* One random op applied to every system through its path helpers;
   results are compared in normalized form (contents, sorted readdir
   names, presence, "err" without the message) because inos and error
   texts legitimately differ. *)
type op =
  | Write of string * int * int  (* path, size, tag *)
  | Append of string * int
  | Truncate of string * int
  | Write_negative of string * int  (* path, offset below zero *)
  | Unlink of string
  | Readdir of string
  | Read of string
  | Sync

let dirs = [| ""; "a"; "a/b"; "c" |]

let op_gen =
  QCheck.Gen.(
    let path =
      map2
        (fun d f -> Filename.concat dirs.(d) (Printf.sprintf "f%d" f))
        (int_bound (Array.length dirs - 1))
        (int_bound 3)
    in
    frequency
      [
        (5, map3 (fun p s t -> Write (p, s, t)) path (int_range 1 12_000) (int_bound 25));
        (2, map2 (fun p s -> Append (p, s)) path (int_range 1 4_000));
        (* shrinks to mid-block and extends past EOF alike *)
        (2, map2 (fun p l -> Truncate (p, l)) path (int_bound 16_000));
        (1, map2 (fun p o -> Write_negative (p, o)) path (int_range 1 5_000));
        (2, map (fun p -> Unlink p) path);
        (2, map (fun d -> Readdir dirs.(d)) (int_bound (Array.length dirs - 1)));
        (3, map (fun p -> Read p) path);
        (1, return Sync);
      ])

let print_op = function
  | Write (p, s, t) -> Printf.sprintf "Write(%s,%d,#%d)" p s t
  | Append (p, s) -> Printf.sprintf "Append(%s,%d)" p s
  | Truncate (p, l) -> Printf.sprintf "Truncate(%s,%d)" p l
  | Write_negative (p, o) -> Printf.sprintf "Write_negative(%s,-%d)" p o
  | Unlink p -> Printf.sprintf "Unlink(%s)" p
  | Readdir d -> Printf.sprintf "Readdir(%s)" d
  | Read p -> Printf.sprintf "Read(%s)" p
  | Sync -> "Sync"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

(* The same surface over every system, from its first-class module. *)
let surface (type a) (module F : Lfs_core.Fs_intf.S with type t = a) (fs : a) =
  object
    method write_path p b = F.write_path fs p b
    method resolve p = F.resolve fs p
    method read_path p = F.read_path fs p
    method file_size ino = F.file_size fs ino
    method write ino ~off b = F.write fs ino ~off b
    method truncate ino ~len = F.truncate fs ino ~len
    method unlink ~dir n = F.unlink fs ~dir n
    method readdir ino = F.readdir fs ino
    method mkdir_path p = F.mkdir_path fs p
    method sync = F.sync fs
  end

let apply o op =
  let on_file p f =
    match o#resolve p with
    | None -> "absent"
    | Some ino -> ( try f ino with Lfs_core.Types.Fs_error _ -> "err")
  in
  let contents p =
    match o#read_path p with
    | None -> "absent"
    | Some b -> Digest.to_hex (Digest.bytes b)
  in
  match op with
  | Write (p, size, tag) ->
      let b = Bytes.make size (Char.chr (65 + (tag mod 26))) in
      o#write_path p b;
      Printf.sprintf "wrote %d" size
  | Append (p, size) ->
      on_file p (fun ino ->
          let off = o#file_size ino in
          o#write ino ~off (Bytes.make size 'z');
          Printf.sprintf "appended at %d" off)
  | Truncate (p, len) ->
      on_file p (fun ino ->
          o#truncate ino ~len;
          Printf.sprintf "size %d, %s" (o#file_size ino) (contents p))
  | Write_negative (p, off) ->
      on_file p (fun ino ->
          o#write ino ~off:(-off) (Bytes.make 10 'n');
          "wrote")
  | Unlink p -> (
      match o#resolve (Filename.dirname p) with
      | Some dir when o#resolve p <> None -> (
          try
            o#unlink ~dir (Filename.basename p);
            "unlinked"
          with Lfs_core.Types.Fs_error _ -> "err")
      | _ -> "absent")
  | Readdir d -> (
      match o#resolve d with
      | None -> "absent"
      | Some ino ->
          let names = List.map fst (o#readdir ino) in
          String.concat "," (List.sort String.compare names))
  | Read p -> contents p
  | Sync ->
      o#sync;
      "synced"

let fresh_ffs () =
  let dev = Vdev.of_disk (Disk.create (Geometry.instant ~blocks:2048)) in
  Ffs.format dev
    {
      Ffs.default_config with
      Ffs.cg_blocks = 256;
      inodes_per_cg = 128;
      write_buffer_blocks = 16;
      cache_blocks = 64;
    };
  Ffs.mount dev

let prop_sharded_matches_single =
  QCheck.Test.make ~count:60
    ~name:"sharded volume is observationally a single LFS, as is FFS" arb_ops
    (fun ops ->
      let _, single = Helpers.fresh_fs ~blocks:4096 () in
      let _, sharded = fresh_router ~shards:3 () in
      let systems =
        [
          ("single", surface (module Fs) single);
          ("sharded", surface (module Router) sharded);
          ("ffs", surface (module Ffs) (fresh_ffs ()));
        ]
      in
      List.iter
        (fun (_, o) ->
          Array.iter (fun d -> if d <> "" then ignore (o#mkdir_path d)) dirs)
        systems;
      List.for_all
        (fun op ->
          let results = List.map (fun (name, o) -> (name, apply o op)) systems in
          let expected = List.assoc "single" results in
          match List.find_opt (fun (_, r) -> r <> expected) results with
          | None -> true
          | Some (name, r) ->
              QCheck.Test.fail_reportf "%s: single=%S %s=%S" (print_op op)
                expected name r)
        ops)

(* ------------------------------------------------------------------ *)
(* Durability across shards                                            *)
(* ------------------------------------------------------------------ *)

let test_sync_recover_roundtrip () =
  let devs, r = fresh_router ~shards:3 () in
  ignore (Router.mkdir_path r "p");
  let contents =
    List.init 12 (fun i ->
        let path = Printf.sprintf "p/f%d" i in
        let b = Helpers.bytes_of_pattern ~seed:i (500 + (i * 37)) in
        Router.write_path r path b;
        (path, b))
  in
  Router.sync r;
  let r2, reports = recover_router devs in
  Alcotest.(check int) "one report per shard" 3 (List.length reports);
  List.iter
    (fun (path, b) ->
      match Router.read_path r2 path with
      | None -> Alcotest.failf "%s lost across recover" path
      | Some got -> Helpers.check_bytes path b got)
    contents;
  for i = 0 to 2 do
    Helpers.fsck_clean (Router.shard_fs r2 i)
  done

let test_metrics_scoping () =
  let _, r = fresh_router ~shards:2 () in
  ignore (Router.mkdir_path r "m");
  for i = 0 to 9 do
    Router.write_path r (Printf.sprintf "m/f%d" i) (Bytes.make 100 'x')
  done;
  Router.sync r;
  let m = Router.metrics r in
  let snap = Metrics.snapshot m in
  let value name =
    if not (List.mem_assoc name snap) then
      Alcotest.failf "metric %s missing (have: %s)" name
        (String.concat ", " (List.map fst snap));
    Metrics.float_value m name
  in
  Alcotest.(check (float 0.0)) "router.shards" 2.0 (value "router.shards");
  (* both shards publish their own fs instruments under their scopes *)
  ignore (value "shard0.fs.log.blocks_new");
  ignore (value "shard1.fs.log.blocks_new");
  ignore (value "shard0.fs.cleaner.fg.passes");
  ignore (value "shard1.fs.cleaner.bg.passes");
  (* the placement counters account for every create/mkdir: 10 files,
     the "m" dir, plus mirror shells (which are placed on the canonical
     path's shard and counted once each) *)
  let placed =
    value "router.placed.shard0" +. value "router.placed.shard1"
  in
  Alcotest.(check bool) "placements counted" true (placed >= 11.0)

(* Regression: a mirror shell that survives its home shard's rollback
   must be pruned at recover.  Before [revalidate_mirrors], the stale
   subtree stayed in the other shard's log, and recreating a directory
   of the same name inherited the old children through the union
   readdir — resurrecting files the canonical namespace had lost. *)
let test_stale_mirror_pruned_at_recover () =
  let devs, r = fresh_router ~shards:2 () in
  (* a directory whose children hash to the other shard, so creating
     the child plants a mirror shell of the directory there *)
  let dir =
    let rec find i =
      if i > 100 then Alcotest.fail "no cross-shard dir name found"
      else
        let d = Printf.sprintf "d%d" i in
        if Router.place_path r d <> Router.place_path r (d ^ "/f") then d
        else find (i + 1)
    in
    find 0
  in
  let file = dir ^ "/f" in
  let home = Router.place_path r dir in
  let other = Router.place_path r file in
  ignore (Router.mkdir_path r dir);
  Router.write_path r file (Bytes.make 256 's');
  Router.sync r;
  (* simulate shard [home]'s per-shard recovery rolling back past the
     mkdir: the canonical dirent vanishes while the mirror shell and
     the file survive in shard [other]'s independent log *)
  let hfs = Router.shard_fs r home in
  Fs.rmdir hfs ~dir:Fs.root dir;
  Fs.sync hfs;
  let r2, _ = recover_router devs in
  Alcotest.(check bool)
    "revalidation dropped the orphaned mirror subtree" true
    (Metrics.float_value (Router.metrics r2) "router.mirrors_dropped" >= 2.0);
  Alcotest.(check bool) "stale file unreachable" true
    (Router.read_path r2 file = None);
  Alcotest.(check bool) "mirror shell gone from its shard" true
    (Fs.lookup (Router.shard_fs r2 other) ~dir:Fs.root dir = None);
  (* recreating the directory must start empty, not inherit the ghost *)
  let d2 = Router.mkdir_path r2 dir in
  Alcotest.(check (list string)) "recreated dir inherits nothing" []
    (List.map fst (Router.readdir r2 d2));
  for i = 0 to 1 do
    Helpers.fsck_clean (Router.shard_fs r2 i)
  done

(* ------------------------------------------------------------------ *)
(* Crash sweep: one faulted shard                                      *)
(* ------------------------------------------------------------------ *)

let test_crash_sweep_one_shard () =
  let report =
    Lfs_crashtest.Crashtest.run ~blocks:1024 ~stride:5 ~seed:11
      (Spec.of_string "shard:2")
      (Lfs_crashtest.Crashtest.script ~ops:40 ~seed:5 ())
  in
  if not (Lfs_crashtest.Crashtest.is_clean report) then
    Alcotest.failf "shard crash sweep: %a" Lfs_crashtest.Crashtest.pp_report
      report;
  Alcotest.(check bool) "sweep replayed crash points" true
    (report.points > 0 && report.crashes > 0)

let test_crash_sweep_by_subtree () =
  let report =
    Lfs_crashtest.Crashtest.run ~blocks:1024 ~stride:19 ~seed:3
      (Spec.of_string "shard:3:by_subtree")
      (Lfs_crashtest.Crashtest.script ~ops:30 ~seed:9 ())
  in
  if not (Lfs_crashtest.Crashtest.is_clean report) then
    Alcotest.failf "by_subtree crash sweep: %a"
      Lfs_crashtest.Crashtest.pp_report report

let suite =
  ( "shard",
    [
      Alcotest.test_case "spec grammar" `Quick test_spec_grammar;
      Alcotest.test_case "placement determinism" `Quick test_placement_determinism;
      Alcotest.test_case "by_hash colocates siblings" `Quick
        test_by_hash_colocates_siblings;
      Alcotest.test_case "by_subtree pins a tree" `Quick test_by_subtree_pins_tree;
      Alcotest.test_case "ino encoding" `Quick test_ino_encoding;
      QCheck_alcotest.to_alcotest prop_sharded_matches_single;
      Alcotest.test_case "sync/recover roundtrip" `Quick
        test_sync_recover_roundtrip;
      Alcotest.test_case "metrics scoping" `Quick test_metrics_scoping;
      Alcotest.test_case "stale mirror pruned at recover" `Quick
        test_stale_mirror_pruned_at_recover;
      Alcotest.test_case "crash sweep, one faulted shard" `Slow
        test_crash_sweep_one_shard;
      Alcotest.test_case "crash sweep, by_subtree" `Slow
        test_crash_sweep_by_subtree;
    ] )
