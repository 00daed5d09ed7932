(* Tests for the tiered block device (lib/disk/vdev_tier) and its FS
   integration: geometry planning, placement-map persistence, migration
   semantics, crash-mid-migration sweeps at device level, tiered-vs-flat
   data equivalence (device and FS level), and the demotion/promotion
   policies. *)

module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Vdev_tier = Lfs_disk.Vdev_tier
module Geometry = Lfs_disk.Geometry
module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Layout = Lfs_core.Layout
module Spec = Lfs_spec.Spec

let mk_child blocks = Vdev.of_disk (Disk.create (Geometry.instant ~blocks))

(* The worked geometry used throughout: 1024-block children, 32-block
   chunks, 3 pinned blocks.  One map region block, two regions, so the
   fast child holds 3 metadata blocks + 3 pinned + 31 chunks; the slow
   child 32 chunks; two physical chunks float as the free pool. *)
let mk_tier () =
  let fast = mk_child 1024 and slow = mk_child 1024 in
  (fast, slow, Vdev_tier.format ~base:3 ~chunk_blocks:32 ~fast ~slow)

let test_plan_geometry () =
  let fast = mk_child 1024 and slow = mk_child 1024 in
  let p = Vdev_tier.plan ~base:3 ~chunk_blocks:32 ~fast ~slow in
  Alcotest.(check int) "base" 3 p.Vdev_tier.p_base;
  Alcotest.(check int) "fast chunks" 31 p.Vdev_tier.p_fast_chunks;
  Alcotest.(check int) "slow chunks" 32 p.Vdev_tier.p_slow_chunks;
  Alcotest.(check int) "logical chunks" 61 p.Vdev_tier.p_nchunks;
  Alcotest.(check int) "exported blocks" (3 + (61 * 32)) p.Vdev_tier.p_nblocks;
  (* Children too small for a chunk plus the free pool are rejected. *)
  (match Vdev_tier.plan ~base:0 ~chunk_blocks:512 ~fast ~slow with
  | _ -> Alcotest.fail "undersized children accepted"
  | exception Invalid_argument _ -> ())

let test_format_load_roundtrip () =
  let fast, slow, ti = mk_tier () in
  let dev = Vdev_tier.vdev ti in
  let bs = Vdev.block_size dev in
  let total = Vdev_tier.exported_blocks ti in
  Alcotest.(check int) "fast placement" 30
    (Vdev_tier.count_chunks ti ~tier:Vdev_tier.Fast);
  Alcotest.(check int) "slow placement" 31
    (Vdev_tier.count_chunks ti ~tier:Vdev_tier.Slow);
  Alcotest.(check int) "one free fast" 1
    (Vdev_tier.free_chunks ti ~tier:Vdev_tier.Fast);
  Alcotest.(check int) "one free slow" 1
    (Vdev_tier.free_chunks ti ~tier:Vdev_tier.Slow);
  let image = Helpers.bytes_of_pattern ~seed:3 (total * bs) in
  Vdev.write_blocks dev 0 image;
  Alcotest.(check (list string)) "verify clean" [] (Vdev_tier.verify ti);
  let ti2 = Vdev_tier.load ~fast ~slow in
  let dev2 = Vdev_tier.vdev ti2 in
  Helpers.check_bytes "bytes survive reload" image (Vdev.read_blocks dev2 0 total);
  for c = 0 to Vdev_tier.nchunks ti - 1 do
    if Vdev_tier.chunk_tier ti c <> Vdev_tier.chunk_tier ti2 c then
      Alcotest.failf "chunk %d placed differently after reload" c
  done

let test_migrate_semantics () =
  let _, _, ti = mk_tier () in
  let dev = Vdev_tier.vdev ti in
  let bs = Vdev.block_size dev in
  let total = Vdev_tier.exported_blocks ti in
  let image = Helpers.bytes_of_pattern ~seed:7 (total * bs) in
  Vdev.write_blocks dev 0 image;
  (* Demote chunk 0 (fast), promote the last chunk (slow). *)
  Alcotest.(check bool) "demote succeeds" true
    (Vdev_tier.migrate ti ~chunk:0 ~target:Vdev_tier.Slow);
  Alcotest.(check bool) "now on slow" true
    (Vdev_tier.chunk_tier ti 0 = Vdev_tier.Slow);
  let last = Vdev_tier.nchunks ti - 1 in
  Alcotest.(check bool) "promote succeeds" true
    (Vdev_tier.migrate ti ~chunk:last ~target:Vdev_tier.Fast);
  Alcotest.(check bool) "now on fast" true
    (Vdev_tier.chunk_tier ti last = Vdev_tier.Fast);
  Alcotest.(check int) "one demotion" 1 (Vdev_tier.demotions ti);
  Alcotest.(check int) "one promotion" 1 (Vdev_tier.promotions ti);
  (* Already on target: success without a copy. *)
  Alcotest.(check bool) "idempotent" true
    (Vdev_tier.migrate ti ~chunk:0 ~target:Vdev_tier.Slow);
  Alcotest.(check int) "no extra demotion" 1 (Vdev_tier.demotions ti);
  (* Exhaust the slow free pool: the next demotion reports no capacity. *)
  let rec drain c =
    if Vdev_tier.free_chunks ti ~tier:Vdev_tier.Slow > 0 then begin
      ignore (Vdev_tier.migrate ti ~chunk:c ~target:Vdev_tier.Slow);
      drain (c + 1)
    end
  in
  drain 1;
  let fast_chunk =
    let rec find c =
      if Vdev_tier.chunk_tier ti c = Vdev_tier.Fast then c else find (c + 1)
    in
    find 0
  in
  Alcotest.(check bool) "no free slow chunk" false
    (Vdev_tier.migrate ti ~chunk:fast_chunk ~target:Vdev_tier.Slow);
  (* Rehome flips placement without copying. *)
  let slow_chunk =
    let rec find c =
      if Vdev_tier.chunk_tier ti c = Vdev_tier.Slow then c else find (c + 1)
    in
    find 0
  in
  Alcotest.(check bool) "rehome succeeds" true
    (Vdev_tier.rehome ti ~chunk:slow_chunk ~target:Vdev_tier.Fast);
  Alcotest.(check bool) "rehomed to fast" true
    (Vdev_tier.chunk_tier ti slow_chunk = Vdev_tier.Fast);
  (* Data equality after all the shuffling (the rehomed chunk is exempt:
     its contents are declared dead by contract). *)
  Alcotest.(check (list string)) "verify clean" [] (Vdev_tier.verify ti);
  let got = Vdev.read_blocks dev 0 total in
  let cb = Vdev_tier.chunk_blocks ti * bs in
  let base = Vdev_tier.base ti * bs in
  Bytes.blit image (base + (slow_chunk * cb)) got (base + (slow_chunk * cb)) cb;
  Helpers.check_bytes "bytes survive migrations" image got

(* Swap exchanges the physical chunks of a live chunk and a dead one in
   a single map write, without touching the free pools. *)
let test_swap_semantics () =
  let _, _, ti = mk_tier () in
  let dev = Vdev_tier.vdev ti in
  let bs = Vdev.block_size dev in
  let total = Vdev_tier.exported_blocks ti in
  let image = Helpers.bytes_of_pattern ~seed:11 (total * bs) in
  Vdev.write_blocks dev 0 image;
  let last = Vdev_tier.nchunks ti - 1 in
  (* chunk 0 starts fast, the last chunk slow: a demotion-by-swap. *)
  Alcotest.(check bool) "swap succeeds" true
    (Vdev_tier.swap ti ~chunk:0 ~dead:last);
  Alcotest.(check bool) "chunk now slow" true
    (Vdev_tier.chunk_tier ti 0 = Vdev_tier.Slow);
  Alcotest.(check bool) "donor now fast" true
    (Vdev_tier.chunk_tier ti last = Vdev_tier.Fast);
  Alcotest.(check int) "counted as demotion" 1 (Vdev_tier.demotions ti);
  (* Free pools are untouched: swap scales past them by design. *)
  Alcotest.(check int) "free fast unchanged" 1
    (Vdev_tier.free_chunks ti ~tier:Vdev_tier.Fast);
  Alcotest.(check int) "free slow unchanged" 1
    (Vdev_tier.free_chunks ti ~tier:Vdev_tier.Slow);
  (* Chunks 1 and 2 both sit on fast: nothing to exchange. *)
  Alcotest.(check bool) "same-tier swap refused" false
    (Vdev_tier.swap ti ~chunk:1 ~dead:2);
  Alcotest.(check int) "no extra demotion" 1 (Vdev_tier.demotions ti);
  (match Vdev_tier.swap ti ~chunk:5 ~dead:5 with
  | _ -> Alcotest.fail "chunk = dead accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list string)) "verify clean" [] (Vdev_tier.verify ti);
  (* The live chunk's bytes survive at its logical address; the donor's
     logical address holds stale bytes by contract. *)
  let got = Vdev.read_blocks dev 0 total in
  let cb = Vdev_tier.chunk_blocks ti * bs in
  let base = Vdev_tier.base ti * bs in
  Bytes.blit image (base + (last * cb)) got (base + (last * cb)) cb;
  Helpers.check_bytes "bytes survive swap" image got

(* Crash sweep over every block of a migration — copy, then map flip —
   with the power cut planned on either child (the tier view itself
   refuses to arm one).  Whatever the cut point,
   reboot + load must find a valid map whose chunks all read back the
   pre-migration bytes: the only copy is never lost. *)
let test_crash_mid_migration_sweep () =
  List.iter
    (fun (target, armed_name) ->
      for cut = 0 to 36 do
        let fast = mk_child 1024 and slow = mk_child 1024 in
        let ti = Vdev_tier.format ~base:3 ~chunk_blocks:32 ~fast ~slow in
        let dev = Vdev_tier.vdev ti in
        let bs = Vdev.block_size dev in
        let total = Vdev_tier.exported_blocks ti in
        let image = Helpers.bytes_of_pattern ~seed:9 (total * bs) in
        Vdev.write_blocks dev 0 image;
        let chunk =
          match target with
          | Vdev_tier.Slow -> 0 (* starts fast *)
          | Vdev_tier.Fast -> Vdev_tier.nchunks ti - 1 (* starts slow *)
        in
        let armed = if armed_name = "fast" then fast else slow in
        (match Vdev.plan_crash dev ~after_blocks:cut with
        | () -> Alcotest.fail "power cut armed on the tier view"
        | exception Invalid_argument _ -> ());
        Vdev.plan_crash armed ~after_blocks:cut;
        (match Vdev_tier.migrate ti ~chunk ~target with
        | (_ : bool) -> ()
        | exception Vdev.Crashed -> ());
        Vdev.reboot armed;
        let ti2 = Vdev_tier.load ~fast ~slow in
        (match Vdev_tier.verify ti2 with
        | [] -> ()
        | errs ->
            Alcotest.failf "cut %d on %s (-> %s): %s" cut armed_name
              (Vdev_tier.tier_name target)
              (String.concat "; " errs));
        let got = Vdev.read_blocks (Vdev_tier.vdev ti2) 0 total in
        if not (Bytes.equal image got) then
          Alcotest.failf "cut %d on %s (-> %s): exported bytes changed"
            cut armed_name
            (Vdev_tier.tier_name target)
      done)
    [
      (Vdev_tier.Slow, "fast");
      (Vdev_tier.Slow, "slow");
      (Vdev_tier.Fast, "fast");
      (Vdev_tier.Fast, "slow");
    ]

(* The same sweep over a swap: the copy into the donor's physical chunk,
   then the single map write exchanging both entries.  After any cut the
   surviving map must read back the live chunk's bytes — the donor chunk
   is exempt (dead by contract). *)
let test_crash_mid_swap_sweep () =
  List.iter
    (fun armed_name ->
      for cut = 0 to 36 do
        let fast = mk_child 1024 and slow = mk_child 1024 in
        let ti = Vdev_tier.format ~base:3 ~chunk_blocks:32 ~fast ~slow in
        let dev = Vdev_tier.vdev ti in
        let bs = Vdev.block_size dev in
        let total = Vdev_tier.exported_blocks ti in
        let image = Helpers.bytes_of_pattern ~seed:13 (total * bs) in
        Vdev.write_blocks dev 0 image;
        let last = Vdev_tier.nchunks ti - 1 in
        let armed = if armed_name = "fast" then fast else slow in
        Vdev.plan_crash armed ~after_blocks:cut;
        (match Vdev_tier.swap ti ~chunk:0 ~dead:last with
        | (_ : bool) -> ()
        | exception Vdev.Crashed -> ());
        Vdev.reboot armed;
        let ti2 = Vdev_tier.load ~fast ~slow in
        (match Vdev_tier.verify ti2 with
        | [] -> ()
        | errs ->
            Alcotest.failf "swap cut %d on %s: %s" cut armed_name
              (String.concat "; " errs));
        let got = Vdev.read_blocks (Vdev_tier.vdev ti2) 0 total in
        let cb = Vdev_tier.chunk_blocks ti2 * bs in
        let base = Vdev_tier.base ti2 * bs in
        Bytes.blit image (base + (last * cb)) got (base + (last * cb)) cb;
        if not (Bytes.equal image got) then
          Alcotest.failf "swap cut %d on %s: live bytes changed" cut armed_name
      done)
    [ "fast"; "slow" ]

(* ----- Device-level tiered-vs-flat equivalence ----- *)

type tier_op =
  | T_write of int * int * int  (* addr, len, seed *)
  | T_migrate of int * bool  (* chunk, to fast *)

let tier_prop_total = 3 + (61 * 32)

let print_tier_op = function
  | T_write (a, l, s) -> Printf.sprintf "w@%d+%d#%d" a l s
  | T_migrate (c, f) -> Printf.sprintf "mig(c%d->%s)" c (if f then "fast" else "slow")

let arb_tier_prog =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (frequency
           [
             ( 5,
               map2
                 (fun (addr, seed) len ->
                   T_write (min addr (tier_prop_total - len), len, seed))
                 (pair (int_bound (tier_prop_total - 1)) (int_bound 10_000))
                 (int_range 1 80) );
             ( 2,
               map2
                 (fun c f -> T_migrate (c, f))
                 (int_bound 60) bool );
           ]))
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_tier_op ops))
    ~shrink:QCheck.Shrink.list gen

let prop_tier_matches_flat =
  QCheck.Test.make ~count:60
    ~name:"tiered vdev stores the same bytes as one flat disk" arb_tier_prog
    (fun ops ->
      let _, _, ti = mk_tier () in
      let tiered = Vdev_tier.vdev ti in
      let flat = mk_child tier_prop_total in
      let bs = Vdev.block_size tiered in
      List.iter
        (fun op ->
          match op with
          | T_write (addr, len, seed) ->
              let data = Helpers.bytes_of_pattern ~seed (len * bs) in
              Vdev.write_blocks tiered addr data;
              Vdev.write_blocks flat addr data
          | T_migrate (chunk, to_fast) ->
              let target = if to_fast then Vdev_tier.Fast else Vdev_tier.Slow in
              ignore (Vdev_tier.migrate ti ~chunk ~target))
        ops;
      Vdev_tier.verify ti = []
      && Bytes.equal
           (Vdev.read_blocks tiered 0 tier_prop_total)
           (Vdev.read_blocks flat 0 tier_prop_total))

(* ----- FS-level properties over a tiered volume ----- *)

let tier_fs_config ?(demote_age_s = 64.0) ?(promote_reads = 0)
    ?(cache_blocks = 128) () =
  { Helpers.test_config with Config.demote_age_s; promote_reads; cache_blocks }

let fresh_tier_fs ?(config = tier_fs_config ()) () =
  let fast = mk_child 768 and slow = mk_child 1536 in
  let ti = Spec.tier_volume ~config ~fast ~slow in
  let dev = Vdev_tier.vdev ti in
  Fs.format dev config;
  (fast, slow, ti, Fs.mount ~tier:ti dev)

let prop_tier_fs_matches_model =
  QCheck.Test.make ~count:30
    ~name:"tiered fs agrees with model under arbitrary ops" Test_props.arb_ops
    (fun ops ->
      let _, _, ti, fs = fresh_tier_fs () in
      let model = List.fold_left (Test_props.apply fs) [] ops in
      ignore (Fs.demote_step ~max_segments:4 fs);
      Test_props.check_against_model fs model
      && Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs)
      && Vdev_tier.verify ti = [])

let prop_tier_remount_preserves =
  QCheck.Test.make ~count:20
    ~name:"tier reload + remount preserves arbitrary op results"
    Test_props.arb_ops
    (fun ops ->
      let fast, slow, _, fs = fresh_tier_fs () in
      let model = List.fold_left (Test_props.apply fs) [] ops in
      ignore (Fs.demote_step ~max_segments:4 fs);
      Fs.unmount fs;
      let ti2 = Vdev_tier.load ~fast ~slow in
      let fs2 = Fs.mount ~tier:ti2 (Vdev_tier.vdev ti2) in
      Test_props.check_against_model fs2 model)

(* ----- Policies: demotion moves cold data, promotion brings it back ----- *)

let test_demotion_and_promotion () =
  let config =
    tier_fs_config ~demote_age_s:2.0 ~promote_reads:2 ~cache_blocks:16 ()
  in
  let _, _, ti, fs = fresh_tier_fs ~config () in
  let layout = Fs.layout fs in
  for i = 0 to 19 do
    Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 8192 'x')
  done;
  Fs.sync fs;
  (* Age the early segments: the clock ticks once per mutating op. *)
  for i = 0 to 19 do
    Fs.write_path fs (Printf.sprintf "/g%d" i) (Bytes.make 4096 'y')
  done;
  Fs.sync fs;
  let rec pump n = if n > 0 && Fs.demote_step fs > 0 then pump (n - 1) in
  pump 16;
  Alcotest.(check bool) "demotions happened" true (Vdev_tier.demotions ti > 0);
  Alcotest.(check bool) "live data sits on slow" true
    (Vdev_tier.count_chunks ti ~tier:Vdev_tier.Slow > 0);
  (* Find a live file block on a slow chunk and read it until the
     promotion threshold trips. *)
  let slow_victim = ref None in
  Fs.iter_files fs (fun ino inode ->
      if !slow_victim = None && inode.Lfs_core.Inode.ftype = Lfs_core.Types.Regular
      then
        Fs.with_handle fs ino (fun _inode fmap ->
            Lfs_core.Filemap.iter_mapped fmap (fun blockno addr ->
                if !slow_victim = None then begin
                  let seg = Layout.seg_of_block layout addr in
                  if
                    seg >= 0
                    && seg < Vdev_tier.nchunks ti
                    && Vdev_tier.chunk_tier ti seg = Vdev_tier.Slow
                  then slow_victim := Some (ino, blockno)
                end)));
  (match !slow_victim with
  | None -> Alcotest.fail "no file block landed on the slow tier"
  | Some (ino, blockno) ->
      let off = blockno * layout.Layout.block_size in
      for _ = 1 to 4 do
        ignore (Fs.read fs ino ~off ~len:layout.Layout.block_size)
      done;
      Alcotest.(check bool) "promotions happened" true
        (Vdev_tier.promotions ti > 0));
  Alcotest.(check bool) "fsck clean after migrations" true
    (Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs))

(* Some (ino, blockno) of a file block mapped into segment [seg]. *)
let block_in_segment fs seg =
  let layout = Fs.layout fs in
  let found = ref None in
  Fs.iter_files fs (fun ino inode ->
      if inode.Lfs_core.Inode.ftype = Lfs_core.Types.Regular then
        Fs.with_handle fs ino (fun _ fmap ->
            Lfs_core.Filemap.iter_mapped fmap (fun blockno addr ->
                if !found = None && Layout.seg_of_block layout addr = seg then
                  found := Some (ino, blockno))));
  !found

let read_block fs (ino, blockno) =
  let bs = (Fs.layout fs).Layout.block_size in
  ignore (Fs.read fs ino ~off:(blockno * bs) ~len:bs)

(* Reads counted toward promoting a slow segment belong to its current
   life: once the segment empties, a later life — refilled and demoted
   again — starts from zero. *)
let test_promotion_reads_die_with_segment () =
  let config =
    tier_fs_config ~demote_age_s:2.0 ~promote_reads:2 ~cache_blocks:16 ()
  in
  let _, _, ti, fs = fresh_tier_fs ~config () in
  let pump () =
    let rec go n = if n > 0 && Fs.demote_step fs > 0 then go (n - 1) in
    go 16
  in
  let write_batch prefix n =
    for i = 0 to n - 1 do
      Fs.write_path fs (Printf.sprintf "/%s%d" prefix i) (Bytes.make 8192 'x')
    done;
    Fs.sync fs
  in
  write_batch "f" 20;
  write_batch "g" 20;
  pump ();
  (* One read of a file block in every slow segment holding one. *)
  let read_segs =
    List.filter_map
      (fun seg ->
        if Vdev_tier.chunk_tier ti seg <> Vdev_tier.Slow then None
        else
          Option.map
            (fun b ->
              read_block fs b;
              seg)
            (block_in_segment fs seg))
      (List.init (Vdev_tier.nchunks ti) Fun.id)
  in
  Alcotest.(check bool) "file blocks on the slow tier" true (read_segs <> []);
  Alcotest.(check int) "one read does not promote" 0 (Vdev_tier.promotions ti);
  (* Every file goes; take a segment that emptied with them. *)
  List.iter
    (fun (name, _) -> Fs.unlink fs ~dir:Fs.root name)
    (Fs.readdir fs Fs.root);
  Fs.checkpoint fs;
  let seg =
    match List.find_opt (fun s -> Fs.segment_live_bytes fs s = 0) read_segs with
    | Some s -> s
    | None -> Alcotest.fail "no read segment emptied"
  in
  (* Refill until the same segment holds live data on the slow tier
     again. *)
  let rec refill round =
    if round > 200 then Alcotest.fail "segment never came back to the slow tier";
    write_batch (Printf.sprintf "r%d_" round) 4;
    Fs.checkpoint fs;
    pump ();
    if Vdev_tier.chunk_tier ti seg = Vdev_tier.Slow then
      match block_in_segment fs seg with
      | Some b -> b
      | None -> refill (round + 1)
    else refill (round + 1)
  in
  let b = refill 0 in
  let promotions = Vdev_tier.promotions ti in
  read_block fs b;
  Alcotest.(check int) "first read of the new life does not promote"
    promotions (Vdev_tier.promotions ti);
  Alcotest.(check bool) "segment still on the slow tier" true
    (Vdev_tier.chunk_tier ti seg = Vdev_tier.Slow);
  Helpers.fsck_clean fs

(* ----- Harness regressions: the tier subject under both checkers ----- *)

(* Promotion on two reads, so short sweeps migrate in both directions. *)
let tier_spec = Spec.of_string "lfs:tier:25:promote=2"

module ST = (val Spec.subject tier_spec)
module RT = Lfs_model.Refine.Make (ST)

let test_modelcheck_tier () =
  (* Crash points enumerated over the fast child, including the map
     writes of the demotion the subject runs before every sync. *)
  List.iter
    (fun seq ->
      let r = RT.check_seq ~blocks:1024 ~io_depth:2 ~stride:3 ~seed:0 ~nops:40 ~seq () in
      if not (Lfs_model.Refine.seq_clean r) then
        Alcotest.failf "tier refinement not clean:@\n%a"
          Lfs_model.Refine.pp_seq_report r)
    [ 0; 1 ]

let test_crashtest_tier () =
  let module C = Lfs_crashtest.Crashtest in
  let report = C.run ~stride:5 ~seed:3 tier_spec (C.script ~seed:3 ()) in
  Alcotest.(check bool) "has crash points" true (report.C.total_blocks > 0);
  if not (C.is_clean report) then
    Alcotest.failf "tier crashtest not clean:@\n%a" C.pp_report report

let suite =
  ( "tier",
    [
      Alcotest.test_case "plan geometry" `Quick test_plan_geometry;
      Alcotest.test_case "format/load roundtrip" `Quick test_format_load_roundtrip;
      Alcotest.test_case "migrate semantics" `Quick test_migrate_semantics;
      Alcotest.test_case "swap semantics" `Quick test_swap_semantics;
      Alcotest.test_case "crash mid-migration sweep" `Slow test_crash_mid_migration_sweep;
      Alcotest.test_case "crash mid-swap sweep" `Slow test_crash_mid_swap_sweep;
      QCheck_alcotest.to_alcotest prop_tier_matches_flat;
      QCheck_alcotest.to_alcotest prop_tier_fs_matches_model;
      QCheck_alcotest.to_alcotest prop_tier_remount_preserves;
      Alcotest.test_case "demotion and promotion" `Quick test_demotion_and_promotion;
      Alcotest.test_case "promotion reads die with the segment" `Quick
        test_promotion_reads_die_with_segment;
      Alcotest.test_case "modelcheck tier subject" `Slow test_modelcheck_tier;
      Alcotest.test_case "crashtest tier subject" `Slow test_crashtest_tier;
    ] )
