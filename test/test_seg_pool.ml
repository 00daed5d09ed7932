(* Unit tests for the clean-segment pool: pick order, fast-tier
   preference, the pinned rule, and reuse only after a refresh. *)

module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Config = Lfs_core.Config
module Fs = Lfs_core.Fs
module Vdev_tier = Lfs_disk.Vdev_tier
module Geometry = Lfs_disk.Geometry
module Layout = Lfs_core.Layout
module Seg_usage = Lfs_core.Seg_usage
module Seg_pool = Lfs_core.Seg_pool
module Types = Lfs_core.Types

let layout = Layout.compute Helpers.test_config ~disk_blocks:2048

(* 61 chunks of 32 blocks: 0..29 on the fast tier, 30..60 on slow, one
   free physical chunk per tier. *)
let mk_tier () =
  let child () = Vdev.of_disk (Disk.create (Geometry.instant ~blocks:1024)) in
  Vdev_tier.format ~base:3 ~chunk_blocks:32 ~fast:(child ()) ~slow:(child ())

let usage_with_dirty segs =
  let u = Seg_usage.create layout in
  List.iter (fun s -> Seg_usage.add_live u s ~bytes:100 ~mtime:1.0) segs;
  u

(* A tiered volume's chunks are its segments 1:1: the layout's segments
   past the tier's 61 chunks stay dirty so the pool never sees them. *)
let tier_usage_with_dirty segs =
  let beyond = List.init (layout.Layout.nsegs - 61) (fun i -> 61 + i) in
  usage_with_dirty (segs @ beyond)

let picks pool ~exclude n = List.init n (fun _ -> Seg_pool.pick pool ~exclude)

let drain pool ~exclude =
  let rec go acc =
    match Seg_pool.pick pool ~exclude with
    | s -> go (s :: acc)
    | exception Types.Fs_error _ -> List.rev acc
  in
  go []

let test_picks_ascend () =
  let pool = Seg_pool.create None in
  let usage = usage_with_dirty [ 3; 5 ] in
  Seg_pool.refresh pool usage ~active:[ 0; 1 ];
  Alcotest.(check int) "clean and not pinned" (Seg_usage.nsegs usage - 4)
    (Seg_pool.length pool);
  Alcotest.(check (list int)) "ascending, skipping dirty and pinned"
    [ 2; 4; 6; 7 ]
    (picks pool ~exclude:[ 0; 1 ] 4);
  Alcotest.(check int) "each pick leaves the pool" (Seg_usage.nsegs usage - 8)
    (Seg_pool.length pool)

let test_fast_tier_preferred () =
  let ti = mk_tier () in
  (* Leave 28 and 29 clean on the fast tier, and move chunk 2 to the
     slow tier so a slow segment sorts before them. *)
  assert (Vdev_tier.migrate ti ~chunk:2 ~target:Vdev_tier.Slow);
  let usage =
    tier_usage_with_dirty (List.filter (fun s -> s <> 2) (List.init 28 Fun.id))
  in
  let pool = Seg_pool.create (Some ti) in
  Seg_pool.refresh pool usage ~active:[];
  Alcotest.(check (list int)) "fast segments first, then the lowest"
    [ 28; 29; 2 ]
    (picks pool ~exclude:[] 3);
  Alcotest.(check bool) "picked slow segment rehomed to the fast tier" true
    (Vdev_tier.chunk_tier ti 2 = Vdev_tier.Fast);
  Alcotest.(check int) "then ascending" 30 (Seg_pool.pick pool ~exclude:[])

let test_pinned_never_picked_or_donor () =
  let ti = mk_tier () in
  let usage = tier_usage_with_dirty (List.init 28 Fun.id) in
  let pool = Seg_pool.create (Some ti) in
  (* Pinned at refresh: head segments never enter the pool. *)
  Seg_pool.refresh pool usage ~active:[ 28; 31 ];
  Alcotest.(check (list int)) "fast donors" [ 29 ]
    (Seg_pool.donors pool ~active:[] Vdev_tier.Fast);
  Alcotest.(check (list int)) "slow donors exclude an active segment"
    [ 32; 33 ]
    (List.filteri
       (fun i _ -> i < 2)
       (Seg_pool.donors pool ~active:[ 30 ] Vdev_tier.Slow));
  (* A victim of the pass in progress is pinned everywhere, and only
     while the pass runs. *)
  Seg_pool.cleaning pool [ 29; 30 ] (fun () ->
      Alcotest.(check bool) "victim pinned" true
        (Seg_pool.pinned pool ~active:[] 29);
      Alcotest.(check (list int)) "victim is no fast donor" []
        (Seg_pool.donors pool ~active:[] Vdev_tier.Fast);
      Alcotest.(check int) "victims skipped by pick" 32
        (Seg_pool.pick pool ~exclude:[]));
  Alcotest.(check bool) "unpinned after the pass" false
    (Seg_pool.pinned pool ~active:[] 29);
  (match Seg_pool.cleaning pool [ 29 ] (fun () -> failwith "pass failed") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "unpinned after a failed pass" false
    (Seg_pool.is_victim pool 29);
  let rest = drain pool ~exclude:[ 33 ] in
  Alcotest.(check bool) "excluded segment never handed out" false
    (List.mem 33 rest);
  Alcotest.(check bool) "pinned head segments never handed out" false
    (List.mem 28 rest || List.mem 31 rest)

let test_freed_waits_for_refresh () =
  let usage = usage_with_dirty [ 5 ] in
  let pool = Seg_pool.create None in
  Seg_pool.refresh pool usage ~active:[ 0; 1 ];
  (* Segment 5 empties after the checkpoint: its old contents are still
     what a crash would recover, so the pool must not hand it out. *)
  Seg_usage.kill usage 5 ~bytes:100;
  let before = drain pool ~exclude:[ 0; 1 ] in
  Alcotest.(check bool) "not before the refresh" false (List.mem 5 before);
  Seg_pool.refresh pool usage ~active:[ 0; 1 ];
  Alcotest.(check (list int)) "after it" [ 2; 3; 4; 5 ]
    (picks pool ~exclude:[ 0; 1 ] 4);
  Seg_pool.refresh pool usage ~active:[ 0; 1 ];
  Seg_pool.withhold pool (fun s -> s = 2 || s = 4);
  Alcotest.(check (list int)) "withheld until the next refresh" [ 3; 5 ]
    (picks pool ~exclude:[ 0; 1 ] 2)

(* The one tier-move rule: a free chunk on the target tier first, else a
   swap with the lowest clean donor there — never one that would leave
   fewer than [reserve] donors (promotion keeps one fast clean segment
   for the write head). *)
let test_move_keeps_reserve () =
  let ti = mk_tier () in
  (* Spend the fast tier's free chunk; chunk 40 now holds fast data.
     Fast segments 28 and 29 are clean: the donors.  Slow 50 and 51 hold
     data to move. *)
  assert (Vdev_tier.migrate ti ~chunk:40 ~target:Vdev_tier.Fast);
  let usage = tier_usage_with_dirty ([ 40; 50; 51 ] @ List.init 28 Fun.id) in
  let pool = Seg_pool.create (Some ti) in
  Seg_pool.refresh pool usage ~active:[];
  let on_fast s = Vdev_tier.chunk_tier ti s = Vdev_tier.Fast in
  Alcotest.(check int) "room: no free fast chunk, two donors" 2
    (Seg_pool.room pool ~active:[] Vdev_tier.Fast);
  Alcotest.(check bool) "swap with the lowest donor" true
    (Seg_pool.move pool ~active:[] ~reserve:1 50 ~target:Vdev_tier.Fast);
  Alcotest.(check (list bool)) "50 on fast, donor 28 on slow, 29 kept"
    [ true; false; true ]
    (List.map on_fast [ 50; 28; 29 ]);
  Alcotest.(check bool) "the last donor is kept" false
    (Seg_pool.move pool ~active:[] ~reserve:1 51 ~target:Vdev_tier.Fast);
  Alcotest.(check bool) "51 stays slow" false (on_fast 51);
  Alcotest.(check bool) "without a reserve it goes" true
    (Seg_pool.move pool ~active:[] ~reserve:0 51 ~target:Vdev_tier.Fast);
  Alcotest.(check int) "no room left" 0
    (Seg_pool.room pool ~active:[] Vdev_tier.Fast);
  (* A free chunk on the target tier is used before any donor. *)
  Alcotest.(check bool) "migrate into a free slow chunk" true
    (Seg_pool.move pool ~active:[] ~reserve:99 3 ~target:Vdev_tier.Slow);
  Alcotest.(check bool) "3 on slow" false (on_fast 3);
  let flat = Seg_pool.create None in
  Alcotest.(check bool) "no tier, no move" false
    (Seg_pool.move flat ~active:[] ~reserve:0 3 ~target:Vdev_tier.Fast);
  Alcotest.(check int) "no tier, no room" 0
    (Seg_pool.room flat ~active:[] Vdev_tier.Slow)

(* The space budget of each config at one, two and four write heads, as
   a mounted volume states it, in the order: flush need, the heads'
   extra reservations, the reserve, the foreground start and stop
   watermarks, the background start and stop watermarks, the greedy
   line, the checkpoint line and the restock gap. *)
let budget_table =
  [
    ( "default",
      Config.default,
      [
        (1, [ 3; 0; 5; 5; 8; 12; 16; 3; 8; 2 ]);
        (2, [ 3; 1; 6; 6; 9; 12; 16; 3; 9; 4 ]);
        (4, [ 3; 3; 8; 8; 11; 12; 16; 3; 11; 8 ]);
      ] );
    ( "small",
      Config.small,
      [
        (1, [ 3; 0; 5; 5; 7; 7; 9; 3; 8; 2 ]);
        (2, [ 3; 1; 6; 6; 8; 7; 9; 3; 9; 4 ]);
        (4, [ 3; 3; 8; 8; 10; 9; 11; 3; 11; 8 ]);
      ] );
    ( "spec small",
      Lfs_spec.Spec.small_config,
      [
        (1, [ 2; 0; 4; 4; 6; 1000; 1002; 2; 6; 2 ]);
        (2, [ 2; 1; 5; 5; 7; 1000; 1002; 2; 7; 4 ]);
        (4, [ 2; 3; 7; 7; 9; 1000; 1002; 2; 9; 8 ]);
      ] );
    ( "test",
      Helpers.test_config,
      [
        (1, [ 2; 0; 4; 4; 6; 12; 16; 2; 6; 2 ]);
        (2, [ 2; 1; 5; 5; 7; 12; 16; 2; 7; 4 ]);
        (4, [ 2; 3; 7; 7; 9; 12; 16; 2; 9; 8 ]);
      ] );
  ]

let mounted_budget config =
  let geometry =
    {
      (Geometry.instant ~blocks:(24 * config.Config.seg_blocks)) with
      Geometry.block_size = config.Config.block_size;
    }
  in
  let dev = Vdev.of_disk (Disk.create geometry) in
  Fs.format dev config;
  let b = Fs.space_budget (Fs.mount dev) in
  Seg_pool.
    [
      b.flush_need;
      b.head_extra;
      b.reserve;
      b.fg_start;
      b.fg_stop;
      b.bg_start;
      b.bg_stop;
      b.greedy_below;
      b.checkpoint_below;
      b.restock_gap;
    ]

let test_budget_table () =
  List.iter
    (fun (name, config, rows) ->
      List.iter
        (fun (heads, want) ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s, %d heads" name heads)
            want
            (mounted_budget { config with Config.log_heads = heads }))
        rows)
    budget_table;
  (* A victim of utilisation u costs u x 1.3 + 0.05 segments to
     relocate; a pass may spend the pool less one, and at least 0.7. *)
  List.iter
    (fun (u, cost) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "relocation cost at u = %g" u)
        cost (Seg_pool.relocation_cost u))
    [ (0.0, 0.05); (0.5, 0.7); (0.95, 1.285); (1.0, 1.35) ];
  List.iter
    (fun (dirty, want) ->
      let pool = Seg_pool.create None in
      Seg_pool.refresh pool (usage_with_dirty dirty) ~active:[];
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "pass budget over %d segments" (Seg_pool.length pool))
        want (Seg_pool.pass_budget pool))
    (let all = List.init layout.Layout.nsegs Fun.id in
     [
       (all, 0.7);
       (List.tl all, 0.7);
       (List.tl (List.tl all), 1.0);
       (List.filter (fun s -> s >= 5) all, 4.0);
     ])

let suite =
  ( "seg_pool",
    [
      Alcotest.test_case "picks ascend" `Quick test_picks_ascend;
      Alcotest.test_case "fast tier preferred" `Quick test_fast_tier_preferred;
      Alcotest.test_case "pinned never picked or donor" `Quick
        test_pinned_never_picked_or_donor;
      Alcotest.test_case "freed waits for refresh" `Quick
        test_freed_waits_for_refresh;
      Alcotest.test_case "move keeps the donor reserve" `Quick
        test_move_keeps_reserve;
      Alcotest.test_case "space budget table" `Quick test_budget_table;
    ] )
