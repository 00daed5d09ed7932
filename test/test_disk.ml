(* Tests for the simulated block device: contents, timing model, crash
   injection, snapshots, and the block cache. *)

module Disk = Lfs_disk.Disk
module Geometry = Lfs_disk.Geometry
module Io_stats = Lfs_disk.Io_stats
module Block_cache = Lfs_disk.Block_cache

let wren = Geometry.wren_iv ~blocks:256

let block c = Bytes.make 4096 c

let test_read_back () =
  let d = Disk.create wren in
  Disk.write_block d 5 (block 'a');
  Helpers.check_bytes "read back" (block 'a') (Disk.read_block d 5);
  Helpers.check_bytes "other block untouched" (block '\000') (Disk.read_block d 6)

let test_multi_block () =
  let d = Disk.create wren in
  let buf = Bytes.cat (block 'x') (block 'y') in
  Disk.write_blocks d 10 buf;
  Helpers.check_bytes "first" (block 'x') (Disk.read_block d 10);
  Helpers.check_bytes "second" (block 'y') (Disk.read_block d 11);
  Helpers.check_bytes "range read" buf (Disk.read_blocks d 10 2)

let test_bounds_checked () =
  let d = Disk.create wren in
  Alcotest.check_raises "write oob" (Invalid_argument "Disk.write_blocks: blocks [256, 257) out of range [0, 256)")
    (fun () -> Disk.write_block d 256 (block 'z'));
  (match Disk.read_blocks d 250 10 with
  | _ -> Alcotest.fail "read past end should raise"
  | exception Invalid_argument _ -> ())

let test_write_partial_block_rejected () =
  let d = Disk.create wren in
  (match Disk.write_blocks d 0 (Bytes.make 100 'p') with
  | () -> Alcotest.fail "partial block should be rejected"
  | exception Invalid_argument _ -> ())

let test_sequential_cheaper_than_random () =
  let d1 = Disk.create wren in
  for i = 0 to 63 do
    Disk.write_block d1 i (block 's')
  done;
  let d2 = Disk.create wren in
  let p = Lfs_util.Prng.create ~seed:3 in
  for _ = 0 to 63 do
    Disk.write_block d2 (Lfs_util.Prng.int p 256) (block 'r')
  done;
  let t1 = (Disk.stats d1).Io_stats.busy_s in
  let t2 = (Disk.stats d2).Io_stats.busy_s in
  Alcotest.(check bool) "sequential at least 3x cheaper" true (t2 > 3.0 *. t1)

let test_one_big_write_cheaper_than_many () =
  let d1 = Disk.create wren in
  Disk.write_blocks d1 0 (Bytes.create (64 * 4096));
  let d2 = Disk.create wren in
  for i = 0 to 63 do
    Disk.write_block d2 i (block 'm')
  done;
  Alcotest.(check bool) "batch beats singles" true
    ((Disk.stats d2).Io_stats.busy_s > (Disk.stats d1).Io_stats.busy_s)

let test_stats_counts () =
  let d = Disk.create wren in
  Disk.write_blocks d 0 (Bytes.create (3 * 4096));
  ignore (Disk.read_blocks d 0 2);
  let s = Disk.stats d in
  Alcotest.(check int) "writes" 1 s.Io_stats.writes;
  Alcotest.(check int) "blocks written" 3 s.Io_stats.blocks_written;
  Alcotest.(check int) "reads" 1 s.Io_stats.reads;
  Alcotest.(check int) "blocks read" 2 s.Io_stats.blocks_read

let test_stats_diff () =
  let d = Disk.create wren in
  Disk.write_block d 0 (block 'a');
  let before = Io_stats.copy (Disk.stats d) in
  Disk.write_block d 1 (block 'b');
  let delta = Io_stats.diff (Disk.stats d) before in
  Alcotest.(check int) "one new write" 1 delta.Io_stats.writes

let test_crash_tears_write () =
  let d = Disk.create wren in
  Disk.plan_crash d ~after_blocks:1;
  (match Disk.write_blocks d 0 (Bytes.cat (block 'A') (block 'B')) with
  | () -> Alcotest.fail "write should crash"
  | exception Disk.Crashed -> ());
  Alcotest.(check bool) "device crashed" true (Disk.is_crashed d);
  Disk.reboot d;
  Helpers.check_bytes "prefix persisted" (block 'A') (Disk.read_block d 0);
  Helpers.check_bytes "suffix lost" (block '\000') (Disk.read_block d 1)

(* With a [Subset] cut the interrupted write lands as many blocks as
   the countdown allows, but not necessarily its first ones. *)
let test_crash_scatters_write () =
  let landed seed =
    let d = Disk.create wren in
    Disk.plan_crash ~cut:(Disk.Subset seed) d ~after_blocks:3;
    (match
       Disk.write_blocks d 0 (Bytes.concat Bytes.empty (List.init 8 (fun _ -> block 'S')))
     with
    | () -> Alcotest.fail "write should crash"
    | exception Disk.Crashed -> ());
    Disk.reboot d;
    List.filter (fun a -> Bytes.equal (Disk.read_block d a) (block 'S')) (List.init 8 Fun.id)
  in
  let subsets = List.map landed [ 1; 2; 3; 4; 5; 6 ] in
  List.iter (fun l -> Alcotest.(check int) "three blocks landed" 3 (List.length l)) subsets;
  Alcotest.(check bool) "not always the prefix" true
    (List.exists (fun l -> l <> [ 0; 1; 2 ]) subsets)

(* A power cut has one engine: the leaf applies it as it commits, so
   one write list leaves the same medium under Direct and under Queued,
   in every crash mode at every cut.  Ascending addresses keep the
   elevator's C-LOOK order equal to submission order. *)
let test_cut_same_in_both_io_modes () =
  let module Vdev = Lfs_disk.Vdev in
  let module Vdev_fault = Lfs_disk.Vdev_fault in
  let writes = [ (2, 1); (3, 4); (7, 2); (9, 5); (14, 1); (15, 3) ] in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 writes in
  let medium ~queued mode cut =
    let d = Disk.create (Geometry.instant ~blocks:32) in
    let fault = Vdev_fault.create ~seed:7 (Vdev.of_disk d) in
    let dev = Vdev_fault.vdev fault in
    if queued then Vdev.set_mode dev (Vdev.Queued (fun () -> 0.0));
    Vdev_fault.plan_crash fault ~mode ~after_blocks:cut ();
    (match
       List.iter
         (fun (addr, n) ->
           Vdev.write_blocks dev addr (Helpers.bytes_of_pattern ~seed:addr (n * 4096)))
         writes;
       Vdev.drain dev
     with
    | _ -> Alcotest.failf "cut %d never fired" cut
    | exception Vdev.Crashed -> ());
    Vdev_fault.reboot fault;
    Vdev.set_mode dev Vdev.Direct;
    List.init 32 (fun a -> Digest.to_hex (Digest.bytes (Disk.read_block d a)))
  in
  List.iter
    (fun mode ->
      for cut = 0 to total do
        Alcotest.(check (list string))
          (Printf.sprintf "%s cut %d: block digests" (Vdev_fault.mode_name mode) cut)
          (medium ~queued:false mode cut) (medium ~queued:true mode cut)
      done)
    [ Vdev_fault.Torn; Dropped; Reordered ]

let test_crash_blocks_io_until_reboot () =
  let d = Disk.create wren in
  Disk.plan_crash d ~after_blocks:0;
  (match Disk.write_block d 0 (block 'x') with
  | () -> Alcotest.fail "should crash"
  | exception Disk.Crashed -> ());
  (match Disk.read_block d 0 with
  | _ -> Alcotest.fail "read after crash should raise"
  | exception Disk.Crashed -> ());
  Disk.reboot d;
  ignore (Disk.read_block d 0)

let test_snapshot_restore () =
  let d = Disk.create wren in
  Disk.write_block d 3 (block 'v');
  let snap = Disk.snapshot d in
  Disk.write_block d 3 (block 'w');
  Disk.restore d ~from:snap;
  Helpers.check_bytes "restored" (block 'v') (Disk.read_block d 3)

let test_snapshot_independent () =
  let d = Disk.create wren in
  let snap = Disk.snapshot d in
  Disk.write_block d 0 (block 'n');
  Helpers.check_bytes "snapshot unchanged" (block '\000') (Disk.read_block snap 0)

let test_save_load_file () =
  let d = Disk.create wren in
  Disk.write_block d 7 (block 'f');
  let path = Filename.temp_file "lfs_test" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Disk.save_file d path;
      let d2 = Disk.load_file wren path in
      Helpers.check_bytes "persisted" (block 'f') (Disk.read_block d2 7))

let test_seek_time_monotone () =
  let g = wren in
  Alcotest.(check (float 0.0)) "zero distance" 0.0 (Geometry.seek_time g ~distance_blocks:0);
  let t1 = Geometry.seek_time g ~distance_blocks:1 in
  let t2 = Geometry.seek_time g ~distance_blocks:128 in
  let t3 = Geometry.seek_time g ~distance_blocks:256 in
  Alcotest.(check bool) "monotone" true (t1 < t2 && t2 < t3);
  Alcotest.(check bool) "bounded by ~1.8x avg" true (t3 < 2.0 *. g.Geometry.avg_seek_s)

let test_geometry_io_time () =
  let g = wren in
  let t = Geometry.io_time g ~seeks:1 ~bytes:1_300_000 in
  (* One average seek + rotation + 1 second of transfer. *)
  Alcotest.(check bool) "about 1.03s" true (t > 1.0 && t < 1.1)

(* The cache's two reads as a caller that keeps the bytes makes them: a
   borrowed block copied out, and a range read into a fresh buffer.
   [fetch] returns the blocks it reads. *)
let cache_read c ~fetch addr =
  Block_cache.with_block c addr Bytes.copy ~fetch:(fun a _ buf pos ->
      let b = fetch a in
      Bytes.blit b 0 buf pos (Bytes.length b))

let cache_read_range ?(bs = 4096) c ~fetch addr n =
  let out = Bytes.create (n * bs) in
  Block_cache.read_range_into c addr n out ~pos:0 ~fetch:(fun a k buf pos ->
      Bytes.blit (fetch a k) 0 buf pos (k * bs));
  out

let test_cache_hit_costs_nothing () =
  let d = Disk.create wren in
  Disk.write_block d 2 (block 'c');
  let c = Block_cache.create ~capacity:8 ~block_size:4096 in
  ignore (cache_read c ~fetch:(Disk.read_block d) 2);
  let busy = (Disk.stats d).Io_stats.busy_s in
  Helpers.check_bytes "cache hit" (block 'c') (cache_read c ~fetch:(Disk.read_block d) 2);
  Alcotest.(check (float 0.0)) "no extra disk time" busy (Disk.stats d).Io_stats.busy_s;
  Alcotest.(check int) "one hit" 1 (Block_cache.hits c);
  Alcotest.(check int) "one miss" 1 (Block_cache.misses c)

let test_cache_eviction_lru () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:2 ~block_size:4096 in
  ignore (cache_read c ~fetch:(Disk.read_block d) 0);
  ignore (cache_read c ~fetch:(Disk.read_block d) 1);
  ignore (cache_read c ~fetch:(Disk.read_block d) 0);  (* touch 0: now 1 is LRU *)
  ignore (cache_read c ~fetch:(Disk.read_block d) 2);  (* evicts 1 *)
  ignore (cache_read c ~fetch:(Disk.read_block d) 0);
  Alcotest.(check int) "0 stayed cached" 2 (Block_cache.hits c);
  ignore (cache_read c ~fetch:(Disk.read_block d) 1);
  Alcotest.(check int) "1 was evicted" 4 (Block_cache.misses c)

let test_cache_put_and_invalidate () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:4 ~block_size:4096 in
  Block_cache.put c 5 (block 'p');
  Helpers.check_bytes "put visible" (block 'p') (cache_read c ~fetch:(Disk.read_block d) 5);
  (match Block_cache.put c 5 (block 'r') with
  | () -> Alcotest.fail "a put over a resident block must raise"
  | exception Invalid_argument _ -> ());
  Helpers.check_bytes "refused put changed nothing" (block 'p')
    (cache_read c ~fetch:(Disk.read_block d) 5);
  Block_cache.invalidate c 5;
  Disk.write_block d 5 (block 'q');
  Helpers.check_bytes "invalidate forces re-read" (block 'q') (cache_read c ~fetch:(Disk.read_block d) 5)

let test_cache_returns_copies () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:4 ~block_size:4096 in
  let b = cache_read c ~fetch:(Disk.read_block d) 1 in
  Bytes.fill b 0 10 'Z';
  Helpers.check_bytes "cache unpolluted" (block '\000') (cache_read c ~fetch:(Disk.read_block d) 1)

(* Eviction from a full cache leaves alone what the cache handed out
   earlier and what a writer still holds. *)
let test_cache_eviction_keeps_handed_out () =
  let d = Disk.create wren in
  Disk.write_block d 0 (block 'a');
  Disk.write_block d 1 (block 'b');
  let c = Block_cache.create ~capacity:1 ~block_size:4096 in
  let miss = cache_read c ~fetch:(Disk.read_block d) 0 in
  let hit = cache_read c ~fetch:(Disk.read_block d) 0 in
  let mine = block 'p' in
  Block_cache.put c 2 mine;
  ignore (cache_read c ~fetch:(Disk.read_block d) 1);
  Helpers.check_bytes "miss result kept" (block 'a') miss;
  Helpers.check_bytes "hit result kept" (block 'a') hit;
  Helpers.check_bytes "writer's buffer kept" (block 'p') mine;
  Helpers.check_bytes "the new entry serves its block" (block 'b')
    (cache_read c ~fetch:(fun _ -> Alcotest.fail "expected a hit") 1)

let test_cache_zero_capacity () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:0 ~block_size:4096 in
  Disk.write_block d 0 (block 'z');
  Helpers.check_bytes "still reads through" (block 'z') (cache_read c ~fetch:(Disk.read_block d) 0);
  Alcotest.(check int) "never hits" 0 (Block_cache.hits c)

let test_geometry_presets () =
  let w = Geometry.wren_iv ~blocks:100 in
  Alcotest.(check int) "wren block size" 4096 w.Geometry.block_size;
  Alcotest.(check (float 1e-9)) "wren seek" 0.0175 w.Geometry.avg_seek_s;
  let m = Geometry.modern_hdd ~blocks:100 in
  Alcotest.(check bool) "modern is faster" true
    (m.Geometry.bandwidth_bytes_per_s > w.Geometry.bandwidth_bytes_per_s
    && m.Geometry.avg_seek_s < w.Geometry.avg_seek_s);
  let i = Geometry.instant ~blocks:100 in
  Alcotest.(check (float 0.0)) "instant is free" 0.0
    (Geometry.io_time i ~seeks:10 ~bytes:1_000_000)

(* ----- Cache statistics and multi-block (range) reads ----- *)

let test_cache_clear_resets_counters () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:8 ~block_size:4096 in
  ignore (cache_read c ~fetch:(Disk.read_block d) 0);
  ignore (cache_read c ~fetch:(Disk.read_block d) 1);
  ignore (cache_read c ~fetch:(Disk.read_block d) 0);
  Alcotest.(check int) "warm hits" 1 (Block_cache.hits c);
  Alcotest.(check int) "warm misses" 2 (Block_cache.misses c);
  Block_cache.clear c;
  Alcotest.(check int) "hits reset" 0 (Block_cache.hits c);
  Alcotest.(check int) "misses reset" 0 (Block_cache.misses c);
  (* The new epoch starts cold: the next read is a miss, not a stale hit. *)
  ignore (cache_read c ~fetch:(Disk.read_block d) 0);
  Alcotest.(check int) "cold again" 1 (Block_cache.misses c);
  Alcotest.(check int) "no phantom hits" 0 (Block_cache.hits c)

let range_fetch d addr n = Disk.read_blocks d addr n

let test_cache_read_range_coalesces () =
  let d = Disk.create wren in
  for i = 0 to 15 do
    Disk.write_block d (10 + i) (block (Char.chr (Char.code 'a' + i)))
  done;
  let expect = Disk.read_blocks d 10 8 in
  let reads0 = (Disk.stats d).Io_stats.reads in
  let c = Block_cache.create ~capacity:32 ~block_size:4096 in
  let got = cache_read_range c ~fetch:(range_fetch d) 10 8 in
  Helpers.check_bytes "cold range" expect got;
  Alcotest.(check int) "one coalesced device read" (reads0 + 1)
    (Disk.stats d).Io_stats.reads;
  Alcotest.(check int) "eight misses" 8 (Block_cache.misses c);
  Alcotest.(check int) "no hits yet" 0 (Block_cache.hits c);
  let busy = (Disk.stats d).Io_stats.busy_s in
  let again = cache_read_range c ~fetch:(range_fetch d) 10 8 in
  Helpers.check_bytes "warm range" expect again;
  Alcotest.(check int) "warm read is free" (reads0 + 1) (Disk.stats d).Io_stats.reads;
  Alcotest.(check (float 0.0)) "no extra disk time" busy (Disk.stats d).Io_stats.busy_s;
  Alcotest.(check int) "eight hits" 8 (Block_cache.hits c)

let test_cache_read_range_partial_overlap () =
  let d = Disk.create wren in
  for i = 0 to 7 do
    Disk.write_block d i (block (Char.chr (Char.code 'A' + i)))
  done;
  let c = Block_cache.create ~capacity:32 ~block_size:4096 in
  ignore (cache_read_range c ~fetch:(range_fetch d) 0 4);
  let expect = Disk.read_blocks d 2 4 in
  let reads1 = (Disk.stats d).Io_stats.reads in
  (* [2,6) overlaps the cached [0,4): two hits, one fetch for [4,6). *)
  let got = cache_read_range c ~fetch:(range_fetch d) 2 4 in
  Helpers.check_bytes "overlap contents" expect got;
  Alcotest.(check int) "two hits" 2 (Block_cache.hits c);
  Alcotest.(check int) "4 + 2 misses" 6 (Block_cache.misses c);
  Alcotest.(check int) "one extra device read" (reads1 + 1)
    (Disk.stats d).Io_stats.reads

let test_vdev_cache_range_reads () =
  let d = Disk.create wren in
  let raw = Lfs_disk.Vdev.of_disk d in
  let cache = Lfs_disk.Vdev_cache.create ~capacity:64 raw in
  let dev = Lfs_disk.Vdev_cache.vdev cache in
  Alcotest.(check bool) "hit rate undefined when cold" true
    (Float.is_nan (Lfs_disk.Vdev_cache.hit_rate cache));
  let data = Helpers.bytes_of_pattern ~seed:11 (6 * 4096) in
  Lfs_disk.Vdev.write_blocks dev 20 data;
  (* Writes populate the cache, so a multi-block read-back is all hits. *)
  Helpers.check_bytes "range read back" data (Lfs_disk.Vdev.read_blocks dev 20 6);
  Alcotest.(check int) "write-through warms the cache" 6
    (Lfs_disk.Vdev_cache.hits cache);
  Alcotest.(check int) "no misses" 0 (Lfs_disk.Vdev_cache.misses cache);
  Alcotest.(check (float 1e-9)) "hit rate" 1.0 (Lfs_disk.Vdev_cache.hit_rate cache);
  (* A disjoint cold range misses per block but costs one lower IO. *)
  let reads0 = (Disk.stats d).Io_stats.reads in
  ignore (Lfs_disk.Vdev.read_blocks dev 100 5);
  Alcotest.(check int) "cold range misses" 5 (Lfs_disk.Vdev_cache.misses cache);
  Alcotest.(check int) "one lower IO" (reads0 + 1) (Disk.stats d).Io_stats.reads

let test_geometry_capacity () =
  Alcotest.(check int) "capacity" (256 * 4096)
    (Geometry.capacity_bytes (Geometry.wren_iv ~blocks:256))

let test_random_seek_averages_avg () =
  (* The distance-dependent curve is calibrated so a uniformly random
     seek costs about avg_seek_s. *)
  let g = Geometry.wren_iv ~blocks:100_000 in
  let p = Lfs_util.Prng.create ~seed:77 in
  let total = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    let a = Lfs_util.Prng.int p g.Geometry.blocks in
    let b = Lfs_util.Prng.int p g.Geometry.blocks in
    total := !total +. Geometry.seek_time g ~distance_blocks:(abs (a - b))
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f within 10%% of avg" mean)
    true
    (mean > 0.9 *. g.Geometry.avg_seek_s && mean < 1.1 *. g.Geometry.avg_seek_s)

(* ---- The submit/complete pipeline ---------------------------------- *)

module Io_queue = Lfs_disk.Io_queue
module Vdev = Lfs_disk.Vdev

(* Regression: zeroing is a real write — it charges modelled time and
   counts in the stats like any other transfer. *)
let test_zero_blocks_is_a_write () =
  let d = Disk.create wren in
  Disk.zero_blocks d 0 4;
  let s = Disk.stats d in
  Alcotest.(check int) "counts as one write" 1 s.Io_stats.writes;
  Alcotest.(check int) "blocks written" 4 s.Io_stats.blocks_written;
  Alcotest.(check bool) "charges modelled time" true (s.Io_stats.busy_s > 0.0)

(* Regression: zeroing respects an armed crash — the countdown ticks, a
   torn zero clears only its writable prefix, and a crashed device
   rejects further zeroing like any other IO. *)
let test_zero_blocks_respects_crash () =
  let d = Disk.create wren in
  Disk.write_blocks d 0 (Bytes.cat (block 'A') (block 'B'));
  Disk.plan_crash d ~after_blocks:1;
  (match Disk.zero_blocks d 0 2 with
  | () -> Alcotest.fail "zero past the countdown should crash"
  | exception Disk.Crashed -> ());
  (match Disk.zero_blocks d 5 1 with
  | () -> Alcotest.fail "crashed device must reject zeroing"
  | exception Disk.Crashed -> ());
  Disk.reboot d;
  Helpers.check_bytes "prefix zeroed" (block '\000') (Disk.read_block d 0);
  Helpers.check_bytes "suffix survives the torn zero" (block 'B')
    (Disk.read_block d 1)

let leaf_tag = function
  | Io_queue.Tag (_, tag) -> tag
  | _ -> Alcotest.fail "expected a leaf ticket"

(* In Queued mode the C-LOOK elevator services outstanding requests by
   ascending address from the head — not in submission order — and
   wraps to the lowest address when nothing lies ahead. *)
let test_elevator_clook_order () =
  let d = Disk.create wren in
  let now = ref 0.0 in
  Disk.set_mode d (Io_queue.Queued (fun () -> !now));
  let t100 = leaf_tag (fst (Disk.submit_read d 100 1)) in
  let t10 = leaf_tag (fst (Disk.submit_read d 10 1)) in
  let t50 = leaf_tag (fst (Disk.submit_read d 50 1)) in
  Alcotest.(check int) "three outstanding" 3 (Disk.queue_depth d);
  Alcotest.(check int) "watermark saw all three" 3
    (Disk.stats d).Io_stats.max_queue_depth;
  now := 1e9;
  let order = ref [] in
  (* The engine's completion ticks in miniature: collect each committed
     service and advance the clock to its finish so the elevator may
     commit its next pick. *)
  let rec go () =
    match Disk.pump d ~now:!now with
    | [] -> ()
    | started ->
        order := !order @ List.map fst started;
        List.iter (fun (_, fin) -> if fin > !now then now := fin) started;
        go ()
  in
  go ();
  Alcotest.(check (list int)) "ascending from a cold head" [ t10; t50; t100 ]
    !order;
  (* Head now sits past block 100: 200 is ahead, 5 forces the wrap. *)
  let t5 = leaf_tag (fst (Disk.submit_read d 5 1)) in
  let t200 = leaf_tag (fst (Disk.submit_read d 200 1)) in
  order := [];
  go ();
  Alcotest.(check (list int)) "sweep on, then wrap" [ t200; t5 ] !order;
  Alcotest.(check bool) "later arrivals waited" true
    ((Disk.stats d).Io_stats.queue_wait_s > 0.0)

(* The synchronous API is submit-then-await: in Direct mode both spell
   the same data, the same timings, and zero queue wait. *)
let test_direct_sync_equals_submit_await () =
  let d1 = Disk.create wren and d2 = Disk.create wren in
  Disk.write_blocks d1 7 (block 'q');
  let b1 = Disk.read_blocks d1 7 1 in
  ignore (Disk.submit_write d2 7 (block 'q'));
  let tk, b2 = Disk.submit_read d2 7 1 in
  ignore (Io_queue.await tk);
  Helpers.check_bytes "same data" b1 b2;
  Alcotest.(check (float 1e-12)) "same busy time"
    (Disk.stats d1).Io_stats.busy_s (Disk.stats d2).Io_stats.busy_s;
  Alcotest.(check (float 0.0)) "no queue wait in direct" 0.0
    (Disk.stats d2).Io_stats.queue_wait_s;
  Alcotest.(check int) "nothing left outstanding" 0 (Disk.queue_depth d2)

(* A drain is the fsync barrier: it services everything outstanding and
   returns the completion horizon, while the data plane already ran at
   submit time. *)
let test_queued_drain_barrier () =
  let d = Disk.create wren in
  let now = ref 0.0 in
  Disk.set_mode d (Io_queue.Queued (fun () -> !now));
  ignore (Disk.submit_write d 3 (block 'd'));
  ignore (Disk.submit_write d 9 (block 'e'));
  Alcotest.(check int) "both queued" 2 (Disk.queue_depth d);
  let fin = Disk.drain d in
  Alcotest.(check int) "nothing outstanding after the barrier" 0
    (Disk.queue_depth d);
  Alcotest.(check (float 1e-12)) "barrier time is the device busy time"
    (Disk.stats d).Io_stats.busy_s fin;
  Helpers.check_bytes "contents landed at submit" (block 'd')
    (snd (Disk.submit_read d 3 1));
  ignore (Disk.drain d)

(* Services committed without a pump (here by a drain) come back from
   the next pump oldest first, each once; a tie on address goes to the
   older request. *)
let test_pump_oldest_first () =
  let d = Disk.create wren in
  let now = ref 0.0 in
  Disk.set_mode d (Io_queue.Queued (fun () -> !now));
  let t100 = leaf_tag (fst (Disk.submit_read d 100 1)) in
  let t10 = leaf_tag (fst (Disk.submit_read d 10 1)) in
  let t10' = leaf_tag (Disk.submit_write d 10 (block 'w')) in
  let t5 = leaf_tag (fst (Disk.submit_read d 5 1)) in
  ignore (Disk.drain d);
  let started = Disk.pump d ~now:!now in
  (* From 5 the head is at 6: both requests at 10 lie ahead and the
     older wins the tie; the younger is behind the head after it. *)
  Alcotest.(check (list int)) "commit order" [ t5; t10; t100; t10' ]
    (List.map fst started);
  let fins = List.map snd started in
  Alcotest.(check bool) "finish times ascend" true
    (List.sort Float.compare fins = fins);
  Alcotest.(check (list int)) "each reported once" []
    (List.map fst (Disk.pump d ~now:1e9))

(* No one pumps a Direct device, so its services are never recorded: a
   later switch to Queued starts with nothing stale to report. *)
let test_direct_leaves_nothing_to_pump () =
  let d = Disk.create wren in
  for i = 0 to 99 do
    Disk.write_block d (i mod 50) (block 'x');
    ignore (Disk.read_block d (i mod 50))
  done;
  Alcotest.(check int) "nothing from direct traffic" 0
    (List.length (Disk.pump d ~now:infinity));
  let now = ref 1e6 in
  Disk.set_mode d (Io_queue.Queued (fun () -> !now));
  Alcotest.(check int) "nothing after the switch" 0
    (List.length (Disk.pump d ~now:infinity));
  let tk = leaf_tag (fst (Disk.submit_read d 7 1)) in
  Alcotest.(check (list int)) "only the queued request" [ tk ]
    (List.map fst (Disk.pump d ~now:infinity))

(* ----- Background reads: foreground first, served in slices ----- *)

let big = Geometry.wren_iv ~blocks:4096

(* Pump as the engine's device ticks do: advance the clock to each
   reported finish until the queue has nothing left to commit.  Returns
   every report, oldest first. *)
let pump_all d now =
  let out = ref [] in
  let rec go () =
    match Disk.pump d ~now:!now with
    | [] -> ()
    | l ->
        List.iter (fun (_, f) -> if f > !now then now := f) l;
        out := List.rev_append l !out;
        go ()
  in
  go ();
  List.rev !out

(* A disk whose head sits away from block 1000, in Direct mode. *)
let warm_disk () =
  let d = Disk.create big in
  Disk.write_block d 3000 (block 'h');
  d

(* A background read that nothing interrupts is one transfer: the same
   finish, busy time (up to rounding: the slices' transfer times are
   summed one by one), seeks and queue wait as in the foreground class,
   in both modes; only Queued mode slices it. *)
let test_bg_read_uninterrupted_is_one_transfer () =
  List.iter
    (fun queued ->
      let run bg =
        let d = warm_disk () in
        let now = ref 0.0 in
        if queued then Disk.set_mode d (Io_queue.Queued (fun () -> !now));
        let submit () = fst (Disk.submit_read d 1000 256) in
        let tk = if bg then Io_queue.background submit else submit () in
        let reports = pump_all d now in
        let fin = Io_queue.await tk in
        (fin, Disk.stats d, List.length reports)
      in
      let at what =
        Printf.sprintf "%s: %s" (if queued then "queued" else "direct") what
      in
      let fin_fg, s_fg, n_fg = run false and fin_bg, s_bg, n_bg = run true in
      Alcotest.(check (float 1e-12)) (at "same finish") fin_fg fin_bg;
      Alcotest.(check (float 1e-12)) (at "same busy_s") s_fg.Io_stats.busy_s
        s_bg.Io_stats.busy_s;
      Alcotest.(check int) (at "same seeks") s_fg.Io_stats.seeks s_bg.Io_stats.seeks;
      Alcotest.(check (float 0.0)) (at "same queue wait")
        s_fg.Io_stats.queue_wait_s s_bg.Io_stats.queue_wait_s;
      Alcotest.(check int) (at "foreground reported once")
        (if queued then 1 else 0) n_fg;
      Alcotest.(check int) (at "background reported per slice")
        (if queued then 256 / Io_queue.slice_blocks else 0) n_bg)
    [ false; true ]

(* A foreground read submitted mid-slice waits only for that slice: it
   starts at the slice's end and takes exactly its own service, while
   the preempted read pays a reposition when it resumes. *)
let test_fg_read_preempts_bg_read () =
  let d = warm_disk () in
  let now = ref 0.0 in
  Disk.set_mode d (Io_queue.Queued (fun () -> !now));
  let bg = leaf_tag (Io_queue.background (fun () -> fst (Disk.submit_read d 1000 256))) in
  let slice_end =
    match Disk.pump d ~now:0.0 with
    | [ (tag, f) ] when tag = bg -> f
    | _ -> Alcotest.fail "expected one slice of the background read"
  in
  now := slice_end /. 2.0;
  let submitted = !now in
  let fg = leaf_tag (fst (Disk.submit_read d 3500 1)) in
  (* The device tick at the slice's end. *)
  now := slice_end;
  let reports = pump_all d now in
  let fg_fin = List.assoc fg reports in
  (* The same read alone, from where the slice left the head. *)
  let own =
    let twin = Disk.create big in
    ignore (Disk.read_blocks twin 1000 Io_queue.slice_blocks);
    let b0 = (Disk.stats twin).Io_stats.busy_s in
    ignore (Disk.read_blocks twin 3500 1);
    (Disk.stats twin).Io_stats.busy_s -. b0
  in
  Alcotest.(check int) "served right after the slice" fg (fst (List.hd reports));
  Alcotest.(check (float 1e-12)) "finish = slice end + own service"
    (slice_end +. own) fg_fin;
  Alcotest.(check bool)
    (Printf.sprintf "waited %.4f s, under one slice" (fg_fin -. submitted -. own))
    true
    (fg_fin -. submitted -. own < slice_end);
  let whole =
    let twin = warm_disk () in
    let b0 = (Disk.stats twin).Io_stats.busy_s in
    ignore (Disk.read_blocks twin 1000 256);
    (Disk.stats twin).Io_stats.busy_s -. b0
  in
  Alcotest.(check bool) "far sooner than the whole read" true
    (fg_fin < whole /. 2.0);
  let bg_fin = List.fold_left (fun acc (t, f) -> if t = bg then f else acc) nan reports in
  Alcotest.(check bool) "the resumed read paid a reposition" true
    (bg_fin > whole +. own);
  Alcotest.(check int) "nothing outstanding" 0 (Disk.queue_depth d)

(* Only reads are demoted: a write submitted inside the background scope
   is served whole and first, though the read lies nearer a cold head. *)
let test_bg_scope_write_not_demoted () =
  let d = Disk.create big in
  let now = ref 0.0 in
  Disk.set_mode d (Io_queue.Queued (fun () -> !now));
  let w, r =
    Io_queue.background (fun () ->
        let w = leaf_tag (Disk.submit_write d 500 (Bytes.make (64 * 4096) 'w')) in
        let r = leaf_tag (fst (Disk.submit_read d 100 64)) in
        (w, r))
  in
  Alcotest.(check (list int)) "write whole, then the read's slices" [ w; r; r ]
    (List.map fst (pump_all d now));
  Helpers.check_bytes "write landed" (Bytes.make 4096 'w')
    (snd (Disk.submit_read d 563 1));
  ignore (Disk.drain d)

(* A partly served background read stays outstanding and in the depth;
   await, drain and pump finish it exactly as one transfer would; a
   reset forgets it. *)
let test_partly_served_bg_read () =
  let partly () =
    let d = warm_disk () in
    let now = ref 0.0 in
    Disk.set_mode d (Io_queue.Queued (fun () -> !now));
    let tk = Io_queue.background (fun () -> fst (Disk.submit_read d 1000 256)) in
    let tag = leaf_tag tk in
    (match Disk.pump d ~now:0.0 with
    | [ (_, f) ] -> now := f (* the device tick at the slice's end *)
    | l -> Alcotest.failf "first slice: %d reports" (List.length l));
    Alcotest.(check int) "still outstanding" 1
      (Disk.outstanding_in d ~lo:tag ~hi:(tag + 1));
    Alcotest.(check int) "still in the depth" 1 (Disk.queue_depth d);
    Alcotest.(check bool) "not completed" false (Io_queue.completed tk);
    (d, tk, now)
  in
  let whole =
    let d = warm_disk () in
    let now = ref 0.0 in
    Disk.set_mode d (Io_queue.Queued (fun () -> !now));
    Io_queue.await (fst (Disk.submit_read d 1000 256))
  in
  let rest = (256 / Io_queue.slice_blocks) - 1 in
  let check_rest what d fin =
    Alcotest.(check (float 1e-12)) (what ^ ": one transfer's finish") whole fin;
    Alcotest.(check int) (what ^ ": nothing outstanding") 0 (Disk.queue_depth d);
    let later = Disk.pump d ~now:infinity in
    Alcotest.(check int) (what ^ ": remaining slices reported") rest
      (List.length later);
    let fins = List.map snd later in
    Alcotest.(check bool) (what ^ ": oldest first") true
      (List.sort Float.compare fins = fins);
    Alcotest.(check (float 1e-12)) (what ^ ": last report is the finish") whole
      (List.nth fins (rest - 1))
  in
  (let d, tk, _ = partly () in
   let fin = Io_queue.await tk in
   Alcotest.(check bool) "await: completed" true (Io_queue.completed tk);
   check_rest "await" d fin);
  (let d, _, _ = partly () in
   check_rest "drain" d (Disk.drain d));
  (let d, _, now = partly () in
   let reports = pump_all d now in
   Alcotest.(check int) "pump: remaining slices" rest (List.length reports);
   Alcotest.(check (float 1e-12)) "pump: one transfer's finish" whole
     (snd (List.nth reports (rest - 1))));
  let d, tk, now = partly () in
  Disk.reboot d;
  Alcotest.(check int) "reset: nothing outstanding" 0 (Disk.queue_depth d);
  Alcotest.(check bool) "reset: forgotten" true (Io_queue.completed tk);
  Alcotest.(check int) "reset: nothing to report" 0
    (List.length (Disk.pump d ~now:infinity));
  let again = Io_queue.background (fun () -> fst (Disk.submit_read d 1032 32)) in
  Alcotest.(check int) "reset: a new read is served afresh" 1
    (List.length (pump_all d now));
  Alcotest.(check bool) "reset: and completes" true (Io_queue.completed again)

(* The cache keeps its own copy of every block: mutating a buffer after
   handing it to a write, or a buffer a read returned (whole-range miss,
   partial hit, full hit), never changes what the cache serves next. *)
let test_cache_owns_its_blocks () =
  let d = Disk.create wren in
  let cache = Lfs_disk.Vdev_cache.create ~capacity:64 (Vdev.of_disk d) in
  let dev = Lfs_disk.Vdev_cache.vdev cache in
  let data = Helpers.bytes_of_pattern ~seed:5 (4 * 4096) in
  let w = Bytes.copy data in
  ignore (Vdev.submit_write dev 20 w);
  Bytes.fill w 0 (Bytes.length w) 'W';
  Helpers.check_bytes "write buffer reused" data (Vdev.read_blocks dev 20 4);
  let one = Bytes.sub data 0 4096 in
  Vdev.write_block dev 30 one;
  Bytes.fill one 0 4096 'W';
  Helpers.check_bytes "one-block write buffer reused" (Bytes.sub data 0 4096)
    (Vdev.read_block dev 30);
  let scribble b = Bytes.fill b 0 (Bytes.length b) 'R' in
  let check_reads what addr n =
    let expect = Disk.read_blocks d addr n in
    let b = Vdev.read_blocks dev addr n in
    Helpers.check_bytes what expect b;
    scribble b;
    Helpers.check_bytes (what ^ ", then scribbled") expect
      (Vdev.read_blocks dev addr n)
  in
  let cold = Helpers.bytes_of_pattern ~seed:6 (8 * 4096) in
  Disk.write_blocks d 40 cold;
  check_reads "single-block miss" 47 1;
  check_reads "single-block hit" 47 1;
  check_reads "whole-range miss" 40 4;
  check_reads "partial hit" 42 4;
  check_reads "full hit" 40 6;
  let b = snd (Vdev.submit_read dev 20 4) in
  scribble b;
  Helpers.check_bytes "submit_read result" data (Vdev.read_blocks dev 20 4);
  Helpers.check_bytes "medium untouched" data (Disk.read_blocks d 20 4);
  Helpers.check_bytes "medium untouched, cold range" cold (Disk.read_blocks d 40 8)

(* Satellite: the vdev layer validates read results against
   n * block_size, so a misbehaving compositor fails at the boundary
   instead of corrupting its caller. *)
let test_vdev_read_length_validated () =
  let d = Vdev.of_disk (Disk.create wren) in
  let short =
    { d with Vdev.read_blocks = (fun _ n -> Bytes.create ((n * 4096) - 1)) }
  in
  (match Vdev.read_blocks short 0 2 with
  | _ -> Alcotest.fail "short read must be rejected"
  | exception Invalid_argument _ -> ());
  let long =
    {
      d with
      Vdev.submit_read =
        (fun ?now:_ _ n -> (Io_queue.Done, Bytes.create ((n * 4096) + 1)));
    }
  in
  match Vdev.submit_read long 0 1 with
  | _ -> Alcotest.fail "oversized read must be rejected"
  | exception Invalid_argument _ -> ()

(* ---- The off-heap store ------------------------------------------- *)

let zero_block = block '\000'

(* [d] holds [model]'s contents, and zeros wherever [model] has none. *)
let check_against_model what model d =
  for a = 0 to Disk.nblocks d - 1 do
    let expect = Option.value (Hashtbl.find_opt model a) ~default:zero_block in
    Helpers.check_bytes (Printf.sprintf "%s: block %d" what a) expect (Disk.read_block d a)
  done

let test_store_unwritten_reads_zero () =
  let d = Disk.create wren in
  Helpers.check_bytes "whole fresh device" (Bytes.make (256 * 4096) '\000')
    (Disk.read_blocks d 0 256);
  Disk.write_blocks d 100 (Bytes.cat (block 'a') (block 'b'));
  Helpers.check_bytes "neighbours of a write"
    (Bytes.concat Bytes.empty [ zero_block; block 'a'; block 'b'; zero_block ])
    (Disk.read_blocks d 99 4);
  Helpers.check_bytes "last block" zero_block (Disk.read_block d 255)

(* Written, torn and never-written blocks survive snapshot, restore and
   an image file, and a snapshot does not follow later writes. *)
let test_store_round_trips () =
  let d = Disk.create wren in
  let model = Hashtbl.create 64 in
  let prng = Lfs_util.Prng.create ~seed:17 in
  let write addr n =
    let b = Helpers.bytes_of_pattern ~seed:(Lfs_util.Prng.int prng 100_000) (n * 4096) in
    Disk.write_blocks d addr b;
    for i = 0 to n - 1 do
      Hashtbl.replace model (addr + i) (Bytes.sub b (i * 4096) 4096)
    done
  in
  for _ = 1 to 12 do
    let n = 1 + Lfs_util.Prng.int prng 4 in
    write (Lfs_util.Prng.int prng (200 - n)) n
  done;
  write 0 1;
  write 255 1;
  (* A torn write: only the first two of four blocks reach the medium. *)
  let torn = Helpers.bytes_of_pattern ~seed:99 (4 * 4096) in
  Disk.plan_crash d ~after_blocks:2;
  (match Disk.write_blocks d 220 torn with
  | () -> Alcotest.fail "write should crash"
  | exception Disk.Crashed -> ());
  Disk.reboot d;
  Hashtbl.replace model 220 (Bytes.sub torn 0 4096);
  Hashtbl.replace model 221 (Bytes.sub torn 4096 4096);
  check_against_model "device" model d;
  let snap = Disk.snapshot d in
  Disk.write_blocks d 230 (block 'L');
  Disk.write_blocks d 0 (block 'L');
  check_against_model "snapshot" model snap;
  let d2 = Disk.create wren in
  Disk.write_blocks d2 240 (block 'X');
  Disk.restore d2 ~from:snap;
  check_against_model "restored" model d2;
  let path = Filename.temp_file "lfs_store" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Disk.save_file snap path;
      Alcotest.(check int64) "image size" (Int64.of_int (256 * 4096))
        (In_channel.with_open_bin path In_channel.length);
      check_against_model "loaded" model (Disk.load_file wren path))

(* A queued read sees submitted writes before the elevator commits them,
   newest submission winning, and the same bytes after they commit. *)
let test_store_queued_overlay () =
  let d = Disk.create wren in
  Disk.write_block d 43 (block 'c');
  Disk.set_mode d (Io_queue.Queued (fun () -> 0.0));
  ignore (Disk.submit_write d 40 (Bytes.concat Bytes.empty [ block 'a'; block 'a'; block 'a' ]));
  ignore (Disk.submit_write d 41 (block 'b'));
  let expect =
    Bytes.concat Bytes.empty [ zero_block; block 'a'; block 'b'; block 'a'; block 'c' ]
  in
  Alcotest.(check bool) "writes still pending" true (Disk.queue_depth d >= 2);
  Helpers.check_bytes "overlay before commit" expect (snd (Disk.submit_read d 39 5));
  ignore (Disk.drain d);
  Helpers.check_bytes "committed" expect (snd (Disk.submit_read d 39 5));
  ignore (Disk.drain d)

let vm_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"VmRSS:" l then
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
          else None)
        (String.split_on_char '\n' status)

(* A paper-sized device (Table 2's 1.28 GB) costs resident memory only
   for the blocks written to it. *)
let test_store_sparse_memory () =
  match vm_rss_kb () with
  | None -> ()
  | Some before ->
      let d = Disk.create (Geometry.wren_iv ~blocks:327_680) in
      for i = 0 to 7 do
        Disk.write_block d (i * 40_000) (block (Char.chr (Char.code 'a' + i)))
      done;
      let after = Option.get (vm_rss_kb ()) in
      Helpers.check_bytes "a written block" (block 'h') (Disk.read_block d 280_000);
      Alcotest.(check bool)
        (Printf.sprintf "RSS grew %d KB, under 32 MB" (after - before))
        true
        (after - before < 32 * 1024)

(* ---- The cache against a reference map ------------------------------- *)

type cache_op =
  | Put of int * int  (* address, byte offset of the block in the source *)
  | Read of int
  | Borrow of int
  | Range of int * int
  | Invalidate of int

let cache_bs = 16

let cache_op_gen =
  QCheck.Gen.(
    let addr = int_bound 7 in
    frequency
      [
        (3, map2 (fun a p -> Put (a, p * cache_bs)) addr (int_bound 1));
        (3, map (fun a -> Read a) addr);
        (3, map (fun a -> Borrow a) addr);
        (3, map2 (fun a n -> Range (a, n)) addr (int_bound 5));
        (1, map (fun a -> Invalidate a) addr);
      ])

let show_cache_op = function
  | Put (a, p) -> Printf.sprintf "put %d@%d" a p
  | Read a -> Printf.sprintf "read %d" a
  | Borrow a -> Printf.sprintf "borrow %d" a
  | Range (a, n) -> Printf.sprintf "range %d+%d" a n
  | Invalidate a -> Printf.sprintf "inval %d" a

(* Runs [ops] on a cache of [capacity] whose device returns fresh
   contents on every fetch.  Every block returned or lent must equal the
   last contents put or fetched for its address, every access counts one
   hit or one miss, and scribbling on what the cache returned or was
   given never reaches the cache, and the cache never holds more than
   [capacity] blocks.  A twin cache runs the same ops with
   each borrow done as a one-block [read_range_into] and each one-block
   read as a borrow: after every op both must agree on hits, misses and
   which blocks are resident. *)
let cache_agrees ~capacity ops =
  let c = Block_cache.create ~capacity ~block_size:cache_bs in
  let twin = Block_cache.create ~capacity ~block_size:cache_bs in
  let junk n = Bytes.make (n * cache_bs) '.' in
  let twin_fetch _ n = junk n in
  let same_as_twin () =
    Block_cache.hits c = Block_cache.hits twin
    && Block_cache.misses c = Block_cache.misses twin
    && List.for_all
         (fun a -> Block_cache.mem c a = Block_cache.mem twin a)
         (List.init 8 Fun.id)
  in
  let resident () =
    List.length (List.filter (Block_cache.mem c) (List.init 8 Fun.id))
  in
  let model = Hashtbl.create 16 in
  let stamp = ref 0 in
  let fresh addr =
    incr stamp;
    let b = Bytes.of_string (Printf.sprintf "%03d:%012d" addr !stamp) in
    Hashtbl.replace model addr (Bytes.copy b);
    b
  in
  let fetch_range addr n = Bytes.concat Bytes.empty (List.init n (fun i -> fresh (addr + i))) in
  let check addr n got =
    let ok = ref (Bytes.length got = n * cache_bs) in
    for i = 0 to n - 1 do
      if !ok then
        ok := Bytes.sub got (i * cache_bs) cache_bs = Hashtbl.find model (addr + i)
    done;
    Bytes.fill got 0 (Bytes.length got) '#';
    !ok
  in
  List.for_all
    (fun op ->
      let accesses = Block_cache.hits c + Block_cache.misses c in
      let counted n = Block_cache.hits c + Block_cache.misses c = accesses + n in
      (match op with
      | Put (addr, pos) ->
          (* A writer invalidates before it puts, as [Vdev_cache] does. *)
          let src = Bytes.make (2 * cache_bs) '?' in
          Bytes.blit (fresh addr) 0 src pos cache_bs;
          Block_cache.invalidate c addr;
          Block_cache.put c addr ~pos src;
          Bytes.fill src 0 (2 * cache_bs) '#';
          Block_cache.invalidate twin addr;
          Block_cache.put twin addr (junk 1);
          counted 0
      | Read addr ->
          Block_cache.with_block twin ~fetch:(fun _ _ _ _ -> ()) addr ignore;
          check addr 1 (cache_read_range ~bs:cache_bs c ~fetch:fetch_range addr 1)
          && counted 1
      | Borrow addr ->
          ignore (cache_read_range ~bs:cache_bs twin ~fetch:twin_fetch addr 1);
          let fetch a n buf pos = Bytes.blit (fetch_range a n) 0 buf pos (n * cache_bs) in
          check addr 1 (Block_cache.with_block c ~fetch addr Bytes.copy) && counted 1
      | Range (addr, n) ->
          ignore (cache_read_range ~bs:cache_bs twin ~fetch:twin_fetch addr n);
          check addr n (cache_read_range ~bs:cache_bs c ~fetch:fetch_range addr n)
          && counted n
      | Invalidate addr ->
          Block_cache.invalidate c addr;
          Block_cache.invalidate twin addr;
          counted 0)
      && same_as_twin ()
      && resident () <= capacity)
    ops

(* While a block is lent, every cache operation raises (any of them could
   recycle the lent buffer); the borrow ends when the callback returns
   or raises. *)
let test_cache_borrow_forbids_ops () =
  let c = Block_cache.create ~capacity:2 ~block_size:4096 in
  let fetch _ n buf pos = Bytes.fill buf pos (n * 4096) 'f' in
  let ops =
    [
      ("with_block", fun () -> Block_cache.with_block c ~fetch 1 ignore);
      ("read_range_into", fun () -> Block_cache.read_range_into c ~fetch 0 1 (block 'b') ~pos:0);
      ("put", fun () -> Block_cache.put c 3 (block 'p'));
      ("invalidate", fun () -> Block_cache.invalidate c 0);
      ("invalidate_range", fun () -> Block_cache.invalidate_range c 0 2);
      ("clear", fun () -> Block_cache.clear c);
      ("mem", fun () -> ignore (Block_cache.mem c 0));
    ]
  in
  let lent =
    Block_cache.with_block c ~fetch 0 (fun b ->
        List.iter
          (fun (name, op) ->
            match op () with
            | () -> Alcotest.failf "%s inside a borrow must raise" name
            | exception Invalid_argument _ -> ())
          ops;
        Bytes.get b 0)
  in
  Alcotest.(check char) "lent the fetched block" 'f' lent;
  Alcotest.(check int) "one miss, nothing else counted" 1 (Block_cache.misses c);
  Alcotest.(check int) "no hits" 0 (Block_cache.hits c);
  (match Block_cache.with_block c ~fetch 0 (fun _ -> failwith "decoder") with
  | () -> Alcotest.fail "the callback's exception must pass through"
  | exception Failure _ -> ());
  List.iter (fun (_, op) -> op ()) ops;
  (* Through the device layer: IO on the cached view inside a borrow. *)
  let vc =
    Lfs_disk.Vdev_cache.create ~capacity:4
      (Lfs_disk.Vdev.of_disk (Disk.create wren))
  in
  let view = Lfs_disk.Vdev_cache.vdev vc in
  Lfs_disk.Vdev_cache.with_block vc 5 (fun _ ->
      match Lfs_disk.Vdev.read_block view 6 with
      | _ -> Alcotest.fail "a read through the view inside a borrow must raise"
      | exception Invalid_argument _ -> ())

(* A borrowed hit lends the resident buffer: no 4 KB copy, so nothing
   reaches the major heap, where a [Vdev.read_block] hit's copy goes. *)
let test_cache_borrowed_hit_no_major_alloc () =
  let vc =
    Lfs_disk.Vdev_cache.create ~capacity:4
      (Lfs_disk.Vdev.of_disk (Disk.create wren))
  in
  let view = Lfs_disk.Vdev_cache.vdev vc in
  Lfs_disk.Vdev.write_block view 7 (block 'w');
  let first b = Bytes.get b 0 in
  (* The window allocates too little to trigger a minor collection, so
     no promotion is counted. *)
  let major_words f =
    Helpers.major_words (fun () ->
        for _ = 1 to 100 do
          f ()
        done)
  in
  let hits0 = Lfs_disk.Vdev_cache.hits vc in
  let borrowed =
    major_words (fun () ->
        ignore (Lfs_disk.Vdev_cache.with_block vc 7 first : char))
  in
  let copied =
    major_words (fun () -> ignore (Lfs_disk.Vdev.read_block view 7 : bytes))
  in
  Alcotest.(check int) "200 hits" (hits0 + 200) (Lfs_disk.Vdev_cache.hits vc);
  Alcotest.(check (float 0.0)) "borrowed hits: no major words" 0.0 borrowed;
  Alcotest.(check bool)
    (Printf.sprintf "copied hits: %.0f major words, a block each" copied)
    true
    (copied >= 100.0 *. 512.0)

let prop_cache_agrees_with_model =
  QCheck.Test.make ~count:300 ~name:"cache agrees with a reference map, capacities 0-4"
    QCheck.(make ~print:(Print.list show_cache_op) Gen.(list_size (int_range 1 60) cache_op_gen))
    (fun ops -> List.for_all (fun capacity -> cache_agrees ~capacity ops) [ 0; 1; 2; 3; 4 ])

(* The case the old range read got wrong: a capacity-2 cache reads
   [10, 12) with 11 as its LRU tail.  The hit on 11 is touched before
   10 is fetched, so the fetch evicts 20, the true LRU entry, and the
   cache ends holding exactly 10 and 11 (the old order evicted 11,
   relinked it anyway and kept three blocks). *)
let test_cache_lru_range_case () =
  let c = Block_cache.create ~capacity:2 ~block_size:4096 in
  let fetch_one = function 11 -> block 'k' | 20 -> block 't' | a -> Alcotest.failf "fetch %d" a in
  ignore (cache_read c ~fetch:fetch_one 11);
  ignore (cache_read c ~fetch:fetch_one 20);
  let fetch addr n =
    Alcotest.(check (pair int int)) "one missed run" (10, 1) (addr, n);
    block 'j'
  in
  Helpers.check_bytes "range bytes" (Bytes.cat (block 'j') (block 'k'))
    (cache_read_range c ~fetch 10 2);
  Alcotest.(check int) "hits" 1 (Block_cache.hits c);
  Alcotest.(check int) "misses" 3 (Block_cache.misses c);
  Alcotest.(check (list int)) "resident: exactly 10 and 11" [ 10; 11 ]
    (List.filter (Block_cache.mem c) [ 10; 11; 20 ]);
  (* Both stay readable as hits: the LRU list holds every entry. *)
  Helpers.check_bytes "10 again" (block 'j') (cache_read c ~fetch:fetch_one 10);
  Helpers.check_bytes "11 again" (block 'k') (cache_read c ~fetch:fetch_one 11);
  Alcotest.(check int) "two more hits" 3 (Block_cache.hits c)

let suite =
  ( "disk",
    [
      Alcotest.test_case "read back" `Quick test_read_back;
      Alcotest.test_case "multi block" `Quick test_multi_block;
      Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
      Alcotest.test_case "partial block rejected" `Quick test_write_partial_block_rejected;
      Alcotest.test_case "sequential cheaper" `Quick test_sequential_cheaper_than_random;
      Alcotest.test_case "batching cheaper" `Quick test_one_big_write_cheaper_than_many;
      Alcotest.test_case "stats counts" `Quick test_stats_counts;
      Alcotest.test_case "stats diff" `Quick test_stats_diff;
      Alcotest.test_case "crash tears write" `Quick test_crash_tears_write;
      Alcotest.test_case "scattered crash lands a subset" `Quick test_crash_scatters_write;
      Alcotest.test_case "cut same in both IO modes" `Quick test_cut_same_in_both_io_modes;
      Alcotest.test_case "crash blocks io" `Quick test_crash_blocks_io_until_reboot;
      Alcotest.test_case "snapshot restore" `Quick test_snapshot_restore;
      Alcotest.test_case "snapshot independent" `Quick test_snapshot_independent;
      Alcotest.test_case "save/load file" `Quick test_save_load_file;
      Alcotest.test_case "seek time monotone" `Quick test_seek_time_monotone;
      Alcotest.test_case "io time model" `Quick test_geometry_io_time;
      Alcotest.test_case "cache hit free" `Quick test_cache_hit_costs_nothing;
      Alcotest.test_case "cache LRU eviction" `Quick test_cache_eviction_lru;
      Alcotest.test_case "cache put/invalidate" `Quick test_cache_put_and_invalidate;
      Alcotest.test_case "cache returns copies" `Quick test_cache_returns_copies;
      Alcotest.test_case "cache eviction keeps handed-out blocks" `Quick
        test_cache_eviction_keeps_handed_out;
      Alcotest.test_case "cache zero capacity" `Quick test_cache_zero_capacity;
      Alcotest.test_case "cache clear resets counters" `Quick test_cache_clear_resets_counters;
      Alcotest.test_case "range read coalesces" `Quick test_cache_read_range_coalesces;
      Alcotest.test_case "range read partial overlap" `Quick test_cache_read_range_partial_overlap;
      Alcotest.test_case "vdev cache range reads" `Quick test_vdev_cache_range_reads;
      Alcotest.test_case "geometry presets" `Quick test_geometry_presets;
      Alcotest.test_case "geometry capacity" `Quick test_geometry_capacity;
      Alcotest.test_case "random seek averages" `Quick test_random_seek_averages_avg;
      Alcotest.test_case "zero blocks is a write" `Quick test_zero_blocks_is_a_write;
      Alcotest.test_case "zero blocks respects crash" `Quick test_zero_blocks_respects_crash;
      Alcotest.test_case "elevator C-LOOK order" `Quick test_elevator_clook_order;
      Alcotest.test_case "direct sync = submit+await" `Quick test_direct_sync_equals_submit_await;
      Alcotest.test_case "queued drain barrier" `Quick test_queued_drain_barrier;
      Alcotest.test_case "vdev read length validated" `Quick test_vdev_read_length_validated;
      Alcotest.test_case "pump oldest first" `Quick test_pump_oldest_first;
      Alcotest.test_case "direct leaves nothing to pump" `Quick test_direct_leaves_nothing_to_pump;
      Alcotest.test_case "bg read uninterrupted is one transfer" `Quick
        test_bg_read_uninterrupted_is_one_transfer;
      Alcotest.test_case "fg read preempts bg read" `Quick test_fg_read_preempts_bg_read;
      Alcotest.test_case "bg scope write not demoted" `Quick test_bg_scope_write_not_demoted;
      Alcotest.test_case "partly served bg read" `Quick test_partly_served_bg_read;
      Alcotest.test_case "cache owns its blocks" `Quick test_cache_owns_its_blocks;
      Alcotest.test_case "store: unwritten blocks read zero" `Quick test_store_unwritten_reads_zero;
      Alcotest.test_case "store: snapshot, restore, save/load" `Quick test_store_round_trips;
      Alcotest.test_case "store: queued overlay" `Quick test_store_queued_overlay;
      Alcotest.test_case "store: sparse memory" `Quick test_store_sparse_memory;
      Alcotest.test_case "cache defect case [10, 12)" `Quick test_cache_lru_range_case;
      Alcotest.test_case "cache borrow forbids other ops" `Quick test_cache_borrow_forbids_ops;
      Alcotest.test_case "cache borrowed hit: no major alloc" `Quick
        test_cache_borrowed_hit_no_major_alloc;
      QCheck_alcotest.to_alcotest prop_cache_agrees_with_model;
    ] )
