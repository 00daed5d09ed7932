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

let test_cache_hit_costs_nothing () =
  let d = Disk.create wren in
  Disk.write_block d 2 (block 'c');
  let c = Block_cache.create ~capacity:8 ~block_size:4096 in
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 2);
  let busy = (Disk.stats d).Io_stats.busy_s in
  Helpers.check_bytes "cache hit" (block 'c') (Block_cache.read c ~fetch:(Disk.read_block d) 2);
  Alcotest.(check (float 0.0)) "no extra disk time" busy (Disk.stats d).Io_stats.busy_s;
  Alcotest.(check int) "one hit" 1 (Block_cache.hits c);
  Alcotest.(check int) "one miss" 1 (Block_cache.misses c)

let test_cache_eviction_lru () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:2 ~block_size:4096 in
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 0);
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 1);
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 0);  (* touch 0: now 1 is LRU *)
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 2);  (* evicts 1 *)
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 0);
  Alcotest.(check int) "0 stayed cached" 2 (Block_cache.hits c);
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 1);
  Alcotest.(check int) "1 was evicted" 4 (Block_cache.misses c)

let test_cache_put_and_invalidate () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:4 ~block_size:4096 in
  Block_cache.put c 5 (block 'p');
  Helpers.check_bytes "put visible" (block 'p') (Block_cache.read c ~fetch:(Disk.read_block d) 5);
  Block_cache.invalidate c 5;
  Disk.write_block d 5 (block 'q');
  Helpers.check_bytes "invalidate forces re-read" (block 'q') (Block_cache.read c ~fetch:(Disk.read_block d) 5)

let test_cache_returns_copies () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:4 ~block_size:4096 in
  let b = Block_cache.read c ~fetch:(Disk.read_block d) 1 in
  Bytes.fill b 0 10 'Z';
  Helpers.check_bytes "cache unpolluted" (block '\000') (Block_cache.read c ~fetch:(Disk.read_block d) 1)

(* Eviction from a full cache leaves alone what the cache handed out
   earlier and what a writer still holds. *)
let test_cache_eviction_keeps_handed_out () =
  let d = Disk.create wren in
  Disk.write_block d 0 (block 'a');
  Disk.write_block d 1 (block 'b');
  let c = Block_cache.create ~capacity:1 ~block_size:4096 in
  let miss = Block_cache.read c ~fetch:(Disk.read_block d) 0 in
  let hit = Block_cache.read c ~fetch:(Disk.read_block d) 0 in
  let mine = block 'p' in
  Block_cache.put c 2 mine;
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 1);
  Helpers.check_bytes "miss result kept" (block 'a') miss;
  Helpers.check_bytes "hit result kept" (block 'a') hit;
  Helpers.check_bytes "writer's buffer kept" (block 'p') mine;
  Helpers.check_bytes "the new entry serves its block" (block 'b')
    (Block_cache.read c ~fetch:(fun _ -> Alcotest.fail "expected a hit") 1)

let test_cache_zero_capacity () =
  let d = Disk.create wren in
  let c = Block_cache.create ~capacity:0 ~block_size:4096 in
  Disk.write_block d 0 (block 'z');
  Helpers.check_bytes "still reads through" (block 'z') (Block_cache.read c ~fetch:(Disk.read_block d) 0);
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
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 0);
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 1);
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 0);
  Alcotest.(check int) "warm hits" 1 (Block_cache.hits c);
  Alcotest.(check int) "warm misses" 2 (Block_cache.misses c);
  Block_cache.clear c;
  Alcotest.(check int) "hits reset" 0 (Block_cache.hits c);
  Alcotest.(check int) "misses reset" 0 (Block_cache.misses c);
  (* The new epoch starts cold: the next read is a miss, not a stale hit. *)
  ignore (Block_cache.read c ~fetch:(Disk.read_block d) 0);
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
  let got = Block_cache.read_range c ~fetch:(range_fetch d) 10 8 in
  Helpers.check_bytes "cold range" expect got;
  Alcotest.(check int) "one coalesced device read" (reads0 + 1)
    (Disk.stats d).Io_stats.reads;
  Alcotest.(check int) "eight misses" 8 (Block_cache.misses c);
  Alcotest.(check int) "no hits yet" 0 (Block_cache.hits c);
  let busy = (Disk.stats d).Io_stats.busy_s in
  let again = Block_cache.read_range c ~fetch:(range_fetch d) 10 8 in
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
  ignore (Block_cache.read_range c ~fetch:(range_fetch d) 0 4);
  let expect = Disk.read_blocks d 2 4 in
  let reads1 = (Disk.stats d).Io_stats.reads in
  (* [2,6) overlaps the cached [0,4): two hits, one fetch for [4,6). *)
  let got = Block_cache.read_range c ~fetch:(range_fetch d) 2 4 in
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
      Alcotest.test_case "cache owns its blocks" `Quick test_cache_owns_its_blocks;
    ] )
