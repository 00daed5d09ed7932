(* Unit tests for the log appender: address assignment, batching,
   partial-segment writes, segment advancement, the on-disk summary
   chain, lazy payloads, and multi-head segregation. *)

module Disk = Lfs_disk.Disk
module Types = Lfs_core.Types
module Layout = Lfs_core.Layout
module Summary = Lfs_core.Summary
module Log_writer = Lfs_core.Log_writer

let layout = Layout.compute Helpers.test_config ~disk_blocks:1024
(* 32-block segments, 4 KB blocks. *)

type env = {
  disk : Disk.t;
  cache : Lfs_disk.Vdev_cache.t;  (* the writer's, over [disk] *)
  log : Log_writer.t;
  appended : (Types.block_kind * int * float) list ref;  (* kind, seg, mtime *)
  batches : (int * int * int) list ref;  (* head, addr, blocks *)
}

(* Clean segments are handed out in ascending order past the heads'
   own, unless [pick] says otherwise. *)
let mk_env ?(heads = 1) ?pick () =
  let disk = Helpers.fresh_disk () in
  let appended = ref [] in
  let batches = ref [] in
  let next_clean = ref (2 * heads) in
  let positions =
    Array.init heads (fun i ->
        { Log_writer.seg = 2 * i; off = 0; next_seg = (2 * i) + 1 })
  in
  let ascending ~exclude =
    let rec pick () =
      let s = !next_clean in
      incr next_clean;
      if List.mem s exclude then pick () else s
    in
    pick ()
  in
  let cache = Lfs_disk.Vdev_cache.create ~capacity:64 (Helpers.vdev disk) in
  let log =
    Log_writer.create layout cache
      ~pick_clean:(Option.value pick ~default:ascending)
      ~on_append:(fun kind ~seg ~mtime -> appended := (kind, seg, mtime) :: !appended)
      ~on_batch:(fun ~head ~addr ~blocks ->
        batches := (head, addr, blocks) :: !batches)
      ~heads:positions ~seq:1
  in
  { disk; cache; log; appended; batches }

let payload c = Log_writer.Bytes (Bytes.make layout.Layout.block_size c, 0)

let append ?head ?from ?(kind = Types.Data) ?(ino = 7) ?(blockno = 0)
    ?(mtime = 1.0) env c =
  Log_writer.append ?head ?from env.log ~kind ~ino ~blockno ~version:0 ~mtime
    (payload c)

let test_addresses_sequential_in_batch () =
  let env = mk_env () in
  let a1 = append env 'a' ~blockno:0 in
  let a2 = append env 'b' ~blockno:1 in
  (* Slot 0 is the batch's summary; payloads follow contiguously. *)
  Alcotest.(check int) "first payload after summary"
    (Layout.seg_first_block layout 0 + 1) a1;
  Alcotest.(check int) "contiguous" (a1 + 1) a2

let test_nothing_on_disk_before_sync () =
  let env = mk_env () in
  ignore (append env 'x');
  Alcotest.(check int) "no writes yet" 0 (Disk.stats env.disk).Lfs_disk.Io_stats.writes;
  Log_writer.sync env.log;
  Alcotest.(check int) "one batch write" 1 (Disk.stats env.disk).Lfs_disk.Io_stats.writes

let test_batch_is_single_io () =
  let env = mk_env () in
  for i = 0 to 9 do
    ignore (append env 'm' ~blockno:i)
  done;
  Log_writer.sync env.log;
  let s = Disk.stats env.disk in
  Alcotest.(check int) "one IO" 1 s.Lfs_disk.Io_stats.writes;
  Alcotest.(check int) "summary + 10 payloads" 11 s.Lfs_disk.Io_stats.blocks_written;
  (match !(env.batches) with
  | [ (_, _, blocks) ] -> Alcotest.(check int) "callback blocks" 11 blocks
  | l -> Alcotest.failf "expected 1 batch, got %d" (List.length l))

let test_summary_on_disk_decodes () =
  let env = mk_env () in
  let a = append env 'p' ~ino:42 ~blockno:5 ~mtime:9.0 in
  Log_writer.sync env.log;
  let sum_addr = a - 1 in
  match Summary.decode (Disk.read_block env.disk sum_addr) with
  | None -> Alcotest.fail "summary should decode"
  | Some s ->
      Alcotest.(check int) "seq" 1 s.Summary.seq;
      Alcotest.(check int) "seg" 0 s.Summary.seg;
      Alcotest.(check int) "next_seg pointer" 1 s.Summary.next_seg;
      (match s.Summary.entries with
      | [ e ] ->
          Alcotest.(check int) "ino" 42 e.Summary.ino;
          Alcotest.(check int) "blockno" 5 e.Summary.blockno;
          Alcotest.(check (float 0.0)) "mtime" 9.0 e.Summary.mtime
      | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l))

let test_payload_checksum_matches () =
  let env = mk_env () in
  let a = append env 'q' in
  Log_writer.sync env.log;
  let s = Option.get (Summary.decode (Disk.read_block env.disk (a - 1))) in
  let payload = Disk.read_blocks env.disk a 1 in
  Alcotest.(check int) "checksum" s.Summary.payload_sum
    (Summary.payload_checksum payload)

(* The write whose payload holds [addr]: its summary, read from disk, and
   whether its [payload_sum] matches the payload read back. *)
let covering_write env addr =
  let first = Layout.seg_first_block layout (Layout.seg_of_block layout addr) in
  let found = ref None in
  ignore
    (Summary.walk_segment layout
       ~seg:(Layout.seg_of_block layout addr)
       ~read:(fun slot -> (Disk.read_block env.disk (first + slot), 0))
       (fun s ->
         let n = List.length s.Summary.entries in
         let start = first + s.Summary.slot + 1 in
         if addr >= start && addr < start + n then begin
           let payload = Disk.read_blocks env.disk start n in
           found :=
             Some (s, Summary.payload_checksum payload = s.Summary.payload_sum);
           false
         end
         else true)
      : bool);
  match !found with
  | Some w -> w
  | None -> Alcotest.failf "no write covers block %d" addr

let test_payload_sum_combines_blocks () =
  (* A batch of distinct blocks, some carried from blocks this writer
     wrote (honestly: the same bytes), sums as one run over its payload. *)
  let env = mk_env () in
  let olds = List.map (fun c -> append env c) [ 'a'; 'b'; 'c' ] in
  Log_writer.sync env.log;
  let a = append env 'x' in
  ignore (append env 'b' ~from:(List.nth olds 1));
  ignore (append env 'y');
  ignore (append env 'a' ~from:(List.nth olds 0));
  Log_writer.sync env.log;
  let s, ok = covering_write env a in
  Alcotest.(check int) "four payload blocks" 4 (List.length s.Summary.entries);
  Alcotest.(check bool) "payload_sum matches the bytes on disk" true ok

let test_from_reuses_recorded_sum () =
  (* [~from] with bytes that differ from what was written there breaks
     the contract on purpose: the batch then carries the recorded
     checksum of the old bytes, which shows the payload was not summed
     again. *)
  let env = mk_env () in
  let old = append env 'o' in
  Log_writer.sync env.log;
  let a = append env 'n' ~from:old in
  Log_writer.sync env.log;
  let s, ok = covering_write env a in
  Alcotest.(check int) "the recorded sum of the source block"
    (Summary.payload_checksum (Disk.read_block env.disk old))
    s.Summary.payload_sum;
  Alcotest.(check bool) "so the payload check fails" false ok

let test_from_reopened_segment_recomputes () =
  (* Segment 0 comes back as the head's third segment.  Once the head
     reopens it, the checksums recorded in its previous life are gone: a
     [~from] into it (here with bytes that differ from the old block) is
     summed afresh, and the batch verifies. *)
  let picks = ref [ 2; 0; 1 ] in
  let pick ~exclude:_ =
    match !picks with
    | s :: rest ->
        picks := rest;
        s
    | [] -> Alcotest.fail "no clean segment left"
  in
  let env = mk_env ~pick () in
  let olds = List.init 5 (fun i -> append env 'o' ~blockno:i) in
  Log_writer.sync env.log;
  let left = ref false in
  while not (!left && Log_writer.current_segment env.log = 0) do
    ignore (append env 'f');
    if Log_writer.current_segment env.log <> 0 then left := true
  done;
  let a = append env 'n' ~from:(List.nth olds 4) in
  Log_writer.sync env.log;
  Alcotest.(check int) "written into the reopened segment" 0
    (Layout.seg_of_block layout a);
  let _, ok = covering_write env a in
  Alcotest.(check bool) "payload_sum computed from the new bytes" true ok

let test_from_outside_log_rejected () =
  let env = mk_env () in
  match append env 'x' ~from:0 with
  | _ -> Alcotest.fail "a ~from in the fixed area was accepted"
  | exception Invalid_argument _ -> ()

let test_partial_segment_chain () =
  (* Two syncs produce two summaries chained within one segment. *)
  let env = mk_env () in
  let a1 = append env '1' in
  Log_writer.sync env.log;
  let a2 = append env '2' in
  Log_writer.sync env.log;
  let s1 = Option.get (Summary.decode (Disk.read_block env.disk (a1 - 1))) in
  Alcotest.(check int) "second write follows first" (Summary.next_slot s1)
    (a2 - 1 - Layout.seg_first_block layout 0);
  let s2 = Option.get (Summary.decode (Disk.read_block env.disk (a2 - 1))) in
  Alcotest.(check bool) "seq grows" true (s2.Summary.seq > s1.Summary.seq)

let test_segment_advance_uses_reservation () =
  let env = mk_env () in
  (* Fill segment 0 (31 payload slots + summaries). *)
  for i = 0 to 40 do
    ignore (append env 'f' ~blockno:i)
  done;
  Log_writer.sync env.log;
  Alcotest.(check int) "moved to the reserved segment" 1
    (Log_writer.current_segment env.log);
  Alcotest.(check bool) "new reservation" true
    (Log_writer.reserved_segment env.log <> 1)

let test_on_append_accounting () =
  let env = mk_env () in
  ignore (append env 'a' ~mtime:3.0);
  ignore (append env 'b' ~mtime:5.0 ~kind:Types.Indirect);
  match List.rev !(env.appended) with
  | [ (Types.Data, 0, 3.0); (Types.Indirect, 0, 5.0) ] -> ()
  | l -> Alcotest.failf "unexpected accounting (%d entries)" (List.length l)

let test_lazy_payload_rendered_at_sync () =
  let env = mk_env () in
  let rendered = ref false in
  let (_ : Types.baddr) =
    Log_writer.append env.log ~kind:Types.Imap ~ino:0 ~blockno:0 ~version:0
      ~mtime:1.0
      (Log_writer.Lazy
         (fun buf ~pos ->
           rendered := true;
           Bytes.fill buf pos layout.Layout.block_size 'L'))
  in
  Alcotest.(check bool) "not rendered at append" false !rendered;
  Log_writer.sync env.log;
  Alcotest.(check bool) "rendered at sync" true !rendered

(* A batch write enters only the blocks that die whole into the cache
   (data, indirect and table blocks): its summary, inode blocks and
   dir-log blocks go around it, take no entry and evict nothing.  A
   block resident before the write of its address is dropped either
   way, so nothing stale survives. *)
let test_batch_caches_payload_only () =
  let env = mk_env () in
  let lazy_block kind =
    Log_writer.append env.log ~kind ~ino:0 ~blockno:0 ~version:0 ~mtime:1.0
      (Log_writer.Lazy (fun buf ~pos -> Bytes.fill buf pos layout.Layout.block_size 'L'))
  in
  let data = append env 'd' ~blockno:0 in
  let inode = lazy_block Types.Inode_block in
  let dir_log = lazy_block Types.Dir_log in
  let indirect = lazy_block Types.Indirect in
  let imap = lazy_block Types.Imap in
  let summary = data - 1 in
  (* A stale copy of the summary's address, as a read left it. *)
  ignore (Lfs_disk.Vdev.read_blocks (Lfs_disk.Vdev_cache.vdev env.cache) summary 1 : bytes);
  Alcotest.(check bool) "stale copy resident" true (Lfs_disk.Vdev_cache.mem env.cache summary);
  Log_writer.sync env.log;
  let cached a = Lfs_disk.Vdev_cache.mem env.cache a in
  Alcotest.(check (list bool)) "data, indirect and imap cached; the rest not"
    [ true; true; true; false; false; false ]
    (List.map cached [ data; indirect; imap; inode; dir_log; summary ]);
  Alcotest.(check int) "three entries" 3 (Lfs_disk.Vdev_cache.resident env.cache)

(* Every batch goes out of the writer's one transfer buffer.  A batch
   shorter than the one before writes exactly its own blocks: nothing of
   the longer batch's tail reaches the disk. *)
let test_short_batch_after_long () =
  let env = mk_env () in
  let bs = layout.Layout.block_size in
  for i = 0 to 5 do
    ignore (append env 'L' ~blockno:i)
  done;
  Log_writer.sync env.log;
  let a = append env 's' ~blockno:10 in
  let b = append env 't' ~blockno:11 in
  let before = Lfs_disk.Io_stats.copy (Disk.stats env.disk) in
  Log_writer.sync env.log;
  let d = Lfs_disk.Io_stats.diff (Disk.stats env.disk) before in
  Alcotest.(check int) "one write" 1 d.Lfs_disk.Io_stats.writes;
  Alcotest.(check int) "its summary and two payloads" 3
    d.Lfs_disk.Io_stats.blocks_written;
  let s = Summary.decode ~block_size:bs (Disk.read_block env.disk (a - 1)) in
  Alcotest.(check int) "summary lists two entries" 2
    (List.length (Option.get s).Summary.entries);
  Helpers.check_bytes "first payload" (Bytes.make bs 's') (Disk.read_block env.disk a);
  Helpers.check_bytes "second payload" (Bytes.make bs 't') (Disk.read_block env.disk b);
  Helpers.check_bytes "nothing past the batch" (Bytes.make (4 * bs) '\000')
    (Disk.read_blocks env.disk (b + 1) 4)

(* After the first batch, batches allocate no block buffer: 100 batches
   of 32 blocks (a summary and 31 payloads, one segment each) add less
   than one batch's worth of words to the major heap. *)
let test_batches_reuse_transfer_buffer () =
  let bs = layout.Layout.block_size in
  let next = ref 0 in
  let rec pick ~exclude =
    let s = !next mod layout.Layout.nsegs in
    incr next;
    if List.mem s exclude then pick ~exclude else s
  in
  let log =
    Log_writer.create layout
      (Lfs_disk.Vdev_cache.create ~capacity:0 (Helpers.vdev (Helpers.fresh_disk ())))
      ~pick_clean:pick
      ~on_append:(fun _ ~seg:_ ~mtime:_ -> ())
      ~on_batch:(fun ~head:_ ~addr:_ ~blocks:_ -> ())
      ~heads:[| { Log_writer.seg = 0; off = 0; next_seg = 1 } |]
      ~seq:1
  in
  next := 2;
  let block = Bytes.make bs 'p' in
  let batch () =
    for i = 0 to 30 do
      ignore
        (Log_writer.append log ~kind:Types.Data ~ino:7 ~blockno:i ~version:0
           ~mtime:1.0 (Log_writer.Bytes (block, 0)))
    done;
    Log_writer.sync log;
    ignore (Log_writer.barrier log : float)
  in
  batch ();
  let syncs0 = (Log_writer.head_stats log 0).Log_writer.syncs in
  let words =
    Helpers.major_words (fun () ->
        for _ = 1 to 100 do
          batch ()
        done)
  in
  Alcotest.(check int) "100 batches" (syncs0 + 100)
    (Log_writer.head_stats log 0).Log_writer.syncs;
  let one_batch = float_of_int (32 * bs / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words < one batch (%.0f)" words one_batch)
    true (words < one_batch)

let test_wrong_payload_size_rejected () =
  let env = mk_env () in
  let (_ : Types.baddr) =
    Log_writer.append env.log ~kind:Types.Data ~ino:1 ~blockno:0 ~version:0
      ~mtime:1.0
      (Log_writer.Bytes (Bytes.make 17 'x', 0))
  in
  match Log_writer.sync env.log with
  | () -> Alcotest.fail "should reject non-block payload"
  | exception Invalid_argument _ -> ()

let test_addresses_never_reused_within_segment () =
  let env = mk_env () in
  let seen = Hashtbl.create 64 in
  for i = 0 to 25 do
    let a = append env 'u' ~blockno:i in
    Alcotest.(check bool) "fresh address" false (Hashtbl.mem seen a);
    Hashtbl.replace seen a ();
    if i mod 7 = 0 then Log_writer.sync env.log
  done

let one_head_ckpt =
  {
    Lfs_core.Checkpoint.timestamp = 0.0;
    log_seq = 1;
    heads = [| { Log_writer.seg = 0; off = 0; next_seg = 1 } |];
    imap_addrs = [||];
    usage_addrs = [||];
  }

let test_scan_follows_chain_across_segments () =
  let env = mk_env () in
  for i = 0 to 70 do
    ignore (append env 'c' ~blockno:i);
    if i mod 5 = 0 then Log_writer.sync env.log
  done;
  Log_writer.sync env.log;
  (* Scan the log like recovery would, from a synthetic checkpoint at
     the very beginning. *)
  let result =
    Lfs_core.Recovery.scan layout (Helpers.vdev env.disk) ~ckpt:one_head_ckpt
  in
  let total_entries =
    List.fold_left
      (fun acc w ->
        acc + List.length w.Lfs_core.Recovery.summary.Summary.entries)
      0 result.Lfs_core.Recovery.writes
  in
  Alcotest.(check int) "all 71 blocks found" 71 total_entries;
  Alcotest.(check int) "writer position recovered"
    (Log_writer.current_segment env.log)
    result.Lfs_core.Recovery.tails.(0).Log_writer.seg;
  Alcotest.(check int) "seq recovered" (Log_writer.seq env.log)
    result.Lfs_core.Recovery.next_seq

let test_scan_stops_at_stale_summary () =
  let env = mk_env () in
  ignore (append env 's');
  Log_writer.sync env.log;
  (* Plant a stale summary (lower seq) where the chain would continue:
     the scan must not accept it. *)
  let stale =
    Helpers.encode_summary ~block_size:layout.Layout.block_size
      {
        Summary.seq = 0;
        seg = 0;
        slot = 2;
        next_seg = 5;
        timestamp = 0.0;
        payload_sum = Summary.payload_checksum (Bytes.create 0);
        durable_below = 0;
        tail_sum = 0;
        entries = [];
        records = [];
        inodes = [];
      }
  in
  Disk.write_block env.disk (Layout.seg_first_block layout 0 + 2) stale;
  let result =
    Lfs_core.Recovery.scan layout (Helpers.vdev env.disk) ~ckpt:one_head_ckpt
  in
  Alcotest.(check int) "only the real write" 1
    (List.length result.Lfs_core.Recovery.writes)

(* ----- Multi-head ----- *)

let test_heads_write_disjoint_segments () =
  let env = mk_env ~heads:2 () in
  let a = append env 'h' ~head:0 ~blockno:0 in
  let b = append env 'c' ~head:1 ~blockno:1 in
  Alcotest.(check int) "hot head in segment 0" 0 (Layout.seg_of_block layout a);
  Alcotest.(check int) "cold head in segment 2" 2 (Layout.seg_of_block layout b);
  Log_writer.sync env.log;
  (* Each head issued its own batch, tagged with its index. *)
  (match List.sort compare !(env.batches) with
  | [ (0, _, 2); (1, _, 2) ] -> ()
  | l -> Alcotest.failf "expected 2 single-block batches, got %d" (List.length l));
  Alcotest.(check (list int)) "active segments cover both heads"
    [ 0; 1; 2; 3 ]
    (List.sort compare (Log_writer.active_segments env.log))

let test_heads_share_seq () =
  let env = mk_env ~heads:2 () in
  let a = append env 'h' ~head:0 in
  Log_writer.sync env.log;
  let b = append env 'c' ~head:1 in
  Log_writer.sync env.log;
  let sa = Option.get (Summary.decode (Disk.read_block env.disk (a - 1))) in
  let sb = Option.get (Summary.decode (Disk.read_block env.disk (b - 1))) in
  Alcotest.(check int) "hot batch first" 1 sa.Summary.seq;
  Alcotest.(check int) "cold batch shares the counter" 2 sb.Summary.seq

let test_advance_excludes_all_heads () =
  let env = mk_env ~heads:2 () in
  (* Roll both heads over several segments; no segment may ever be
     owned by two heads. *)
  for i = 0 to 200 do
    ignore (append env 'x' ~head:(i mod 2) ~blockno:i);
    if i mod 9 = 0 then Log_writer.sync env.log
  done;
  Log_writer.sync env.log;
  let active = Log_writer.active_segments env.log in
  Alcotest.(check int) "4 distinct active segments" 4
    (List.length (List.sort_uniq compare active))

let test_barrier_covers_all_heads () =
  let env = mk_env ~heads:2 () in
  ignore (append env 'h' ~head:0);
  ignore (append env 'c' ~head:1);
  Log_writer.sync env.log;
  Alcotest.(check int) "both batches unflushed" 2
    (Log_writer.unflushed_batches env.log);
  ignore (Log_writer.barrier env.log);
  Alcotest.(check int) "barrier drains every head" 0
    (Log_writer.unflushed_batches env.log)

let test_head_stats_attribute_traffic () =
  let env = mk_env ~heads:2 () in
  for i = 0 to 4 do
    ignore (append env 'h' ~head:0 ~blockno:i)
  done;
  ignore (append env 'c' ~head:1 ~blockno:9);
  Log_writer.sync env.log;
  let h0 = Log_writer.head_stats env.log 0 in
  let h1 = Log_writer.head_stats env.log 1 in
  Alcotest.(check int) "head 0 blocks" 5 h0.Log_writer.blocks;
  Alcotest.(check int) "head 1 blocks" 1 h1.Log_writer.blocks;
  Alcotest.(check int) "head 0 syncs" 1 h0.Log_writer.syncs;
  Alcotest.(check int) "head 1 syncs" 1 h1.Log_writer.syncs

let test_scan_merges_two_chains_by_seq () =
  let env = mk_env ~heads:2 () in
  (* Interleave batches across heads so the chains interleave in seq. *)
  for i = 0 to 30 do
    ignore (append env 'm' ~head:(i mod 2) ~blockno:i);
    Log_writer.sync env.log
  done;
  let ckpt =
    {
      one_head_ckpt with
      Lfs_core.Checkpoint.heads =
        [|
          { Log_writer.seg = 0; off = 0; next_seg = 1 };
          { Log_writer.seg = 2; off = 0; next_seg = 3 };
        |];
    }
  in
  let result = Lfs_core.Recovery.scan layout (Helpers.vdev env.disk) ~ckpt in
  Alcotest.(check int) "all 31 writes found" 31
    (List.length result.Lfs_core.Recovery.writes);
  let seqs =
    List.map
      (fun w -> w.Lfs_core.Recovery.summary.Summary.seq)
      result.Lfs_core.Recovery.writes
  in
  Alcotest.(check (list int)) "merged in ascending seq order"
    (List.sort compare seqs) seqs;
  Alcotest.(check int) "seq recovered" (Log_writer.seq env.log)
    result.Lfs_core.Recovery.next_seq;
  Array.iteri
    (fun i (tl : Log_writer.position) ->
      Alcotest.(check int)
        (Printf.sprintf "head %d tail segment" i)
        (Log_writer.current_segment ~head:i env.log)
        tl.Log_writer.seg)
    result.Lfs_core.Recovery.tails

(* Each summary records the oldest batch write, on any head, still in
   flight when it was encoded — or its own seq when none was.  Direct
   writes complete at submit; queued ones when the device services
   them. *)
let test_summary_records_watermark () =
  let env = mk_env ~heads:2 () in
  let batch head =
    let a = append env 'w' ~head in
    Log_writer.sync env.log;
    (Option.get (Summary.decode (Disk.read_block env.disk (a - 1))))
      .Summary.durable_below
  in
  let batches heads = List.map batch heads in
  Alcotest.(check (list int)) "direct: each vouches for all before it" [ 1; 2 ]
    (batches [ 0; 1 ]);
  Disk.set_mode env.disk (Lfs_disk.Io_queue.Queued (fun () -> 0.0));
  Alcotest.(check (list int)) "queued: the oldest in flight" [ 3; 3; 3 ]
    (batches [ 0; 1; 0 ]);
  ignore (Disk.drain env.disk : float);
  Alcotest.(check int) "serviced: all before it" 6 (batch 1);
  ignore (Log_writer.barrier env.log : float);
  Alcotest.(check int) "after a barrier: all before it" 7 (batch 0)

let test_scan_torn_write_truncates_all_chains () =
  let env = mk_env ~heads:2 () in
  (* The batches pipeline under queued submission with no barrier, so
     no summary can vouch for an earlier write: a power cut may leave
     any of them torn while later ones landed. *)
  Disk.set_mode env.disk (Lfs_disk.Io_queue.Queued (fun () -> 0.0));
  let addrs = ref [] in
  for i = 0 to 9 do
    addrs := append env 't' ~head:(i mod 2) ~blockno:i :: !addrs;
    Log_writer.sync env.log
  done;
  ignore (Disk.drain env.disk : float);
  Disk.set_mode env.disk Lfs_disk.Io_queue.Direct;
  let addrs = Array.of_list (List.rev !addrs) in
  (* Tear the payload of the 5th batch (head 0, seq 5): everything from
     seq 5 on must be discarded in BOTH chains, because the global
     barrier never acknowledged anything beyond it. *)
  Disk.write_block env.disk addrs.(4)
    (Bytes.make layout.Layout.block_size '\255');
  let ckpt =
    {
      one_head_ckpt with
      Lfs_core.Checkpoint.heads =
        [|
          { Log_writer.seg = 0; off = 0; next_seg = 1 };
          { Log_writer.seg = 2; off = 0; next_seg = 3 };
        |];
    }
  in
  let result = Lfs_core.Recovery.scan layout (Helpers.vdev env.disk) ~ckpt in
  Alcotest.(check int) "no summary vouches for an earlier write" 1
    result.Lfs_core.Recovery.watermark;
  Alcotest.(check int) "only the 4 pre-torn writes survive" 4
    (List.length result.Lfs_core.Recovery.writes);
  Alcotest.(check int) "next_seq is the torn write's" 5
    result.Lfs_core.Recovery.next_seq;
  List.iter
    (fun w ->
      Alcotest.(check bool) "no write at or past the cutoff" true
        (w.Lfs_core.Recovery.summary.Summary.seq < 5))
    result.Lfs_core.Recovery.writes

let suite =
  ( "log_writer",
    [
      Alcotest.test_case "addresses sequential" `Quick test_addresses_sequential_in_batch;
      Alcotest.test_case "buffered until sync" `Quick test_nothing_on_disk_before_sync;
      Alcotest.test_case "batch is one IO" `Quick test_batch_is_single_io;
      Alcotest.test_case "summary decodes" `Quick test_summary_on_disk_decodes;
      Alcotest.test_case "payload checksum" `Quick test_payload_checksum_matches;
      Alcotest.test_case "payload sum combines blocks" `Quick test_payload_sum_combines_blocks;
      Alcotest.test_case "from reuses recorded sum" `Quick test_from_reuses_recorded_sum;
      Alcotest.test_case "from into reopened segment" `Quick test_from_reopened_segment_recomputes;
      Alcotest.test_case "from outside log rejected" `Quick test_from_outside_log_rejected;
      Alcotest.test_case "partial-segment chain" `Quick test_partial_segment_chain;
      Alcotest.test_case "advance uses reservation" `Quick test_segment_advance_uses_reservation;
      Alcotest.test_case "on_append accounting" `Quick test_on_append_accounting;
      Alcotest.test_case "lazy payload" `Quick test_lazy_payload_rendered_at_sync;
      Alcotest.test_case "batch caches payload only" `Quick test_batch_caches_payload_only;
      Alcotest.test_case "payload size checked" `Quick test_wrong_payload_size_rejected;
      Alcotest.test_case "short batch after long" `Quick test_short_batch_after_long;
      Alcotest.test_case "batches reuse transfer buffer" `Quick
        test_batches_reuse_transfer_buffer;
      Alcotest.test_case "addresses unique" `Quick test_addresses_never_reused_within_segment;
      Alcotest.test_case "scan follows chain" `Quick test_scan_follows_chain_across_segments;
      Alcotest.test_case "scan rejects stale" `Quick test_scan_stops_at_stale_summary;
      Alcotest.test_case "heads disjoint" `Quick test_heads_write_disjoint_segments;
      Alcotest.test_case "heads share seq" `Quick test_heads_share_seq;
      Alcotest.test_case "advance excludes heads" `Quick test_advance_excludes_all_heads;
      Alcotest.test_case "barrier covers heads" `Quick test_barrier_covers_all_heads;
      Alcotest.test_case "head stats" `Quick test_head_stats_attribute_traffic;
      Alcotest.test_case "scan merges chains" `Quick test_scan_merges_two_chains_by_seq;
      Alcotest.test_case "summary records the watermark" `Quick
        test_summary_records_watermark;
      Alcotest.test_case "torn write cuts all chains" `Quick test_scan_torn_write_truncates_all_chains;
    ] )
