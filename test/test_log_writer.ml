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
  log : Log_writer.t;
  appended : (Types.block_kind * int * float) list ref;  (* kind, seg, mtime *)
  batches : (int * int * int) list ref;  (* head, addr, blocks *)
}

let mk_env ?(heads = 1) () =
  let disk = Helpers.fresh_disk () in
  let appended = ref [] in
  let batches = ref [] in
  let next_clean = ref (2 * heads) in
  let positions =
    Array.init heads (fun i ->
        { Log_writer.seg = 2 * i; off = 0; next_seg = (2 * i) + 1 })
  in
  let log =
    Log_writer.create layout (Helpers.vdev disk)
      ~pick_clean:(fun ~exclude ->
        let rec pick () =
          let s = !next_clean in
          incr next_clean;
          if List.mem s exclude then pick () else s
        in
        pick ())
      ~on_append:(fun kind ~seg ~mtime -> appended := (kind, seg, mtime) :: !appended)
      ~on_batch:(fun ~head ~addr ~blocks ->
        batches := (head, addr, blocks) :: !batches)
      ~heads:positions ~seq:1
  in
  { disk; log; appended; batches }

let payload c = Log_writer.Bytes (Bytes.make layout.Layout.block_size c)

let append ?head ?(kind = Types.Data) ?(ino = 7) ?(blockno = 0) ?(mtime = 1.0)
    env c =
  Log_writer.append ?head env.log ~kind ~ino ~blockno ~version:0 ~mtime
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
         (fun () ->
           rendered := true;
           Bytes.make layout.Layout.block_size 'L'))
  in
  Alcotest.(check bool) "not rendered at append" false !rendered;
  Log_writer.sync env.log;
  Alcotest.(check bool) "rendered at sync" true !rendered

let test_wrong_payload_size_rejected () =
  let env = mk_env () in
  let (_ : Types.baddr) =
    Log_writer.append env.log ~kind:Types.Data ~ino:1 ~blockno:0 ~version:0
      ~mtime:1.0
      (Log_writer.Bytes (Bytes.make 17 'x'))
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
    Summary.encode ~block_size:layout.Layout.block_size
      {
        Summary.seq = 0;
        seg = 0;
        slot = 2;
        next_seg = 5;
        timestamp = 0.0;
        payload_sum = Summary.payload_checksum (Bytes.create 0);
        entries = [];
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

let test_scan_torn_write_truncates_all_chains () =
  let env = mk_env ~heads:2 () in
  let addrs = ref [] in
  for i = 0 to 9 do
    addrs := append env 't' ~head:(i mod 2) ~blockno:i :: !addrs;
    Log_writer.sync env.log
  done;
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
      Alcotest.test_case "partial-segment chain" `Quick test_partial_segment_chain;
      Alcotest.test_case "advance uses reservation" `Quick test_segment_advance_uses_reservation;
      Alcotest.test_case "on_append accounting" `Quick test_on_append_accounting;
      Alcotest.test_case "lazy payload" `Quick test_lazy_payload_rendered_at_sync;
      Alcotest.test_case "payload size checked" `Quick test_wrong_payload_size_rejected;
      Alcotest.test_case "addresses unique" `Quick test_addresses_never_reused_within_segment;
      Alcotest.test_case "scan follows chain" `Quick test_scan_follows_chain_across_segments;
      Alcotest.test_case "scan rejects stale" `Quick test_scan_stops_at_stale_summary;
      Alcotest.test_case "heads disjoint" `Quick test_heads_write_disjoint_segments;
      Alcotest.test_case "heads share seq" `Quick test_heads_share_seq;
      Alcotest.test_case "advance excludes heads" `Quick test_advance_excludes_all_heads;
      Alcotest.test_case "barrier covers heads" `Quick test_barrier_covers_all_heads;
      Alcotest.test_case "head stats" `Quick test_head_stats_attribute_traffic;
      Alcotest.test_case "scan merges chains" `Quick test_scan_merges_two_chains_by_seq;
      Alcotest.test_case "torn write cuts all chains" `Quick test_scan_torn_write_truncates_all_chains;
    ] )
