(* Crash-recovery tests: roll-forward of data, inodes and directory
   operations; torn writes; crash injection at arbitrary points. *)

module Fs = Lfs_core.Fs
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Types = Lfs_core.Types
module Config = Lfs_core.Config
module Layout = Lfs_core.Layout
module Summary = Lfs_core.Summary
module Checkpoint = Lfs_core.Checkpoint
module Recovery = Lfs_core.Recovery
module Log_writer = Lfs_core.Log_writer
module Dir_log = Lfs_core.Dir_log
module Prng = Lfs_util.Prng

let test_recover_nothing_to_do () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/f" (Bytes.of_string "data");
  Fs.checkpoint fs;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check int) "nothing replayed" 0 report.Fs.writes_replayed;
  Helpers.check_bytes "file intact" (Bytes.of_string "data") (Option.get (Fs.read_path fs2 "/f"));
  Helpers.fsck_clean fs2

let test_recover_new_file () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  Fs.write_path fs "/post" (Bytes.of_string "after checkpoint");
  Fs.sync fs;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "writes replayed" true (report.Fs.writes_replayed > 0);
  Alcotest.(check bool) "inodes recovered" true (report.Fs.inodes_recovered > 0);
  Helpers.check_bytes "file recovered" (Bytes.of_string "after checkpoint")
    (Option.get (Fs.read_path fs2 "/post"));
  Helpers.fsck_clean fs2

let test_recover_overwrite () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/f" (Bytes.make 9000 'o');
  Fs.checkpoint fs;
  Fs.write_path fs "/f" (Bytes.make 5000 'n');
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Helpers.check_bytes "newest version wins" (Bytes.make 5000 'n')
    (Option.get (Fs.read_path fs2 "/f"));
  Helpers.fsck_clean fs2

let test_recover_delete () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/doomed" (Bytes.make 8000 'd');
  Fs.checkpoint fs;
  Fs.unlink fs ~dir:Fs.root "doomed";
  Fs.sync fs;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "dirop applied" true (report.Fs.dirops_applied > 0);
  Alcotest.(check (option int)) "file stays deleted" None (Fs.resolve fs2 "/doomed");
  Helpers.fsck_clean fs2

let test_recover_rename_atomic () =
  let disk, fs = Helpers.fresh_fs () in
  ignore (Fs.mkdir_path fs "/a");
  ignore (Fs.mkdir_path fs "/b");
  Fs.write_path fs "/a/f" (Bytes.of_string "payload");
  Fs.checkpoint fs;
  let a = Option.get (Fs.resolve fs "/a") in
  let b = Option.get (Fs.resolve fs "/b") in
  Fs.rename fs ~odir:a "f" ~ndir:b "f";
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  let in_a = Fs.resolve fs2 "/a/f" <> None in
  let in_b = Fs.resolve fs2 "/b/f" <> None in
  Alcotest.(check bool) "exactly one location" true (in_a <> in_b);
  Alcotest.(check bool) "rename completed" true in_b;
  Helpers.fsck_clean fs2

let test_recover_link_counts () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/orig" (Bytes.of_string "x");
  Fs.checkpoint fs;
  let ino = Option.get (Fs.resolve fs "/orig") in
  Fs.link fs ~dir:Fs.root "alias" ino;
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check int) "nlink recovered" 2
    (Fs.stat fs2 (Option.get (Fs.resolve fs2 "/orig"))).Fs.st_nlink;
  Helpers.fsck_clean fs2

let test_torn_tail_ignored () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/safe" (Bytes.of_string "safe");
  Fs.checkpoint fs;
  Fs.write_path fs "/torn" (Bytes.make 30_000 't');
  (* Tear the final log write a few blocks in. *)
  Helpers.plan_crash disk ~after_blocks:3;
  (match Fs.sync fs with () -> () | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "safe file present" true (Fs.resolve fs2 "/safe" <> None);
  Helpers.fsck_clean fs2

let test_recovery_is_idempotent () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  Fs.write_path fs "/f" (Bytes.of_string "once");
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Helpers.fsck_clean fs2;
  (* Recover again from the new checkpoint: no-op, still consistent. *)
  let fs3, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check int) "second recovery replays nothing" 0 report.Fs.writes_replayed;
  Helpers.check_bytes "data still there" (Bytes.of_string "once")
    (Option.get (Fs.read_path fs3 "/f"));
  Helpers.fsck_clean fs3

let test_recover_multiple_checkpoint_cycles () =
  let disk, fs = Helpers.fresh_fs () in
  for round = 1 to 5 do
    Fs.write_path fs (Printf.sprintf "/r%d" round) (Bytes.make 4000 'r');
    Fs.checkpoint fs
  done;
  Fs.write_path fs "/tail" (Bytes.of_string "tail");
  Fs.sync fs;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  for round = 1 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "round %d present" round)
      true
      (Fs.resolve fs2 (Printf.sprintf "/r%d" round) <> None)
  done;
  Alcotest.(check bool) "tail recovered" true (Fs.resolve fs2 "/tail" <> None);
  Helpers.fsck_clean fs2

let test_recover_create_without_inode_drops_entry () =
  (* The paper's one uncompletable operation: a directory entry whose
     inode never reached the log is removed during roll-forward.  A
     flush's dir-log records ride in its first write and its inodes in
     its last, so we build it by tearing the second of a flush's two
     writes: the first (a summary describing about 160 blocks) lands,
     the second does not. *)
  let config = { Helpers.test_config with seg_blocks = 256; write_buffer_blocks = 256 } in
  let disk, fs = Helpers.fresh_fs ~blocks:4096 ~config () in
  Fs.checkpoint fs;
  ignore (Fs.create fs ~dir:Fs.root "phantom");
  Fs.write_path fs "/big" (Bytes.make (200 * 4096) 'b');
  Helpers.plan_crash disk ~after_blocks:170;
  (match Fs.sync fs with () -> () | exception Disk.Crashed -> ());
  Alcotest.(check bool) "the power cut came" true (Disk.is_crashed disk);
  Helpers.reboot disk;
  let fs2, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check int) "the first write, with both creates, replayed" 2
    report.Fs.dirops_applied;
  Alcotest.(check (option int)) "phantom dropped" None (Fs.resolve fs2 "/phantom");
  Helpers.fsck_clean fs2

(* Exhaustive crash points over a fixed op sequence: cut power after
   every possible number of written blocks and verify recovery. *)
let test_crash_every_point () =
  let scenario disk =
    let fs = Fs.mount (Helpers.vdev disk) in
    Fs.write_path fs "/a" (Bytes.make 3000 'a');
    Fs.checkpoint fs;
    Fs.write_path fs "/b" (Bytes.make 12_000 'b');
    Fs.sync fs;
    ignore (Fs.mkdir_path fs "/d");
    Fs.write_path fs "/d/c" (Bytes.make 2000 'c');
    Fs.unlink fs ~dir:Fs.root "a";
    Fs.checkpoint fs
  in
  (* How many blocks does the whole scenario write? *)
  let probe = Helpers.fresh_disk () in
  Lfs_core.Fs.format (Helpers.vdev probe) Helpers.test_config;
  let base = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written in
  scenario probe;
  let total = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written - base in
  let failures = ref [] in
  for cut = 0 to total - 1 do
    let disk = Helpers.fresh_disk () in
    Lfs_core.Fs.format (Helpers.vdev disk) Helpers.test_config;
    Helpers.plan_crash disk ~after_blocks:cut;
    (match scenario disk with () -> () | exception Disk.Crashed -> ());
    Helpers.reboot disk;
    match Fs.recover (Helpers.vdev disk) with
    | fs2, _ ->
        let r = Lfs_core.Fsck.check fs2 in
        if not (Lfs_core.Fsck.is_clean r) then failures := cut :: !failures
    | exception e ->
        failures := cut :: !failures;
        ignore e
  done;
  if !failures <> [] then
    Alcotest.failf "crash points with broken recovery: %s"
      (String.concat ", " (List.map string_of_int (List.rev !failures)))

(* Crash injection while the segment cleaner is running: churn a small
   disk until cleaning must happen, then cut power at sampled points
   throughout and verify recovery every time.  This exercises the
   "cleaned segments only become reusable after a checkpoint" rule. *)
let test_crash_during_cleaning () =
  let scenario disk =
    let fs = Fs.mount (Helpers.vdev disk) in
    for i = 0 to 19 do
      Fs.write_path fs (Printf.sprintf "/f%d" i) (Bytes.make 50_000 'a')
    done;
    for round = 0 to 2 do
      for i = 0 to 19 do
        Fs.write_path fs
          (Printf.sprintf "/f%d" i)
          (Bytes.make 50_000 (Char.chr (98 + round)))
      done
    done;
    Fs.checkpoint fs;
    Helpers.fs_total fs "fs.cleaner.segments_cleaned"
  in
  let probe = Helpers.fresh_disk ~blocks:1536 () in
  Lfs_core.Fs.format (Helpers.vdev probe) Helpers.test_config;
  let base = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written in
  let cleaned = scenario probe in
  Alcotest.(check bool) "scenario forces cleaning" true (cleaned > 0);
  let total = (Disk.stats probe).Lfs_disk.Io_stats.blocks_written - base in
  let failures = ref [] in
  let cut = ref 1 in
  while !cut < total do
    let disk = Helpers.fresh_disk ~blocks:1536 () in
    Lfs_core.Fs.format (Helpers.vdev disk) Helpers.test_config;
    Helpers.plan_crash disk ~after_blocks:!cut;
    (match scenario disk with (_ : int) -> () | exception Disk.Crashed -> ());
    Helpers.reboot disk;
    (match Fs.recover (Helpers.vdev disk) with
    | fs2, _ ->
        if not (Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs2)) then
          failures := !cut :: !failures
    | exception _ -> failures := !cut :: !failures);
    cut := !cut + 37  (* sample points coprime with block patterns *)
  done;
  if !failures <> [] then
    Alcotest.failf "broken recovery at cuts: %s"
      (String.concat ", " (List.map string_of_int (List.rev !failures)))

(* Randomised crash torture, as in the development smoke tests. *)
let test_crash_torture ~seed () =
  let prng = Prng.create ~seed in
  let disk, fs0 = Helpers.fresh_fs ~blocks:2048 () in
  let fs = ref fs0 in
  let crash_after = 100 + Prng.int prng 3000 in
  Helpers.plan_crash disk ~after_blocks:crash_after;
  (try
     for i = 0 to 1500 do
       let name = Printf.sprintf "f%d" (Prng.int prng 30) in
       try
         match Prng.int prng 8 with
         | 0 | 1 | 2 | 3 ->
             Fs.write_path !fs ("/" ^ name)
               (Bytes.make (256 + Prng.int prng 40_000) (Char.chr (65 + (i mod 26))))
         | 4 ->
             (match Fs.resolve !fs ("/" ^ name) with
             | Some _ -> Fs.unlink !fs ~dir:Fs.root name
             | None -> ())
         | 5 -> Fs.sync !fs
         | 6 -> Fs.checkpoint !fs
         | _ ->
             (match Fs.resolve !fs ("/" ^ name) with
             | Some ino -> ignore (Fs.read !fs ino ~off:0 ~len:4096)
             | None -> ())
       with Types.Fs_error _ -> ()
     done;
     raise Disk.Crashed
   with Disk.Crashed -> ());
  Helpers.reboot disk;
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Helpers.fsck_clean fs2

let test_recovery_report_counts () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/n%d" i) (Bytes.make 2000 'n')
  done;
  Fs.sync fs;
  let _, report = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check bool) "10 files + root recovered" true
    (report.Fs.inodes_recovered >= 10);
  Alcotest.(check bool) "dirops for each create" true (report.Fs.dirops_applied >= 10);
  Alcotest.(check bool) "data blocks seen" true (report.Fs.data_blocks_recovered >= 10)

(* {2 The durability watermark} *)

let recording = Helpers.recording

let counting dev =
  let view, reads, _ = recording dev in
  (view, reads)

(* The reads [reads] counts in segment [seg], as slots. *)
let slots_read layout reads seg =
  let first = Layout.seg_first_block layout seg in
  Hashtbl.fold
    (fun a _ acc ->
      if a >= first && a < first + layout.Layout.seg_blocks then (a - first) :: acc
      else acc)
    reads []
  |> List.sort compare

let scan_latest dev =
  let layout = (Lfs_core.Superblock.load dev).Lfs_core.Superblock.layout in
  let _, ckpt = Option.get (Checkpoint.read_latest layout dev) in
  (layout, ckpt)

(* The blocks the walk reads of every write it accepts: inode, dir-log
   and indirect blocks. *)
let is_metadata (e : Summary.entry) =
  match e.Summary.kind with
  | Types.Inode_block | Types.Dir_log | Types.Indirect | Types.Dindirect -> true
  | Types.Data | Types.Imap | Types.Seg_usage | Types.Summary -> false

(* The addresses of [s]'s payload blocks [is_metadata] picks. *)
let metadata_addrs layout (s : Summary.t) =
  List.concat
    (List.mapi
       (fun i e -> if is_metadata e then [ Summary.entry_addr s layout i ] else [])
       s.Summary.entries)

(* Under Direct every completed write is vouched for by the next
   summary, so roll-forward checks only the write the power cut tore:
   of every other write it reads the summary and the inode and dir-log
   blocks, and no data block.  The walk reads the torn write's inode and
   dir-log blocks too, before the watermark says it is in flight; of the
   rest of it, whose tail never landed, the check reads the last block
   alone.  Every block read once: the summaries the walk accepts, the
   one block that ends it, every walked write's inode and dir-log
   blocks, and the torn write's last block. *)
let test_watermark_reads_only_metadata () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/old" (Bytes.make 6000 'o');
  Fs.checkpoint fs;
  let contents i = Helpers.bytes_of_pattern ~seed:i (3000 + (2500 * i)) in
  for i = 0 to 7 do
    Fs.write_path fs (Printf.sprintf "/w%d" i) (contents i);
    Fs.sync fs
  done;
  Fs.write_path fs "/torn" (Bytes.make 30_000 't');
  Helpers.plan_crash disk ~after_blocks:3;
  (match Fs.sync fs with () -> () | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  let dev = Helpers.vdev disk in
  let layout, ckpt = scan_latest dev in
  let view, reads = counting dev in
  let r = Recovery.scan layout view ~ckpt in
  let tail = r.Recovery.tails.(0) in
  let torn =
    Option.get
      (Summary.decode
         (Vdev.read_block dev
            (Layout.seg_first_block layout tail.Log_writer.seg + tail.Log_writer.off)))
  in
  Alcotest.(check int) "the torn write is the cutoff" torn.Summary.seq
    r.Recovery.next_seq;
  Alcotest.(check int) "the watermark is the torn write" torn.Summary.seq
    r.Recovery.watermark;
  Alcotest.(check bool) "several writes survive" true
    (List.length r.Recovery.writes >= 8);
  let n_torn = List.length torn.Summary.entries in
  Alcotest.(check bool) "the torn write has several blocks" true (n_torn > 3);
  Alcotest.(check int) "only the torn write's last block was verified" 1
    r.Recovery.blocks_verified;
  let expect = Hashtbl.create 64 in
  List.iter
    (fun s -> List.iter (fun a -> Hashtbl.replace expect a ()) (metadata_addrs layout s))
    (torn :: List.map (fun w -> w.Recovery.summary) r.Recovery.writes);
  Hashtbl.replace expect (Summary.entry_addr torn layout (n_torn - 1)) ();
  let metadata = Hashtbl.length expect in
  let others = ref [] in
  Hashtbl.iter
    (fun a n ->
      Alcotest.(check int) (Printf.sprintf "block %d read once" a) 1 n;
      if not (Hashtbl.mem expect a) then others := a :: !others)
    reads;
  Hashtbl.iter
    (fun a () ->
      Alcotest.(check bool) (Printf.sprintf "block %d read" a) true (Hashtbl.mem reads a))
    expect;
  List.iter
    (fun w ->
      List.iteri
        (fun i e ->
          if not (is_metadata e) then
            Alcotest.(check bool) "no data block below the watermark read" false
              (Hashtbl.mem reads (Summary.entry_addr w.Recovery.summary layout i)))
        w.Recovery.summary.Summary.entries)
    r.Recovery.writes;
  let summaries =
    List.filter (fun a -> Summary.decode (Vdev.read_block dev a) <> None) !others
  in
  Alcotest.(check int) "the rest are summaries and the walk's end"
    (List.length summaries + 1) (List.length !others);
  Alcotest.(check int) "blocks read = summaries + metadata + torn tail"
    (List.length summaries + 1 + metadata)
    (Hashtbl.length reads);
  let fs2, report = Fs.recover dev in
  Alcotest.(check int) "the report counts the verified blocks" 1
    report.Fs.blocks_verified;
  Helpers.check_bytes "/old" (Bytes.make 6000 'o') (Option.get (Fs.read_path fs2 "/old"));
  for i = 0 to 7 do
    Helpers.check_bytes (Printf.sprintf "/w%d" i) (contents i)
      (Option.get (Fs.read_path fs2 (Printf.sprintf "/w%d" i)))
  done;
  (match Fs.read_path fs2 "/torn" with
  | None -> ()
  | Some b -> Helpers.check_bytes "/torn, if present" (Bytes.make 30_000 't') b);
  Helpers.fsck_clean fs2

(* Summaries that claim nothing ([durable_below = 0], as on a volume
   written before the field existed) leave the watermark at the
   checkpoint: every write's payload is read and checked. *)
let test_watermark_zero_verifies_every_write () =
  let run hook =
    let saved = !Log_writer.watermark_hook in
    Log_writer.watermark_hook := hook;
    Fun.protect ~finally:(fun () -> Log_writer.watermark_hook := saved)
    @@ fun () ->
    let disk, fs = Helpers.fresh_fs () in
    Fs.checkpoint fs;
    for i = 0 to 5 do
      Fs.write_path fs (Printf.sprintf "/z%d" i) (Bytes.make 7000 'z');
      Fs.sync fs
    done;
    let dev = Helpers.vdev disk in
    let layout, ckpt = scan_latest dev in
    let r = Recovery.scan layout dev ~ckpt in
    let entries w = List.length w.Recovery.summary.Summary.entries in
    (ckpt, r, List.fold_left (fun acc w -> acc + entries w) 0 r.Recovery.writes,
     entries (List.hd (List.rev r.Recovery.writes)))
  in
  let ckpt, r, total, _ = run (Fun.const 0) in
  Alcotest.(check int) "no claim: the watermark is the checkpoint's"
    ckpt.Checkpoint.log_seq r.Recovery.watermark;
  Alcotest.(check int) "every payload block verified" total r.Recovery.blocks_verified;
  let _, r, total', last = run Fun.id in
  Alcotest.(check int) "the same log" total total';
  Alcotest.(check int) "with claims, only the last write is verified" last
    r.Recovery.blocks_verified

(* {2 The tail-first tear check} *)

let big_batch_config =
  { Helpers.test_config with seg_blocks = 256; write_buffer_blocks = 256 }

(* A volume whose first write after its checkpoint fills a whole summary
   ({!full} entries beside the create's record), cut by [cut] once
   [after_blocks] blocks are written; rebooted, with the address of that
   write's summary. *)
let cut_full_write ?cut ~after_blocks () =
  let disk, fs = Helpers.fresh_fs ~blocks:4096 ~config:big_batch_config () in
  Fs.checkpoint fs;
  Vdev.plan_crash ?cut (Helpers.vdev disk) ~after_blocks;
  (match
     Fs.write_path fs "/big" (Helpers.bytes_of_pattern ~seed:7 (200 * 4096));
     Fs.sync fs
   with
  | () -> Alcotest.fail "the power cut never came"
  | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  let dev = Helpers.vdev disk in
  let layout, ckpt = scan_latest dev in
  let h = ckpt.Checkpoint.heads.(0) in
  (dev, layout, ckpt, Layout.seg_first_block layout h.Log_writer.seg + h.Log_writer.off)

(* The blocks of [s]'s payload that [reads] counts, with their counts. *)
let payload_reads layout reads (s : Summary.t) =
  let first = Summary.entry_addr s layout 0 in
  Hashtbl.fold
    (fun a n acc ->
      if a >= first && a < first + List.length s.Summary.entries then (a - first, n) :: acc
      else acc)
    reads []
  |> List.sort compare

(* The payload blocks of a full write of [/big]'s flush: its summary
   carries the create's dir-log record. *)
let full =
  let record_bytes =
    Dir_log.records_size
      [ Dir_log.Add { dir = Types.root_ino; name = "big"; ino = 2; nlink = 1; fresh = true } ]
  in
  let rec most n =
    if Summary.fits ~block_size:4096 ~entries:(n + 1) ~record_bytes ~inodes:0 then
      most (n + 1)
    else n
  in
  most 0

(* A torn write seldom lands its tail: checking that block alone proves
   the write torn.  Of the rest of it only the metadata runs the walk
   reads ahead of the watermark are read, each once. *)
let test_torn_full_write_reads_one_block () =
  let dev, layout, ckpt, addr = cut_full_write ~after_blocks:4 () in
  let torn = Option.get (Summary.decode (Vdev.read_block dev addr)) in
  Alcotest.(check int) "a full write" full (List.length torn.Summary.entries);
  let view, reads = counting dev in
  let r = Recovery.scan layout view ~ckpt in
  Alcotest.(check int) "cut at the torn write" torn.Summary.seq r.Recovery.next_seq;
  Alcotest.(check int) "one block checksummed" 1 r.Recovery.blocks_verified;
  let first = Summary.entry_addr torn layout 0 in
  Alcotest.(check (list (pair int int)))
    "of its payload, its metadata runs and its last block, each once"
    (List.sort_uniq compare
       ((full - 1) :: List.map (fun a -> a - first) (metadata_addrs layout torn))
    |> List.map (fun i -> (i, 1)))
    (payload_reads layout reads torn);
  let fs2, report = Fs.recover dev in
  Alcotest.(check int) "the report agrees" 1 report.Fs.blocks_verified;
  Alcotest.(check bool) "the torn file is absent" true (Fs.resolve fs2 "/big" = None);
  Helpers.fsck_clean fs2

(* A reordered cut can land the summary and the tail but not a block
   between: the tail's match proves nothing, and the whole payload's
   checksum still cuts the write. *)
let test_tail_without_middle_is_cut () =
  (* The write is the summary and [full] payload blocks; a [Subset] cut
     one block short drops one of them, which the seed picks. *)
  let rec landed_tail seed =
    if seed > 64 then Alcotest.fail "no seed drops a middle block"
    else
      let dev, layout, ckpt, addr =
        cut_full_write ~cut:(Disk.Subset seed) ~after_blocks:full ()
      in
      match Summary.decode (Vdev.read_block dev addr) with
      | Some s
        when Summary.payload_checksum
               (Vdev.read_block dev (Summary.entry_addr s layout (full - 1)))
             = s.Summary.tail_sum ->
          (dev, layout, ckpt, s)
      | Some _ | None -> landed_tail (seed + 1)
  in
  let dev, layout, ckpt, s = landed_tail 1 in
  Alcotest.(check bool) "the payload as landed fails its checksum" true
    (Summary.payload_checksum
       (Vdev.read_blocks dev (Summary.entry_addr s layout 0) full)
    <> s.Summary.payload_sum);
  let view, reads = counting dev in
  let r = Recovery.scan layout view ~ckpt in
  Alcotest.(check int) "cut at that write" s.Summary.seq r.Recovery.next_seq;
  Alcotest.(check int) "no write survives" 0 (List.length r.Recovery.writes);
  Alcotest.(check int) "its whole payload checksummed" full r.Recovery.blocks_verified;
  Alcotest.(check (list (pair int int))) "each payload block read once"
    (List.init full (fun i -> (i, 1)))
    (payload_reads layout reads s);
  let fs2, _ = Fs.recover dev in
  Alcotest.(check bool) "the torn file is absent" true (Fs.resolve fs2 "/big" = None);
  Helpers.fsck_clean fs2

(* A summary that carries no [tail_sum], as one written before the field
   existed: the write takes the whole-payload check. *)
let test_zero_tail_sum_checks_whole_payload () =
  let dev, layout, ckpt, addr = cut_full_write ~after_blocks:4 () in
  let torn = Option.get (Summary.decode (Vdev.read_block dev addr)) in
  Helpers.write_summary dev { torn with Summary.tail_sum = 0 };
  let view, reads = counting dev in
  let r = Recovery.scan layout view ~ckpt in
  Alcotest.(check int) "still cut" torn.Summary.seq r.Recovery.next_seq;
  Alcotest.(check int) "its whole payload checksummed" full r.Recovery.blocks_verified;
  Alcotest.(check (list (pair int int))) "each payload block read once"
    (List.init full (fun i -> (i, 1)))
    (payload_reads layout reads torn);
  Helpers.fsck_clean (fst (Fs.recover dev))

(* {2 Reads of inode blocks} *)

(* Every block some segment's chain logs as an inode block. *)
let inode_blocks dev layout =
  let blocks = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iteri
        (fun i (e : Summary.entry) ->
          if e.Summary.kind = Types.Inode_block then
            Hashtbl.replace blocks (Summary.entry_addr s layout i) ())
        s.Summary.entries)
    (Helpers.chain_summaries dev);
  blocks

(* The scan decodes every inode it reads, and roll-forward builds each
   recovered inode's handle from the scan's copy: no inode block is read
   twice in one recovery, whether the scan or a later phase reads it. *)
let test_inode_blocks_read_once ~seed () =
  let disk, fs = Helpers.fresh_fs () in
  let prng = Prng.create ~seed in
  ignore (Helpers.random_ops ~ops:40 fs prng : (string, bytes) Hashtbl.t);
  Fs.checkpoint fs;
  for i = 0 to 29 do
    let path = Printf.sprintf "/dir%d/f%d" (i mod 3) (Prng.int prng 12) in
    Fs.write_path fs path (Helpers.bytes_of_pattern ~seed:i (1 + Prng.int prng 9000));
    if i mod 7 = 6 then Fs.sync fs
  done;
  Helpers.plan_crash disk ~after_blocks:(20 + Prng.int prng 20);
  (match Fs.sync fs with () -> () | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  let dev = Helpers.vdev disk in
  let blocks = inode_blocks dev (Helpers.layout_of dev) in
  let view, reads = counting dev in
  let fs2, report = Fs.recover view in
  Alcotest.(check bool) "inodes recovered" true (report.Fs.inodes_recovered > 0);
  Hashtbl.iter
    (fun a n ->
      if Hashtbl.mem blocks a && n > 1 then
        Alcotest.failf "inode block %d read %d times" a n)
    reads;
  Helpers.fsck_clean fs2

(* {2 The scan's read plan, over random logs} *)

(* The runs of adjacent blocks of [s]'s write that the walk reads. *)
let metadata_runs (s : Summary.t) =
  fst
    (List.fold_left
       (fun (runs, prev) e ->
         let m = is_metadata e in
         ((if m && not prev then runs + 1 else runs), m))
       (0, false) s.Summary.entries)

(* A random op sequence with a cleaner step after every sync, then a
   checkpoint and a second sequence whose checkpoints are syncs, then a
   sync and a cleaner step (whose survivors go to the second head, when
   there is one) that a power cut [cut] blocks in interrupts, under
   Direct or queued submission, with one or two heads; then one scan
   through a recording view.  It reads no block twice, nothing of a
   head's segment below the checkpoint's offset, and no data block of a
   write below the watermark.  Its reads number at most one per summary
   position walked (every summary it read, and one walk end per segment
   entered) plus one per run of inode, dir-log and indirect blocks of a
   write since the checkpoint, plus, for a write at or above the
   watermark, the tail and the gaps between its runs that its check
   reads. *)
let read_plan_holds ((before, window), (cut, queued, heads)) =
  let config = { Helpers.eager_cleaning_config with Config.log_heads = heads } in
  let disk, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  let now = ref 0.0 in
  if queued then Disk.set_mode disk (Lfs_disk.Io_queue.Queued (fun () -> !now));
  let step ~clean model op =
    let model = Test_props.apply fs model op in
    if clean && op = Test_props.Sync then ignore (Fs.clean_step fs : int);
    now := !now +. 0.01;
    if queued then ignore (Disk.pump disk ~now:!now);
    model
  in
  let model = List.fold_left (step ~clean:true) [] before in
  Fs.checkpoint fs;
  ignore
    (List.fold_left (step ~clean:false) model
       (List.map (fun op -> if op = Test_props.Checkpoint then Test_props.Sync else op) window));
  Helpers.plan_crash disk ~after_blocks:cut;
  (match
     Fs.sync fs;
     ignore (Fs.clean_step fs : int);
     ignore (Disk.drain disk : float)
   with
  | () -> ()
  | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  Disk.set_mode disk Lfs_disk.Io_queue.Direct;
  let dev = Helpers.vdev disk in
  let layout, ckpt = scan_latest dev in
  let view, reads, log = recording dev in
  let r = Recovery.scan layout view ~ckpt in
  let twice = Hashtbl.fold (fun a n acc -> if n > 1 then a :: acc else acc) reads [] in
  let below_offset =
    Array.to_list ckpt.Checkpoint.heads
    |> List.concat_map (fun (h : Log_writer.position) ->
           List.filter (fun slot -> slot < h.Log_writer.off) (slots_read layout reads h.Log_writer.seg))
  in
  let data_below =
    List.concat_map
      (fun w ->
        let s = w.Recovery.summary in
        if s.Summary.seq >= r.Recovery.watermark then []
        else
          List.concat
            (List.mapi
               (fun i (e : Summary.entry) ->
                 let a = Summary.entry_addr s layout i in
                 if e.Summary.kind = Types.Data && Hashtbl.mem reads a then [ a ] else [])
               s.Summary.entries))
      r.Recovery.writes
  in
  let summaries =
    Hashtbl.fold
      (fun a _ acc ->
        match Summary.decode (Vdev.read_block dev a) with
        | Some s
          when s.Summary.seg >= 0 && s.Summary.seg < layout.Layout.nsegs
               && Layout.seg_first_block layout s.Summary.seg + s.Summary.slot = a ->
            s :: acc
        | Some _ | None -> acc)
      reads []
  in
  let bound =
    List.fold_left
      (fun acc s ->
        let runs = metadata_runs s in
        acc + 1
        + (if s.Summary.seq >= ckpt.Checkpoint.log_seq then runs else 0)
        + if s.Summary.seq >= r.Recovery.watermark then runs + 2 else 0)
      r.Recovery.segments_scanned summaries
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if twice <> [] then fail "blocks read twice: %s" (String.concat ", " (List.map string_of_int twice))
  else if below_offset <> [] then
    fail "slots below a checkpoint offset read: %s"
      (String.concat ", " (List.map string_of_int below_offset))
  else if data_below <> [] then
    fail "data blocks below the watermark read: %s"
      (String.concat ", " (List.map string_of_int data_below))
  else if List.length !log > bound then
    fail "%d reads, over the bound %d" (List.length !log) bound
  else true

let prop_read_plan =
  QCheck.Test.make ~count:60
    ~name:"scan reads each block once and no data below the watermark"
    (QCheck.make
       ~print:(fun ((before, window), (cut, queued, heads)) ->
         let ops l = String.concat "; " (List.map Test_props.print_op l) in
         Printf.sprintf "cut %d, %s, %d head(s): %s; checkpoint; %s" cut
           (if queued then "queued" else "direct")
           heads (ops before) (ops window))
       QCheck.Gen.(
         pair
           (pair
              (list_size (int_range 0 20) Test_props.op_gen)
              (list_size (int_range 1 40) Test_props.op_gen))
           (triple (int_range 1 60) bool (int_range 1 2))))
    (Helpers.poisoned read_plan_holds)

(* The scan's exact transfers after one fixed-seed torn crash: random
   ops with a cleaner step after each sync, a checkpoint, more writes
   across several segments, then a power cut inside a sync.  Under
   Direct submission, or queued with about four transfers kept in
   flight, with one head or two.  The reads, as [(addr, blocks)] in
   issue order, are pinned by their number and a digest of the list:
   a change to the scan that splits, merges or reorders a transfer
   shows here, where the read-plan property above only bounds the
   count. *)
let scan_transfers ~queued ~heads =
  let config = { Helpers.eager_cleaning_config with Config.log_heads = heads } in
  let disk, fs = Helpers.fresh_fs ~blocks:2048 ~config () in
  let dev = Helpers.vdev disk in
  let now = ref 0.0 in
  if queued then Disk.set_mode disk (Lfs_disk.Io_queue.Queued (fun () -> !now));
  let settle () =
    if queued then
      while Vdev.outstanding_in dev ~lo:0 ~hi:max_int > 4 do
        now := !now +. 1.0;
        ignore (Disk.pump disk ~now:!now)
      done
  in
  let prng = Prng.create ~seed:11 in
  ignore (Helpers.random_ops ~ops:30 fs prng : (string, bytes) Hashtbl.t);
  Fs.sync fs;
  ignore (Fs.clean_step fs : int);
  settle ();
  Fs.checkpoint fs;
  for i = 0 to 79 do
    let path = Printf.sprintf "/w%d/f%d" (i mod 3) (Prng.int prng 24) in
    if i < 3 then ignore (Fs.mkdir_path fs (Printf.sprintf "/w%d" i) : Types.ino);
    Fs.write_path fs path (Helpers.bytes_of_pattern ~seed:i (1 + Prng.int prng 60000));
    if i mod 7 = 6 then Fs.sync fs;
    settle ()
  done;
  Helpers.plan_crash disk ~after_blocks:12;
  (match
     Fs.sync fs;
     ignore (Fs.clean_step fs : int);
     ignore (Disk.drain disk : float)
   with
  | () -> ()
  | exception Disk.Crashed -> ());
  Helpers.reboot disk;
  Disk.set_mode disk Lfs_disk.Io_queue.Direct;
  let layout, ckpt = scan_latest dev in
  let view, _, log = recording dev in
  let r = Recovery.scan layout view ~ckpt in
  let reads = List.rev !log in
  let listing =
    String.concat " " (List.map (fun (a, n) -> Printf.sprintf "%d+%d" a n) reads)
  in
  (r, List.length reads, Digest.to_hex (Digest.string listing), listing)

let test_scan_transfers_pinned ~queued ~heads ~count ~digest () =
  let r, n, d, listing = scan_transfers ~queued ~heads in
  Alcotest.(check bool) "a write in flight at the cut is checked" true
    (r.Recovery.blocks_verified > 0);
  Alcotest.(check bool) "the chains span segments" true (r.Recovery.segments_scanned > heads);
  Alcotest.(check int) ("transfers: " ^ listing) count n;
  Alcotest.(check string) ("transfer list digest: " ^ listing) digest d

(* Recovery reads what the log since the checkpoint names.  The orphan
   sweep walks the namespace by the inode map's type words, so the
   inodes of 2,000 files synced before the checkpoint stay unread. *)
let test_recover_skips_untouched_inodes () =
  let config = { Helpers.test_config with max_inodes = 2560 } in
  let disk, fs = Helpers.fresh_fs ~blocks:4096 ~config () in
  let dirs = List.init 4 (fun d -> Printf.sprintf "/d%d" d) in
  List.iter (fun d -> ignore (Fs.mkdir_path fs d : Types.ino)) dirs;
  let files = List.init 2000 (fun i -> Printf.sprintf "/d%d/f%d" (i mod 4) i) in
  List.iter (fun f -> ignore (Fs.create_path fs f : Types.ino)) files;
  Fs.checkpoint fs;
  let block path = Types.Iaddr.block (Fs.imap_location fs (Option.get (Fs.resolve fs path))) in
  let dir_blocks = List.map block ("/" :: dirs) in
  let untouched =
    List.sort_uniq compare (List.map block files)
    |> List.filter (fun b -> not (List.mem b dir_blocks))
  in
  ignore (Fs.mkdir_path fs "/new" : Types.ino);
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/new/g%d" i) (Bytes.make 100 'g')
  done;
  Fs.sync fs;
  let view, reads = counting (Helpers.vdev disk) in
  let fs2, report = Fs.recover view in
  Alcotest.(check bool) "most of the files' inode blocks hold no directory" true
    (List.length untouched > 50);
  Alcotest.(check int) "recovered: /, /new and its files" 12 report.Fs.inodes_recovered;
  List.iter
    (fun b ->
      if Hashtbl.mem reads b then Alcotest.failf "read inode block %d of untouched files" b)
    untouched;
  List.iter
    (fun f -> Alcotest.(check bool) f true (Fs.resolve fs2 f <> None))
    [ "/d0/f0"; "/d3/f1999"; "/new/g9" ];
  Helpers.fsck_clean fs2

(* A volume written before the inode map had type words reads them all
   as unknown: the orphan sweep loads those inodes to learn their types,
   and the recovered volume is the same. *)
let test_recover_with_unknown_type_words () =
  let run ~strip =
    let disk, fs = Helpers.fresh_fs () in
    let prng = Prng.create ~seed:17 in
    let model = Helpers.random_ops ~ops:60 fs prng in
    Fs.checkpoint fs;
    ignore (Fs.mkdir_path fs "/late" : Types.ino);
    ignore (Fs.mkdir_path fs "/late/sub" : Types.ino);
    for i = 0 to 5 do
      let path = Printf.sprintf "/late/sub/h%d" i in
      let data = Helpers.bytes_of_pattern ~seed:(100 + i) (500 * (i + 1)) in
      Fs.write_path fs path data;
      Hashtbl.replace model path data
    done;
    Hashtbl.iter
      (fun path _ ->
        if Prng.int prng 4 = 0 then begin
          Fs.unlink fs ~dir:(Option.get (Fs.resolve fs (Filename.dirname path)))
            (Filename.basename path);
          Hashtbl.remove model path
        end)
      (Hashtbl.copy model);
    Fs.sync fs;
    let dev = Helpers.vdev disk in
    if strip then Helpers.rewrite_imap_words dev (fun _ _ -> 0);
    let fs2, _ = Fs.recover dev in
    Helpers.check_model fs2 model;
    Helpers.fsck_clean fs2;
    let names = ref [] in
    Fs.iter_files fs2 (fun ino inode -> names := (ino, inode.Lfs_core.Inode.size) :: !names);
    List.sort compare !names
  in
  Alcotest.(check (list (pair int int))) "the same files" (run ~strip:false)
    (run ~strip:true)

(* {2 The roll-forward digest, from hand-built log writes} *)

let digest_layout = Layout.compute Helpers.test_config ~disk_blocks:1024

(* A log write at [seq] (in segment [seq], slot 0) carrying [records] in
   one dir-log block, [data] data blocks and a copy of each of [inos] in
   one inode block, in that order. *)
let hand_write ~seq ?(records = []) ?(data = 0) ?(inos = []) () =
  let entry kind = { Summary.kind; ino = 0; blockno = 0; version = 0; mtime = 0.0 } in
  let dirlog =
    if records = [] then [] else [ (entry Types.Dir_log, Some (Recovery.Records records)) ]
  in
  let inode_block =
    if inos = [] then []
    else
      [
        ( entry Types.Inode_block,
          Some (Recovery.Inodes (List.mapi (fun slot ino -> (slot, ino)) inos)) );
      ]
  in
  let parts =
    dirlog @ List.init data (fun _ -> (entry Types.Data, None)) @ inode_block
  in
  let summary =
    {
      Summary.seq;
      seg = seq;
      slot = 0;
      next_seg = seq + 1;
      timestamp = 0.0;
      payload_sum = 0;
      durable_below = 0;
      tail_sum = 0;
      entries = List.map fst parts;
      records = [];
      inodes = [];
    }
  in
  let at i d = (Summary.entry_addr summary digest_layout i, d) in
  {
    Recovery.summary;
    decoded =
      List.concat (List.mapi (fun i (_, d) -> Option.to_list (Option.map (at i) d)) parts);
  }

let digest writes = Recovery.digest digest_layout writes

let facts d =
  List.map (fun o -> (o.Recovery.stale, o.Recovery.survives_reuse)) d.Recovery.dirops

let dir = Types.root_ino
let remove ?(nlink = 0) name ino = Dir_log.Remove { dir; name; ino; nlink }
let add ?(fresh = true) name ino = Dir_log.Add { dir; name; ino; nlink = 1; fresh }

(* Ino 5 dies, then a create reuses it.  Its only copy (seq 9) is the
   dead incarnation's: the create's own inode never reached the log. *)
let test_digest_stale_fresh_add () =
  let d =
    digest
      [
        hand_write ~seq:9 ~inos:[ 5 ] ();
        hand_write ~seq:10 ~records:[ remove "a" 5 ] ();
        hand_write ~seq:11 ~records:[ add "b" 5; add "c" 6 ] ();
      ]
  in
  Alcotest.(check (list (pair bool bool))) "only the reusing create is stale"
    [ (false, false); (true, false); (false, false) ]
    (facts d);
  let d =
    digest
      [
        hand_write ~seq:10 ~records:[ remove "a" 5 ] ();
        hand_write ~seq:11 ~records:[ add "b" 5 ] ~inos:[ 5 ] ();
      ]
  in
  Alcotest.(check (list (pair bool bool)))
    "a copy in the create's write is the new incarnation"
    [ (false, true); (false, false) ]
    (facts d);
  let d = digest [ hand_write ~seq:10 ~records:[ add ~fresh:false "l" 5; remove ~nlink:1 "a" 5; add "b" 5 ] () ] in
  Alcotest.(check (list (pair bool bool)))
    "no earlier free, no stale create"
    [ (false, false); (false, false); (false, false) ]
    (facts d)

(* A Remove whose ino a later create reuses survives reuse only when a
   copy of the new incarnation reached the log. *)
let test_digest_remove_survives_reuse () =
  let writes ~copy_seq =
    [
      hand_write ~seq:9 ~inos:[ 5 ] ();
      hand_write ~seq:10 ~records:[ remove "a" 5 ] ();
      hand_write ~seq:11 ~records:[ add "b" 5 ] ();
    ]
    @ Option.to_list (Option.map (fun seq -> hand_write ~seq ~inos:[ 5 ] ()) copy_seq)
  in
  Alcotest.(check (list (pair bool bool))) "copy after the create: survives"
    [ (false, true); (false, false) ]
    (facts (digest (writes ~copy_seq:(Some 12))));
  Alcotest.(check (list (pair bool bool))) "no later copy: the Remove applies"
    [ (false, false); (true, false) ]
    (facts (digest (writes ~copy_seq:None)));
  let d = digest (writes ~copy_seq:(Some 12)) in
  (* Write 12's inode block is its first payload block. *)
  let copy12 =
    Types.Iaddr.make ~block:(Layout.seg_first_block digest_layout 12 + 1) ~slot:0
  in
  Alcotest.(check (list (pair int int))) "the latest copy of 5 wins"
    [ (5, Types.Iaddr.to_int copy12) ]
    (List.map (fun (i, a) -> (i, Types.Iaddr.to_int a)) d.Recovery.inodes)

(* A create that reuses a freed ino and never reached the log leaves
   the ino's older copy in place; every later record of the lost
   incarnation (its rename, its remove, and a create reusing the ino
   again) is stale with it. *)
let test_digest_lost_incarnation () =
  let rename = Dir_log.Rename { odir = dir; oname = "b"; ndir = dir; nname = "c"; ino = 5 } in
  let d =
    digest
      [
        hand_write ~seq:9 ~inos:[ 5 ] ();
        hand_write ~seq:10 ~records:[ remove "a" 5; add "b" 5; rename; remove "c" 5; add "d" 5 ] ();
      ]
  in
  Alcotest.(check (list (pair bool bool))) "the lost incarnation's records are stale"
    [ (false, false); (true, false); (true, false); (true, false); (true, false) ]
    (facts d)

(* A rename whose file a later Remove frees died inside the window: no
   copy of it is expected, so replay must not take the rename for one
   that never reached the log. *)
let test_digest_rename_freed_later () =
  let rename = Dir_log.Rename { odir = dir; oname = "src"; ndir = dir; nname = "dst"; ino = 7 } in
  let freed_later records =
    List.map (fun o -> o.Recovery.freed_later) (digest [ hand_write ~seq:10 ~records () ]).Recovery.dirops
  in
  Alcotest.(check (list bool)) "removed after the rename"
    [ false; false; true; false ]
    (freed_later [ add "src" 7; remove "dst" 6; rename; remove "dst" 7 ]);
  Alcotest.(check (list bool)) "still alive" [ false; false; false ]
    (freed_later [ add "src" 7; remove "dst" 6; rename ])

(* A rename onto an existing name logs (Remove old-dst, Rename); replay
   looks at the pair, so the digest keeps them adjacent in log order even
   when they arrive in different writes. *)
let test_digest_remove_then_rename () =
  let rename = Dir_log.Rename { odir = dir; oname = "src"; ndir = dir; nname = "dst"; ino = 7 } in
  let d =
    digest
      [
        hand_write ~seq:10 ~records:[ add "src" 7; remove "dst" 6 ] ();
        hand_write ~seq:11 ~records:[ rename ] ~inos:[ 7 ] ();
      ]
  in
  Alcotest.(check (list string)) "log order"
    (List.map (Format.asprintf "%a" Dir_log.pp_record) [ add "src" 7; remove "dst" 6; rename ])
    (List.map (fun o -> Format.asprintf "%a" Dir_log.pp_record o.Recovery.op) d.Recovery.dirops);
  Alcotest.(check (list (pair bool bool))) "no reuse, nothing stale"
    [ (false, false); (false, false); (false, false) ]
    (facts d)

(* Recovery's report counts exactly what the digest of the scan holds. *)
let test_digest_matches_report () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.checkpoint fs;
  for i = 0 to 9 do
    Fs.write_path fs (Printf.sprintf "/n%d" i) (Bytes.make 6000 'n')
  done;
  Fs.unlink fs ~dir:Fs.root "n3";
  Fs.rename fs ~odir:Fs.root "n4" ~ndir:Fs.root "n5";
  Fs.sync fs;
  let vdev = Helpers.vdev disk in
  let layout = Fs.layout fs in
  let _, ckpt = Option.get (Checkpoint.read_latest layout vdev) in
  let scan = Recovery.scan layout vdev ~ckpt in
  let d = Recovery.digest layout scan.Recovery.writes in
  let _, report = Fs.recover vdev in
  Alcotest.(check int) "inodes" report.Fs.inodes_recovered (List.length d.Recovery.inodes);
  Alcotest.(check int) "data blocks" report.Fs.data_blocks_recovered d.Recovery.data_blocks;
  Alcotest.(check int) "dir ops" report.Fs.dirops_applied (List.length d.Recovery.dirops);
  Alcotest.(check int) "writes" report.Fs.writes_replayed (List.length scan.Recovery.writes);
  Alcotest.(check bool) "non-trivial" true
    (d.Recovery.data_blocks > 0 && List.length d.Recovery.dirops >= 12)

(* Geometry is fixed at format time: both ways onto a volume refuse a
   config that would reinterpret it. *)
let test_geometry_overrides_rejected () =
  let disk, _ = Helpers.fresh_fs () in
  let overrides =
    [
      ("log_heads", { Helpers.test_config with Config.log_heads = 2 });
      ("seg_blocks", { Helpers.test_config with Config.seg_blocks = 64 });
      ("max_inodes", { Helpers.test_config with Config.max_inodes = 1024 });
    ]
  in
  List.iter
    (fun (field, config) ->
      let rejected name f =
        match f () with
        | () -> Alcotest.failf "%s accepted a %s override" name field
        | exception Invalid_argument _ -> ()
      in
      rejected "mount" (fun () -> ignore (Fs.mount ~config (Helpers.vdev disk)));
      rejected "recover" (fun () ->
          ignore (Fs.recover ~config (Helpers.vdev disk))))
    overrides

(* A stale summary (lower seq) planted just past a segment's live tail
   is where the summary walkers' own rules part ways: roll-forward's
   sequence floor and fsck's stop there, while the cleaner applies no
   sequence rule and walks into it: it reads 12 blocks with the plant,
   where stopping at the stale summary would read 10. *)
let stale_summary layout ~(at : Log_writer.position) ~seq ~payload_sum entries =
  Helpers.encode_summary ~block_size:layout.Layout.block_size
    {
      Summary.seq;
      seg = at.Log_writer.seg;
      slot = at.Log_writer.off;
      next_seg = at.Log_writer.next_seg;
      timestamp = 0.0;
      payload_sum;
      durable_below = 0;
      tail_sum = 0;
      entries;
      records = [];
      inodes = [];
    }

let entry kind =
  { Summary.kind; ino = 7; blockno = 0; version = 0; mtime = 0.0 }

let plant dev layout (at : Log_writer.position) summary =
  Vdev.write_block dev (Layout.seg_first_block layout at.Log_writer.seg + at.Log_writer.off)
    summary

let test_stale_summary_past_tail_rollforward () =
  let disk, fs = Helpers.fresh_fs () in
  let dev = Helpers.vdev disk in
  let layout = Fs.layout fs in
  Fs.write_path fs "/a" (Bytes.make 5000 'a');
  Fs.checkpoint fs;
  Fs.write_path fs "/b" (Bytes.make 5000 'b');
  Fs.sync fs;
  let _, ck = Option.get (Checkpoint.read_latest layout dev) in
  let scan = Recovery.scan layout dev ~ckpt:ck in
  let tail = scan.Recovery.tails.(0) in
  Alcotest.(check bool) "post-checkpoint writes to roll forward" true
    (scan.Recovery.writes <> []);
  Alcotest.(check bool) "room past the tail" true
    (tail.Log_writer.off <= layout.Layout.seg_blocks - 2);
  (* Its seq is the checkpoint's, below the chain's last, and its payload
     checksum matches what lies behind it: only the floor rejects it. *)
  let behind =
    Vdev.read_blocks dev
      (Layout.seg_first_block layout tail.Log_writer.seg + tail.Log_writer.off + 1)
      1
  in
  plant dev layout tail
    (stale_summary layout ~at:tail ~seq:ck.Checkpoint.log_seq
       ~payload_sum:(Summary.payload_checksum behind)
       [ entry Types.Data ]);
  Helpers.fsck_clean fs;
  let fs2, report = Fs.recover dev in
  Alcotest.(check int) "roll-forward ignores the stale write"
    (List.length scan.Recovery.writes) report.Fs.writes_replayed;
  Helpers.check_bytes "post-checkpoint file" (Bytes.make 5000 'b')
    (Option.get (Fs.read_path fs2 "/b"));
  Helpers.fsck_clean fs2

let test_stale_summary_past_tail_cleaner () =
  let config =
    {
      Helpers.test_config with
      Config.cleaner_read = Config.Live_blocks;
      bg_clean_start = 100;
      bg_clean_stop = 102;
    }
  in
  let disk, fs = Helpers.fresh_fs ~config () in
  let dev = Helpers.vdev disk in
  let layout = Fs.layout fs in
  Fs.write_path fs "/f" (Bytes.make 5000 'f');
  Fs.checkpoint fs;
  let region, ck = Option.get (Checkpoint.read_latest layout dev) in
  let h = ck.Checkpoint.heads.(0) in
  Alcotest.(check (list int)) "head still in its first segment" [ 0; 1 ]
    [ h.Log_writer.seg; h.Log_writer.next_seg ];
  plant dev layout h
    (stale_summary layout ~at:h ~seq:0 ~payload_sum:0
       [ entry Types.Inode_block; entry Types.Data ]);
  (* Move the head on to its reservation, as if it had filled segment 0,
     so segment 0 — the only one with live data — becomes the victim. *)
  Checkpoint.write layout dev ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region
    {
      ck with
      Checkpoint.heads = [| { Log_writer.seg = 1; off = 0; next_seg = 2 } |];
    };
  let fs = Fs.mount ~config dev in
  let read () = Helpers.fs_total fs "fs.cleaner.blocks_read" in
  let before = read () in
  ignore (Fs.clean_step ~max_segments:1 fs);
  Alcotest.(check int) "segment 0 cleaned" 0 (Fs.segment_live_bytes fs 0);
  Alcotest.(check int) "blocks the cleaner read" 10 (read () - before);
  Helpers.check_bytes "file survives" (Bytes.make 5000 'f')
    (Option.get (Fs.read_path fs "/f"));
  Helpers.fsck_clean fs

(* {2 Where the walk starts} *)

(* The walk enters the checkpoint's segment at the checkpoint's offset:
   of the writes before it in that segment, it reads nothing. *)
let test_walk_starts_at_checkpoint_offset () =
  let config = { Helpers.test_config with Config.seg_blocks = 64 } in
  let disk, fs = Helpers.fresh_fs ~config () in
  for i = 0 to 3 do
    Fs.write_path fs (Printf.sprintf "/pre%d" i) (Bytes.make 1500 'p');
    Fs.sync fs
  done;
  Fs.checkpoint fs;
  let post i = Helpers.bytes_of_pattern ~seed:i (2000 + (700 * i)) in
  for i = 0 to 3 do
    Fs.write_path fs (Printf.sprintf "/post%d" i) (post i);
    Fs.sync fs
  done;
  let dev = Helpers.vdev disk in
  let layout, ckpt = scan_latest dev in
  let h = ckpt.Checkpoint.heads.(0) in
  let before =
    List.filter
      (fun s -> s.Summary.seg = h.Log_writer.seg && s.Summary.seq < ckpt.Checkpoint.log_seq)
      (Helpers.chain_summaries dev)
  in
  Alcotest.(check bool) "several writes before the checkpoint in its segment" true
    (List.length before >= 4);
  let view, reads = counting dev in
  let r = Recovery.scan layout view ~ckpt in
  Alcotest.(check bool) "the writes since the checkpoint" true
    (List.length r.Recovery.writes >= 4
    && List.for_all
         (fun w -> w.Recovery.summary.Summary.seq >= ckpt.Checkpoint.log_seq)
         r.Recovery.writes);
  List.iter
    (fun slot ->
      if slot < h.Log_writer.off then
        Alcotest.failf "read slot %d, below the checkpoint's offset %d" slot
          h.Log_writer.off)
    (slots_read layout reads h.Log_writer.seg);
  let fs2, _ = Fs.recover dev in
  for i = 0 to 3 do
    Helpers.check_bytes (Printf.sprintf "/pre%d" i) (Bytes.make 1500 'p')
      (Option.get (Fs.read_path fs2 (Printf.sprintf "/pre%d" i)));
    Helpers.check_bytes (Printf.sprintf "/post%d" i) (post i)
      (Option.get (Fs.read_path fs2 (Printf.sprintf "/post%d" i)))
  done;
  Helpers.fsck_clean fs2

(* A checkpoint whose head has no room left for a summary and a block:
   the writer's next batch goes to the reserved segment, and so does
   the walk, without reading the checkpoint's segment at all. *)
let test_walk_from_exhausted_head () =
  (* A first file whose size puts the checkpoint's head past the last
     slot that can hold a summary. *)
  let rec exhausted k =
    if k > 64 then Alcotest.fail "no file size exhausts the head"
    else
      let disk, fs = Helpers.fresh_fs () in
      Fs.write_path fs "/pre" (Helpers.bytes_of_pattern ~seed:1 (k * 4096));
      Fs.checkpoint fs;
      let layout, ckpt = scan_latest (Helpers.vdev disk) in
      let h = ckpt.Checkpoint.heads.(0) in
      if h.Log_writer.off > layout.Layout.seg_blocks - 2 then (disk, fs, k, layout, ckpt)
      else exhausted (k + 1)
  in
  let disk, fs, k, layout, ckpt = exhausted 1 in
  let h = ckpt.Checkpoint.heads.(0) in
  let post i = Helpers.bytes_of_pattern ~seed:(10 + i) (1000 + (900 * i)) in
  for i = 0 to 4 do
    Fs.write_path fs (Printf.sprintf "/post%d" i) (post i);
    Fs.sync fs
  done;
  let dev = Helpers.vdev disk in
  let view, reads = counting dev in
  let r = Recovery.scan layout view ~ckpt in
  Alcotest.(check (list int)) "nothing of the checkpoint's segment read" []
    (slots_read layout reads h.Log_writer.seg);
  Alcotest.(check bool) "the synced writes, all in the reserved segment" true
    (List.length r.Recovery.writes >= 5
    && List.for_all
         (fun w -> w.Recovery.summary.Summary.seg = h.Log_writer.next_seg)
         r.Recovery.writes);
  let fs2, report = Fs.recover dev in
  Alcotest.(check int) "every write replayed" (List.length r.Recovery.writes)
    report.Fs.writes_replayed;
  Helpers.check_bytes "/pre" (Helpers.bytes_of_pattern ~seed:1 (k * 4096))
    (Option.get (Fs.read_path fs2 "/pre"));
  for i = 0 to 4 do
    Helpers.check_bytes (Printf.sprintf "/post%d" i) (post i)
      (Option.get (Fs.read_path fs2 (Printf.sprintf "/post%d" i)))
  done;
  Helpers.fsck_clean fs2

(* A summary left from the segment's previous life at the checkpoint's
   offset, as new as a summary before the checkpoint can be, self-
   identifying and with a payload checksum that matches what lies
   behind it: the seq floor alone rejects it, and the walk ends there
   having read that one block of the segment. *)
let test_stale_summary_at_checkpoint_offset () =
  let disk, fs = Helpers.fresh_fs () in
  let dev = Helpers.vdev disk in
  let layout = Fs.layout fs in
  Fs.write_path fs "/a" (Bytes.make 5000 'a');
  Fs.sync fs;
  Fs.checkpoint fs;
  let _, ck = Option.get (Checkpoint.read_latest layout dev) in
  let h = ck.Checkpoint.heads.(0) in
  Alcotest.(check bool) "room at the offset" true
    (h.Log_writer.off > 0 && h.Log_writer.off <= layout.Layout.seg_blocks - 2);
  let at = Layout.seg_first_block layout h.Log_writer.seg + h.Log_writer.off in
  plant dev layout h
    (stale_summary layout ~at:h ~seq:(ck.Checkpoint.log_seq - 1)
       ~payload_sum:(Summary.payload_checksum (Vdev.read_block dev (at + 1)))
       [ entry Types.Data ]);
  let view, reads = counting dev in
  let r = Recovery.scan layout view ~ckpt:ck in
  Alcotest.(check int) "no write rolled forward" 0 (List.length r.Recovery.writes);
  Alcotest.(check bool) "the head resumes at the checkpoint's position" true
    (r.Recovery.tails.(0) = h);
  Alcotest.(check (list int)) "of its segment, the block at the offset alone"
    [ h.Log_writer.off ]
    (slots_read layout reads h.Log_writer.seg);
  let fs2, report = Fs.recover dev in
  Alcotest.(check int) "nothing replayed" 0 report.Fs.writes_replayed;
  Helpers.check_bytes "/a" (Bytes.make 5000 'a') (Option.get (Fs.read_path fs2 "/a"));
  Helpers.fsck_clean fs2

(* Two checkpoints with only cleaning between them share a timestamp
   (the logical clock ticks on operations); the one written later has the
   higher log sequence number and must win on reboot, or the volume
   comes back with the older inode map and usage table. *)
let test_checkpoint_tie_takes_newer_log () =
  let disk, fs = Helpers.fresh_fs () in
  let layout = Fs.layout fs and dev = Helpers.vdev disk in
  let _, ck = Option.get (Checkpoint.read_latest layout dev) in
  let at seq = { ck with Checkpoint.timestamp = 5.0; log_seq = seq } in
  List.iter
    (fun (seq0, seq1, newest) ->
      Checkpoint.write layout dev ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region:0 (at seq0);
      Checkpoint.write layout dev ~scratch:(Lfs_util.Buf_pool.Scratch.create ()) ~region:1 (at seq1);
      let region, _ = Option.get (Checkpoint.read_latest layout dev) in
      Alcotest.(check int)
        (Printf.sprintf "seq %d vs %d" seq0 seq1)
        newest region)
    [ (10, 12, 1); (12, 10, 0) ]

let clean_until_idle fs =
  let rec go n = if n > 0 && Fs.clean_step fs > 0 then go (n - 1) in
  go 20

(* A file deleted and its inode number reused after the checkpoint: the
   new file's blocks carry the bumped version, and roll-forward must
   restore it, or the cleaner takes them for dead while the usage table
   counts them live. *)
let test_recover_reused_ino_version () =
  let disk = Helpers.fresh_disk () in
  Fs.format (Helpers.vdev disk) Helpers.eager_cleaning_config;
  let fs = Fs.mount (Helpers.vdev disk) in
  let a = Fs.create fs ~dir:Fs.root "a" in
  Fs.write fs a ~off:0 (Bytes.make 40_000 'a');
  Fs.unlink fs ~dir:Fs.root "a";
  let b = Fs.create fs ~dir:Fs.root "b" in
  Alcotest.(check int) "ino reused" a b;
  Fs.write fs b ~off:0 (Bytes.make 24_000 'b');
  Fs.sync fs;
  let version = (Fs.stat fs b).Fs.st_version in
  let fs2, _ =
    Fs.recover ~config:Helpers.eager_cleaning_config (Helpers.vdev disk)
  in
  Alcotest.(check int) "version restored" version (Fs.stat fs2 b).Fs.st_version;
  clean_until_idle fs2;
  Helpers.check_bytes "file survives cleaning" (Bytes.make 24_000 'b')
    (Option.get (Fs.read_path fs2 "/b"));
  Helpers.fsck_clean fs2

(* {2 Cuts inside a write whose summary carries inodes and records} *)

module SL = (val Lfs_spec.Spec.subject (Lfs_spec.Spec.of_string "lfs"))
module RL = Lfs_model.Refine.Make (SL)

(* The last sync's flush is one write: its summary carries the create's
   and the rename's records and the dirty inodes, before the root
   directory's block and [/b]'s data.  Power cut inside that write, torn
   (a prefix lands: the summary, inline metadata and all, without all of
   its payload) and dropped, under Direct and at io-depth 4: recovery
   must give a namespace the model accepts, and fsck finds it clean. *)
let test_cut_inside_inline_write () =
  let module M = Lfs_model.Fs_model in
  let ops =
    [
      M.Create "/a";
      M.Write { path = "/a"; off = 0; data = Bytes.make 8192 'a' };
      M.Sync;
      M.Create "/b";
      M.Write { path = "/b"; off = 0; data = Bytes.make 8192 'b' };
      M.Rename { src = "/a"; dst = "/c" };
      M.Sync;
    ]
  in
  List.iter
    (fun io_depth ->
      let reference = RL.once ~blocks:1024 ~seed:0 (RL.scripted ~io_depth ops) in
      let dev = List.hd reference.RL.devs in
      let last =
        List.fold_left
          (fun acc (s : Summary.t) ->
            if s.Summary.seq > acc.Summary.seq then s else acc)
          (List.hd (Helpers.chain_summaries dev))
          (Helpers.chain_summaries dev)
      in
      Alcotest.(check int) "the last write carries both records" 2
        (List.length last.Summary.records);
      Alcotest.(check bool) "and inodes" true (last.Summary.inodes <> []);
      let n = List.length last.Summary.entries in
      Alcotest.(check bool) "and a payload" true (n >= 2);
      (* It is the run's last [n + 1] blocks; a cut at [c] lands [c] of
         the run's blocks before the power goes. *)
      let cuts = List.init n (fun i -> reference.RL.total - n + i) in
      let modes seed = List.map (Lfs_model.Refine.mode_for ~seed) cuts in
      let rec pick seed =
        if
          List.mem Lfs_disk.Vdev_fault.Torn (modes seed)
          && List.mem Lfs_disk.Vdev_fault.Dropped (modes seed)
        then seed
        else pick (seed + 1)
      in
      let seed = pick 0 in
      let r = RL.check_ops ~io_depth ~cuts ~seed ops in
      if not (Lfs_model.Refine.seq_clean r) then
        Alcotest.failf "io-depth %d: %a" io_depth Lfs_model.Refine.pp_seq_report r;
      Alcotest.(check int)
        (Printf.sprintf "io-depth %d: every cut crashed" io_depth)
        n r.Lfs_model.Refine.crashes)
    [ 1; 4 ]

(* A mkdir whose parent update fills the write buffer flushes the new
   directory's inode before the directory is initialised; that copy
   must already be a parseable (empty) directory. *)
let test_recover_mkdir_at_full_buffer () =
  let disk, fs = Helpers.fresh_fs () in
  let bs = (Fs.layout fs).Layout.block_size in
  let f = Fs.create fs ~dir:Fs.root "f" in
  Fs.sync fs;
  let blocks = Helpers.test_config.Config.write_buffer_blocks - 1 in
  Fs.write fs f ~off:0 (Bytes.make (blocks * bs) 'f');
  ignore (Fs.mkdir fs ~dir:Fs.root "d");
  let fs2, _ = Fs.recover (Helpers.vdev disk) in
  Alcotest.(check (list (pair string int))) "new directory lists empty" []
    (Fs.readdir fs2 (Option.get (Fs.resolve fs2 "/d")));
  Helpers.fsck_clean fs2

let suite =
  ( "recovery",
    [
      Alcotest.test_case "nothing to do" `Quick test_recover_nothing_to_do;
      Alcotest.test_case "cuts inside a write with inline metadata" `Quick
        test_cut_inside_inline_write;
      Alcotest.test_case "new file" `Quick test_recover_new_file;
      Alcotest.test_case "overwrite" `Quick test_recover_overwrite;
      Alcotest.test_case "delete" `Quick test_recover_delete;
      Alcotest.test_case "rename atomic" `Quick test_recover_rename_atomic;
      Alcotest.test_case "link counts" `Quick test_recover_link_counts;
      Alcotest.test_case "torn tail" `Quick test_torn_tail_ignored;
      Alcotest.test_case "idempotent" `Quick test_recovery_is_idempotent;
      Alcotest.test_case "multiple cycles" `Quick test_recover_multiple_checkpoint_cycles;
      Alcotest.test_case "phantom create dropped" `Quick
        test_recover_create_without_inode_drops_entry;
      Alcotest.test_case "crash at every block" `Slow test_crash_every_point;
      Alcotest.test_case "crash during cleaning" `Slow test_crash_during_cleaning;
      Alcotest.test_case "crash torture (seed 41)" `Quick (test_crash_torture ~seed:41);
      Alcotest.test_case "crash torture (seed 42)" `Quick (test_crash_torture ~seed:42);
      Alcotest.test_case "crash torture (seed 43)" `Quick (test_crash_torture ~seed:43);
      Alcotest.test_case "crash torture (seed 44)" `Quick (test_crash_torture ~seed:44);
      Alcotest.test_case "report counts" `Quick test_recovery_report_counts;
      Alcotest.test_case "watermark: only metadata below it" `Quick
        test_watermark_reads_only_metadata;
      Alcotest.test_case "watermark: zero verifies every write" `Quick
        test_watermark_zero_verifies_every_write;
      Alcotest.test_case "tail: a torn full write reads one block" `Quick
        test_torn_full_write_reads_one_block;
      Alcotest.test_case "tail: a landed tail without its middle is cut" `Quick
        test_tail_without_middle_is_cut;
      Alcotest.test_case "tail: zero tail_sum checks the whole payload" `Quick
        test_zero_tail_sum_checks_whole_payload;
      Alcotest.test_case "walk: starts at the checkpoint's offset" `Quick
        test_walk_starts_at_checkpoint_offset;
      Alcotest.test_case "walk: an exhausted head starts at next_seg" `Quick
        test_walk_from_exhausted_head;
      Alcotest.test_case "walk: a stale summary at the offset ends it" `Quick
        test_stale_summary_at_checkpoint_offset;
      Alcotest.test_case "inode blocks read once (seed 3)" `Quick
        (test_inode_blocks_read_once ~seed:3);
      Alcotest.test_case "inode blocks read once (seed 4)" `Quick
        (test_inode_blocks_read_once ~seed:4);
      QCheck_alcotest.to_alcotest prop_read_plan;
      Alcotest.test_case "scan transfers pinned (direct, 1 head)" `Quick
        (test_scan_transfers_pinned ~queued:false ~heads:1 ~count:74 ~digest:"b5f6bcb3135f31bb5a5861dfe960a236");
      Alcotest.test_case "scan transfers pinned (direct, 2 heads)" `Quick
        (test_scan_transfers_pinned ~queued:false ~heads:2 ~count:76 ~digest:"dc77a0973d986e9c317bab2014636fa5");
      Alcotest.test_case "scan transfers pinned (io-depth 4, 1 head)" `Quick
        (test_scan_transfers_pinned ~queued:true ~heads:1 ~count:74 ~digest:"75387d1bce993f3659e87bc1e311bc03");
      Alcotest.test_case "scan transfers pinned (io-depth 4, 2 heads)" `Quick
        (test_scan_transfers_pinned ~queued:true ~heads:2 ~count:73 ~digest:"d3b2adf08bbf2741e96dfa0f7788ab13");
      Alcotest.test_case "untouched files' inodes unread" `Quick
        test_recover_skips_untouched_inodes;
      Alcotest.test_case "unknown type words recover the same" `Quick
        test_recover_with_unknown_type_words;
      Alcotest.test_case "digest: stale fresh add" `Quick test_digest_stale_fresh_add;
      Alcotest.test_case "digest: remove survives reuse" `Quick
        test_digest_remove_survives_reuse;
      Alcotest.test_case "digest: a lost incarnation's records are stale" `Quick
        test_digest_lost_incarnation;
      Alcotest.test_case "digest: a rename whose file dies later" `Quick
        test_digest_rename_freed_later;
      Alcotest.test_case "digest: remove then rename" `Quick
        test_digest_remove_then_rename;
      Alcotest.test_case "digest matches the report" `Quick test_digest_matches_report;
      Alcotest.test_case "geometry overrides rejected" `Quick
        test_geometry_overrides_rejected;
      Alcotest.test_case "stale summary: roll-forward, fsck" `Quick
        test_stale_summary_past_tail_rollforward;
      Alcotest.test_case "stale summary: cleaner reads" `Quick
        test_stale_summary_past_tail_cleaner;
      Alcotest.test_case "checkpoint tie: newer log wins" `Quick
        test_checkpoint_tie_takes_newer_log;
      Alcotest.test_case "reused ino keeps its version" `Quick
        test_recover_reused_ino_version;
      Alcotest.test_case "mkdir at a full write buffer" `Quick
        test_recover_mkdir_at_full_buffer;
    ] )
