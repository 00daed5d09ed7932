(* fsck must catch seeded corruption: every class of invariant violation
   it claims to check is deliberately introduced and must be reported. *)

module Fs = Lfs_core.Fs
module Fsck = Lfs_core.Fsck
module Types = Lfs_core.Types
module Disk = Lfs_disk.Disk

let expect_dirty label fs =
  let r = Fsck.check fs in
  if Fsck.is_clean r then Alcotest.failf "%s: fsck missed the corruption" label

let test_clean_fs_is_clean () =
  let _, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/a" (Bytes.make 9000 'a');
  ignore (Fs.mkdir_path fs "/d");
  Fs.write_path fs "/d/b" (Bytes.make 3000 'b');
  Helpers.fsck_clean fs;
  let r = Fsck.check fs in
  Alcotest.(check int) "files" 2 r.Fsck.files;
  Alcotest.(check int) "dirs" 2 r.Fsck.directories

(* Corrupt the on-disk copy of a directory's data block after a sync and
   drop caches: the parse must fail and fsck must notice. *)
let test_detects_corrupt_directory () =
  let disk, fs = Helpers.fresh_fs () in
  let d = Fs.mkdir fs ~dir:Fs.root "d" in
  ignore (Fs.create fs ~dir:d "victim");
  Fs.checkpoint fs;
  (* Find the directory's data block and scribble on it. *)
  let addr = Fs.with_handle fs d (fun _ fmap -> Lfs_core.Filemap.get fmap 0) in
  let b = Disk.read_block disk addr in
  Bytes.fill b 0 64 '\255';
  Disk.write_block disk addr b;
  Fs.drop_caches fs;
  expect_dirty "corrupt directory" fs

(* Damage the usage table via a remount of a hand-corrupted usage block:
   the live-byte recount must disagree. *)
let test_detects_usage_mismatch () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/f" (Bytes.make 20_000 'f');
  Fs.unmount fs;
  let fs2 = Fs.mount (Helpers.vdev disk) in
  (* Mutate in-memory usage accounting directly through a fake kill:
     simplest is to corrupt the persisted usage block and remount. *)
  let addrs = Fs.usage_block_addrs fs2 in
  (match addrs with
  | addr :: _ when addr <> Types.nil_addr ->
      let b = Disk.read_block disk addr in
      Bytes.set_int32_le b 0 99999l;
      Disk.write_block disk addr b
  | _ -> Alcotest.fail "expected a usage block");
  let fs3 = Fs.mount (Helpers.vdev disk) in
  expect_dirty "usage mismatch" fs3

(* An inode slot cleared behind the inode map's back: the reference
   becomes dangling. *)
let test_detects_dangling_imap_entry () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/gone" (Bytes.of_string "x");
  Fs.checkpoint fs;
  let ino = Option.get (Fs.resolve fs "/gone") in
  let iaddr = Fs.imap_location fs ino in
  let b = Disk.read_block disk (Types.Iaddr.block iaddr) in
  Lfs_core.Inode.clear_slot b ~slot:(Types.Iaddr.slot iaddr);
  Disk.write_block disk (Types.Iaddr.block iaddr) b;
  let fs2 = Fs.mount (Helpers.vdev disk) in
  (match Fsck.check fs2 with
  | _ -> Alcotest.fail "walk should raise or report"
  | exception Types.Corrupt _ -> ())

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* [r] has exactly one error, and it mentions [what]. *)
let expect_one_error what r =
  match r.Fsck.errors with
  | [ e ] ->
      let n = String.length what in
      let rec has i = i + n <= String.length e && (String.sub e i n = what || has (i + 1)) in
      if not (has 0) then Alcotest.failf "error %S does not mention %S" e what
  | es -> Alcotest.failf "expected one error about %s, got %d" what (List.length es)

(* A directory the inode map calls a regular file: roll-forward's orphan
   sweep would not descend into it and would delete its subtree. *)
let test_detects_wrong_type_word () =
  let disk, fs = Helpers.fresh_fs () in
  ignore (Fs.mkdir_path fs "/d");
  Fs.write_path fs "/d/f" (Bytes.make 100 'f');
  let d = Option.get (Fs.resolve fs "/d") in
  Fs.checkpoint fs;
  Helpers.rewrite_imap_words (Helpers.vdev disk) (fun ino w -> if ino = d then 1 else w);
  expect_one_error "type word" (Fsck.check (Fs.mount (Helpers.vdev disk)))

(* A summary whose [tail_sum] does not match its write's last block,
   though the payload matches [payload_sum]: roll-forward would cut the
   log at that write. *)
let test_detects_bad_tail_sum () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/a" (Bytes.make 9000 'a');
  Fs.checkpoint fs;
  let dev = Helpers.vdev disk in
  let s =
    List.find (fun s -> s.Helpers.Summary.tail_sum <> 0) (Helpers.chain_summaries dev)
  in
  Helpers.write_summary dev { s with Helpers.Summary.tail_sum = s.Helpers.Summary.tail_sum lxor 1 };
  expect_one_error "tail_sum" (Fsck.check (Fs.mount dev))

let test_report_printable () =
  let _, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/x" (Bytes.of_string "y");
  let r = Fsck.check fs in
  let s = Format.asprintf "%a" Fsck.pp_report r in
  Alcotest.(check bool) "mentions clean" true (contains ~needle:"clean" s)

let suite =
  ( "fsck",
    [
      Alcotest.test_case "clean fs" `Quick test_clean_fs_is_clean;
      Alcotest.test_case "corrupt directory" `Quick test_detects_corrupt_directory;
      Alcotest.test_case "usage mismatch" `Quick test_detects_usage_mismatch;
      Alcotest.test_case "dangling imap entry" `Quick test_detects_dangling_imap_entry;
      Alcotest.test_case "wrong type word" `Quick test_detects_wrong_type_word;
      Alcotest.test_case "bad tail_sum" `Quick test_detects_bad_tail_sum;
      Alcotest.test_case "report printable" `Quick test_report_printable;
    ] )
