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

(* The block [f] rewrites in place, resealed under the header checksum
   summaries and the superblock share: an Adler-32 of bytes [8, bs) in
   the first four. *)
let patch_block dev addr f =
  let b = Lfs_disk.Vdev.read_block dev addr in
  f b;
  let sum = Lfs_util.Checksum.adler32 ~pos:8 ~len:(Bytes.length b - 8) b in
  Bytes.set_int32_le b 0 (Int32.of_int sum);
  Lfs_disk.Vdev.write_block dev addr b

(* The summary block carrying [path]'s inode, and the inode's slot. *)
let inline_home fs path =
  let at = Fs.imap_location fs (Option.get (Fs.resolve fs path)) in
  (Types.Iaddr.block at, Types.Iaddr.slot at)

(* An inode riding in a summary is claimed on the summary's block: fsck
   finds the volume clean, since the usage table counts it there, and a
   summary that no longer passes its checksum leaves the inode's block
   uncovered by any chain. *)
let test_inline_inode_claimed_on_summary () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/a" (Bytes.make 3000 'a');
  Fs.checkpoint fs;
  Helpers.fsck_clean fs;
  let dev = Helpers.vdev disk in
  let block, slot = inline_home fs "/a" in
  (match Lfs_core.Summary.decode (Lfs_disk.Vdev.read_block dev block) with
  | Some s ->
      Alcotest.(check bool) "the inode's block is a summary carrying it" true
        (List.exists
           (fun (ia, _) -> Types.Iaddr.slot ia = slot)
           (Lfs_core.Summary.inline_inodes s (Fs.layout fs)))
  | None -> Alcotest.fail "the inode's block is not a summary");
  let b = Lfs_disk.Vdev.read_block dev block in
  (* A byte of the inode's mtime: the inode still decodes. *)
  let at = (slot * Lfs_core.Inode.slot_size) + 20 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
  Lfs_disk.Vdev.write_block dev block b;
  let r = Fsck.check (Fs.mount dev) in
  let ino = Option.get (Fs.resolve fs "/a") in
  let needle = Printf.sprintf "inode %d: block %d not covered" ino block in
  if not (List.exists (fun e -> contains ~needle e) r.Fsck.errors) then
    Alcotest.failf "no error mentions %S" needle

(* A summary that passes its checksum but whose inline inode slots
   overlap its entry table is malformed: fsck says so. *)
let test_detects_inline_overlap () =
  let disk, fs = Helpers.fresh_fs () in
  Fs.write_path fs "/a" (Bytes.make 3000 'a');
  Fs.checkpoint fs;
  let dev = Helpers.vdev disk in
  let block, _ = inline_home fs "/a" in
  (* The header's inline inode count: every slot, the first included. *)
  patch_block dev block (fun b ->
      Bytes.set_int32_le b 56 (Int32.of_int (Fs.layout fs).Lfs_core.Layout.inodes_per_block));
  let r = Fsck.check (Fs.mount dev) in
  if not (List.exists (fun e -> contains ~needle:"overlap" e) r.Fsck.errors) then
    Alcotest.failf "no error reports the overlap: %s" (String.concat "; " r.Fsck.errors)

(* A volume of the previous format (version 4: no inline metadata in
   its summaries) is refused with a typed error, not misread. *)
let test_refuses_format_4 () =
  let disk, _ = Helpers.fresh_fs () in
  let dev = Helpers.vdev disk in
  patch_block dev 0 (fun b -> Bytes.set_int32_le b 12 4l);
  match Fs.mount dev with
  | _ -> Alcotest.fail "a version-4 superblock mounted"
  | exception Types.Corrupt m ->
      if not (contains ~needle:"version 4" m) then Alcotest.failf "unexpected: %s" m

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
      Alcotest.test_case "inline inode claimed on its summary" `Quick
        test_inline_inode_claimed_on_summary;
      Alcotest.test_case "inline overlap" `Quick test_detects_inline_overlap;
      Alcotest.test_case "format 4 refused" `Quick test_refuses_format_4;
      Alcotest.test_case "report printable" `Quick test_report_printable;
    ] )
