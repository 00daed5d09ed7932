(* Shared fixtures for the test suite. *)

module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Geometry = Lfs_disk.Geometry
module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Types = Lfs_core.Types
module Prng = Lfs_util.Prng

(* A small, fast geometry: zero-cost timing, 4 MB disk. *)
let test_geometry ?(blocks = 1024) () = Geometry.instant ~blocks

let test_config =
  {
    Config.default with
    max_inodes = 512;
    seg_blocks = 32;
    write_buffer_blocks = 16;
    clean_start = 3;
    clean_stop = 6;
    segs_per_pass = 3;
    cache_blocks = 128;
  }

(* [test_config] with idle-time cleaning engaged on every
   [Fs.clean_step] and no interval checkpoints. *)
let eager_cleaning_config =
  { test_config with bg_clean_start = 999; bg_clean_stop = 1000;
    checkpoint_interval_ops = 0 }

let fresh_disk ?blocks () = Disk.create (test_geometry ?blocks ())

(* [f x] with {!Lfs_util.Buf_pool.poison} set, and unset however it
   ends: any buffer read or written after its give fails the run. *)
let poisoned f x =
  Lfs_util.Buf_pool.poison := true;
  Fun.protect
    ~finally:(fun () -> Lfs_util.Buf_pool.poison := false)
    (fun () -> f x)

(* Tests keep the concrete [Disk.t] (for [snapshot] and [stats]) and
   hand the file system a [Vdev] view of it.  [Fs] puts its own block
   cache over that view, so every crash and recovery test crosses a
   wrapped device stack. *)
let vdev disk = Vdev.of_disk disk

(* A view of [dev] that counts every block read through it, and logs
   every read as (address, blocks), newest first. *)
let recording dev =
  let reads = Hashtbl.create 64 and log = ref [] in
  let read_into ?now addr n buf ~pos =
    log := (addr, n) :: !log;
    for a = addr to addr + n - 1 do
      Hashtbl.replace reads a (1 + Option.value ~default:0 (Hashtbl.find_opt reads a))
    done;
    Vdev.submit_read_into ?now dev addr n buf ~pos
  in
  let block_size = dev.Vdev.block_size in
  ( {
      dev with
      Vdev.submit_read_into = read_into;
      read_blocks = Vdev.alloc_read_blocks ~block_size read_into;
      submit_read = Vdev.alloc_submit_read ~block_size read_into;
    },
    reads,
    log )

(* Crash plumbing goes through the vdev view, not the raw disk: fault
   scheduling composes through wrapped device stacks instead of
   reaching under them. *)
let plan_crash disk ~after_blocks = Vdev.plan_crash (vdev disk) ~after_blocks
let reboot disk = Vdev.reboot (vdev disk)

(* A running total of the mount's registry (counted since mount). *)
let fs_total fs name = int_of_float (Lfs_obs.Metrics.float_value (Fs.metrics fs) name)

let fresh_fs ?blocks ?(config = test_config) () =
  let disk = fresh_disk ?blocks () in
  Fs.format (vdev disk) config;
  (disk, Fs.mount (vdev disk))

let fsck_clean fs =
  let r = Lfs_core.Fsck.check fs in
  if not (Lfs_core.Fsck.is_clean r) then
    Alcotest.failf "fsck: %a" Lfs_core.Fsck.pp_report r

(* Printable pseudo-random bytes, a function of [seed] and [len].  The
   crash sweeps ask for the same patterns once per cut, so each is made
   once and every call gets a copy the caller may change.  The memo is
   emptied whenever it passes 8 MB: the random-op generators draw a
   fresh (seed, len) nearly every time, and keeping those would cost
   the suite hundreds of MB. *)
let patterns = Hashtbl.create 64
let pattern_bytes = ref 0

let bytes_of_pattern ~seed len =
  match Hashtbl.find_opt patterns (seed, len) with
  | Some b -> Bytes.copy b
  | None ->
      let prng = Prng.create ~seed in
      let b = Bytes.init len (fun _ -> Char.chr (32 + Prng.int prng 95)) in
      if !pattern_bytes + len > 8 lsl 20 then begin
        Hashtbl.reset patterns;
        pattern_bytes := 0
      end;
      Hashtbl.replace patterns (seed, len) b;
      pattern_bytes := !pattern_bytes + len;
      Bytes.copy b

(* A summary rendered into a block of its own. *)
let encode_summary ~block_size s =
  let b = Bytes.create block_size in
  Lfs_core.Summary.encode_into ~block_size s b;
  b

(* Words [f] adds to the major heap, directly or by promotion.
   [Gc.counters], not [Gc.quick_stat]: on OCaml 5 the latter's
   [major_words] only catches up at a minor collection. *)
let major_words f =
  Gc.minor ();
  let major () =
    let _, _, m = Gc.counters () in
    m
  in
  let before = major () in
  f ();
  major () -. before

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

(* A random sequence of file-system operations over a bounded namespace,
   used by integration and property tests.  Returns a model of the
   expected live files: path -> contents.  [after_op] runs after each
   operation. *)
let random_ops ?(files = 12) ?(dir_count = 3) ?(after_op = ignore) ~ops fs prng
    =
  let model : (string, bytes) Hashtbl.t = Hashtbl.create 16 in
  let dirs = Array.init dir_count (fun d -> Printf.sprintf "/dir%d" d) in
  Array.iter (fun d -> ignore (Fs.mkdir_path fs d)) dirs;
  let random_path () =
    Printf.sprintf "%s/f%d" dirs.(Prng.int prng dir_count) (Prng.int prng files)
  in
  for _ = 1 to ops do
    let path = random_path () in
    match Prng.int prng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        let data = bytes_of_pattern ~seed:(Prng.int prng 10000) (1 + Prng.int prng 60000) in
        Fs.write_path fs path data;
        Hashtbl.replace model path data
    | 5 ->
        (* Partial overwrite at a random offset. *)
        (match Fs.resolve fs path with
        | Some ino ->
            let size = Fs.file_size fs ino in
            let off = Prng.int prng (max 1 size) in
            let patch = bytes_of_pattern ~seed:(Prng.int prng 1000) (1 + Prng.int prng 5000) in
            Fs.write fs ino ~off patch;
            let old = Hashtbl.find model path in
            let newlen = max (Bytes.length old) (off + Bytes.length patch) in
            let merged = Bytes.make newlen '\000' in
            Bytes.blit old 0 merged 0 (Bytes.length old);
            Bytes.blit patch 0 merged off (Bytes.length patch);
            Hashtbl.replace model path merged
        | None -> ())
    | 6 ->
        (match Fs.resolve fs path with
        | Some ino ->
            let size = Fs.file_size fs ino in
            let len = Prng.int prng (size + 1) in
            Fs.truncate fs ino ~len;
            let old = Hashtbl.find model path in
            Hashtbl.replace model path (Bytes.sub old 0 len)
        | None -> ())
    | 7 ->
        (match Fs.resolve fs path with
        | Some _ ->
            let dir =
              Option.get (Fs.resolve fs (Filename.dirname path))
            in
            Fs.unlink fs ~dir (Filename.basename path);
            Hashtbl.remove model path
        | None -> ())
    | 8 ->
        (* Rename within / across directories. *)
        (match Fs.resolve fs path with
        | Some _ ->
            let dst = random_path () in
            if dst <> path then begin
              let odir = Option.get (Fs.resolve fs (Filename.dirname path)) in
              let ndir = Option.get (Fs.resolve fs (Filename.dirname dst)) in
              (match
                 Fs.rename fs ~odir (Filename.basename path) ~ndir
                   (Filename.basename dst)
               with
              | () ->
                  (match Hashtbl.find_opt model path with
                  | Some data ->
                      Hashtbl.remove model path;
                      Hashtbl.replace model dst data
                  | None -> ())
              | exception Types.Fs_error _ -> ())
            end
        | None -> ())
    | _ ->
        (match Fs.resolve fs path with
        | Some ino ->
            let size = Fs.file_size fs ino in
            ignore (Fs.read fs ino ~off:0 ~len:size)
        | None -> ());
    after_op ()
  done;
  model

let check_model fs model =
  Hashtbl.iter
    (fun path data ->
      match Fs.resolve fs path with
      | None -> Alcotest.failf "model file %s missing" path
      | Some ino ->
          let actual = Fs.read fs ino ~off:0 ~len:(Fs.file_size fs ino) in
          if not (Bytes.equal actual data) then
            Alcotest.failf "contents of %s differ (len %d vs %d)" path
              (Bytes.length actual) (Bytes.length data))
    model

(* The names of a directory listing (in on-disk order) whose encoded
   entries reach into the image's last [block_size] block, and that
   block's first byte: removing them all shrinks the directory across
   the block boundary. *)
let last_block_entries ~block_size entries =
  let entry_len name = 2 + String.length name + 4 in
  let len = List.fold_left (fun acc (n, _) -> acc + entry_len n) 4 entries in
  let lo = (len - 1) / block_size * block_size in
  let _, names =
    List.fold_left
      (fun (off, acc) (n, _) ->
        let next = off + entry_len n in
        (next, if next > lo then n :: acc else acc))
      (4, []) entries
  in
  (List.rev names, lo)

(* {2 Rewriting an image in place}

   Test surgery on a volume's log, applied to an unmounted device: the
   bytes of some logged blocks change, and [reseal] makes the writes
   that carry them consistent again, as if the writer had logged the
   new bytes. *)

module Summary = Lfs_core.Summary
module Layout = Lfs_core.Layout

let layout_of dev = (Lfs_core.Superblock.load dev).Lfs_core.Superblock.layout

(* The summaries of every segment's current chain, from slot 0 while
   the seq grows. *)
let chain_summaries dev =
  let layout = layout_of dev in
  List.concat
    (List.init layout.Layout.nsegs (fun seg ->
         let first = Layout.seg_first_block layout seg in
         let acc = ref [] and last = ref (-1) in
         ignore
           (Summary.walk_segment layout ~seg
              ~read:(fun slot -> (Vdev.read_block dev (first + slot), 0))
              (fun s ->
                s.Summary.seq > !last
                && begin
                     last := s.Summary.seq;
                     acc := s :: !acc;
                     true
                   end)
             : bool);
         !acc))

(* Write summary [s] back at its slot. *)
let write_summary dev s =
  let layout = layout_of dev in
  let bs = layout.Layout.block_size in
  Vdev.write_block dev
    (Layout.seg_first_block layout s.Summary.seg + s.Summary.slot)
    (encode_summary ~block_size:bs s)

(* Recompute the payload and tail sums of every write whose payload
   holds a block in [addrs], and write its summary back. *)
let reseal dev addrs =
  let layout = layout_of dev in
  let bs = layout.Layout.block_size in
  List.iter
    (fun s ->
      let n = List.length s.Summary.entries in
      let covers a =
        let first = Summary.entry_addr s layout 0 in
        a >= first && a < first + n
      in
      if n > 0 && List.exists covers addrs then begin
        let payload = Vdev.read_blocks dev (Summary.entry_addr s layout 0) n in
        write_summary dev
          {
            s with
            Summary.payload_sum = Summary.payload_checksum payload;
            tail_sum = Summary.payload_checksum ~pos:((n - 1) * bs) ~len:bs payload;
          }
      end)
    (chain_summaries dev)

(* Rewrite the type word of every inode-map entry the latest checkpoint
   names: [f ino word] is the new word (0 unknown, 1 regular, 2
   directory). *)
let rewrite_imap_words dev f =
  let layout = layout_of dev in
  let _, ck = Option.get (Lfs_core.Checkpoint.read_latest layout dev) in
  let per = layout.Layout.imap_entries_per_block in
  let changed = ref [] in
  Array.iteri
    (fun i addr ->
      if addr <> Types.nil_addr then begin
        let b = Vdev.read_block dev addr in
        for e = 0 to per - 1 do
          let ino = (i * per) + e in
          (* An entry is location (8 bytes), version (4), type word (4),
             atime (8). *)
          let off = (e * 24) + 12 in
          if ino < layout.Layout.max_inodes then
            Bytes.set_int32_le b off
              (Int32.of_int (f ino (Int32.to_int (Bytes.get_int32_le b off))))
        done;
        Vdev.write_block dev addr b;
        changed := addr :: !changed
      end)
    ck.Lfs_core.Checkpoint.imap_addrs;
  reseal dev !changed
