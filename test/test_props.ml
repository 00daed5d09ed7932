(* QCheck model properties over arbitrary operation sequences.  Unlike
   the seeded random_ops tests, these generate the operation list as a
   first-class value, so failures shrink to a minimal counterexample. *)

module Fs = Lfs_core.Fs
module Types = Lfs_core.Types
module Disk = Lfs_disk.Disk

type op =
  | Write of int * int  (* file index, size *)
  | Patch of int * int * int  (* file index, offset, size *)
  | Truncate of int * int
  | Delete of int
  | Rename of int * int
  | Sync
  | Checkpoint

let nfiles = 8

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun f s -> Write (f, s)) (int_bound (nfiles - 1)) (int_range 1 30_000));
        (2, map3 (fun f o s -> Patch (f, o, s)) (int_bound (nfiles - 1)) (int_bound 20_000) (int_range 1 4_000));
        (1, map2 (fun f l -> Truncate (f, l)) (int_bound (nfiles - 1)) (int_bound 20_000));
        (2, map (fun f -> Delete f) (int_bound (nfiles - 1)));
        (1, map2 (fun a b -> Rename (a, b)) (int_bound (nfiles - 1)) (int_bound (nfiles - 1)));
        (1, return Sync);
        (1, return Checkpoint);
      ])

let print_op = function
  | Write (f, s) -> Printf.sprintf "Write(f%d, %d)" f s
  | Patch (f, o, s) -> Printf.sprintf "Patch(f%d, @%d, %d)" f o s
  | Truncate (f, l) -> Printf.sprintf "Truncate(f%d, %d)" f l
  | Delete f -> Printf.sprintf "Delete(f%d)" f
  | Rename (a, b) -> Printf.sprintf "Rename(f%d, f%d)" a b
  | Sync -> "Sync"
  | Checkpoint -> "Checkpoint"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

let name i = Printf.sprintf "f%d" i

(* Apply one op to the file system and, in parallel, to a trivial
   in-memory model.  Returns the updated model. *)
let apply fs model op =
  let content i = List.assoc_opt (name i) model in
  let fill len tag = Bytes.make len (Char.chr (65 + (tag mod 26))) in
  match op with
  | Write (f, size) ->
      let data = fill size (f + size) in
      Fs.write_path fs ("/" ^ name f) data;
      (name f, data) :: List.remove_assoc (name f) model
  | Patch (f, off, size) -> (
      match content f with
      | None -> model
      | Some old ->
          let ino = Option.get (Fs.resolve fs ("/" ^ name f)) in
          let off = min off (Bytes.length old) in
          let patch = fill size (f + off) in
          Fs.write fs ino ~off patch;
          let len = max (Bytes.length old) (off + size) in
          let merged = Bytes.make len '\000' in
          Bytes.blit old 0 merged 0 (Bytes.length old);
          Bytes.blit patch 0 merged off size;
          (name f, merged) :: List.remove_assoc (name f) model)
  | Truncate (f, len) -> (
      match content f with
      | None -> model
      | Some old ->
          let ino = Option.get (Fs.resolve fs ("/" ^ name f)) in
          let len = min len (Bytes.length old) in
          Fs.truncate fs ino ~len;
          (name f, Bytes.sub old 0 len) :: List.remove_assoc (name f) model)
  | Delete f -> (
      match content f with
      | None -> model
      | Some _ ->
          Fs.unlink fs ~dir:Fs.root (name f);
          List.remove_assoc (name f) model)
  | Rename (a, b) -> (
      match content a with
      | None -> model
      | Some data ->
          if a = b then model
          else begin
            Fs.rename fs ~odir:Fs.root (name a) ~ndir:Fs.root (name b);
            (name b, data)
            :: List.remove_assoc (name a) (List.remove_assoc (name b) model)
          end)
  | Sync ->
      Fs.sync fs;
      model
  | Checkpoint ->
      Fs.checkpoint fs;
      model

let check_against_model fs model =
  List.for_all
    (fun (n, data) ->
      match Fs.resolve fs ("/" ^ n) with
      | None -> false
      | Some ino ->
          Bytes.equal data (Fs.read fs ino ~off:0 ~len:(Fs.file_size fs ino)))
    model
  && List.length (Fs.readdir fs Fs.root) = List.length model

let prop_model_agreement =
  QCheck.Test.make ~count:60 ~name:"fs agrees with model under arbitrary ops"
    arb_ops
    (Helpers.poisoned @@ fun ops ->
      let _, fs = Helpers.fresh_fs ~blocks:2048 () in
      let model = List.fold_left (apply fs) [] ops in
      check_against_model fs model
      && Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs))

let prop_remount_preserves =
  QCheck.Test.make ~count:40 ~name:"remount preserves arbitrary op results"
    arb_ops
    (Helpers.poisoned @@ fun ops ->
      let disk, fs = Helpers.fresh_fs ~blocks:2048 () in
      let model = List.fold_left (apply fs) [] ops in
      Fs.unmount fs;
      let fs2 = Fs.mount (Helpers.vdev disk) in
      check_against_model fs2 model)

let prop_recovery_after_sync_preserves =
  QCheck.Test.make ~count:40
    ~name:"roll-forward preserves synced arbitrary op results" arb_ops
    (Helpers.poisoned @@ fun ops ->
      let disk, fs = Helpers.fresh_fs ~blocks:2048 () in
      let model = List.fold_left (apply fs) [] ops in
      Fs.sync fs;
      (* Crash (abandon the instance), recover, compare. *)
      let fs2, _ = Fs.recover (Helpers.vdev disk) in
      check_against_model fs2 model
      && Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs2))

(* The same op generator drives the NVRAM-backed FS; a crash may happen
   at any point (no sync at all) and nothing acknowledged may be lost. *)
let prop_nvram_no_loss =
  QCheck.Test.make ~count:40 ~name:"nvram loses nothing across a crash"
    arb_ops
    (Helpers.poisoned @@ fun ops ->
      let disk, fs0 = Helpers.fresh_fs ~blocks:2048 () in
      let nvram = Lfs_core.Nvram.create () in
      let nfs = Lfs_core.Nvram_fs.wrap fs0 nvram in
      let apply_nvram model op =
        let content i = List.assoc_opt (name i) model in
        let fill len tag = Bytes.make len (Char.chr (65 + (tag mod 26))) in
        match op with
        | Write (f, size) ->
            let data = fill size (f + size) in
            Lfs_core.Nvram_fs.write_path nfs ("/" ^ name f) data;
            (name f, data) :: List.remove_assoc (name f) model
        | Patch (f, off, size) -> (
            match content f with
            | None -> model
            | Some old ->
                let ino = Option.get (Lfs_core.Nvram_fs.resolve nfs ("/" ^ name f)) in
                let off = min off (Bytes.length old) in
                let patch = fill size (f + off) in
                Lfs_core.Nvram_fs.write nfs ino ~off patch;
                let len = max (Bytes.length old) (off + size) in
                let merged = Bytes.make len '\000' in
                Bytes.blit old 0 merged 0 (Bytes.length old);
                Bytes.blit patch 0 merged off size;
                (name f, merged) :: List.remove_assoc (name f) model)
        | Truncate (f, len) -> (
            match content f with
            | None -> model
            | Some old ->
                let ino = Option.get (Lfs_core.Nvram_fs.resolve nfs ("/" ^ name f)) in
                let len = min len (Bytes.length old) in
                Lfs_core.Nvram_fs.truncate nfs ino ~len;
                (name f, Bytes.sub old 0 len) :: List.remove_assoc (name f) model)
        | Delete f -> (
            match content f with
            | None -> model
            | Some _ ->
                Lfs_core.Nvram_fs.unlink nfs ~dir:Fs.root (name f);
                List.remove_assoc (name f) model)
        | Rename (a, b) -> (
            match content a with
            | None -> model
            | Some data ->
                if a = b then model
                else begin
                  Lfs_core.Nvram_fs.rename nfs ~odir:Fs.root (name a)
                    ~ndir:Fs.root (name b);
                  (name b, data)
                  :: List.remove_assoc (name a) (List.remove_assoc (name b) model)
                end)
        | Sync ->
            Fs.sync fs0;
            model
        | Checkpoint ->
            Lfs_core.Nvram_fs.checkpoint nfs;
            model
      in
      let model = List.fold_left apply_nvram [] ops in
      (* Power cut with no warning; recover with the journal. *)
      Helpers.reboot disk;
      let nfs2, _ = Lfs_core.Nvram_fs.recover (Helpers.vdev disk) nvram in
      let fs2 = Lfs_core.Nvram_fs.fs nfs2 in
      check_against_model fs2 model
      && Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs2))

(* ----- Device-stack properties ----- *)

module Vdev = Lfs_disk.Vdev
module Vdev_stripe = Lfs_disk.Vdev_stripe
module Vdev_cache = Lfs_disk.Vdev_cache
module Geometry = Lfs_disk.Geometry

let stripe_width = 4
let stripe_child_blocks = 64
let stripe_blocks = stripe_width * stripe_child_blocks

(* Writes as (addr, len, seed) triples; lens cross stripe boundaries. *)
let arb_stripe_writes =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (map2
           (fun (addr, seed) len -> (min addr (stripe_blocks - len), len, seed))
           (pair (int_bound (stripe_blocks - 1)) (int_bound 10_000))
           (int_range 1 (2 * stripe_width + 1))))
  in
  QCheck.make
    ~print:(fun ws ->
      String.concat "; "
        (List.map (fun (a, l, s) -> Printf.sprintf "w@%d+%d#%d" a l s) ws))
    ~shrink:QCheck.Shrink.list gen

let prop_stripe_matches_single_disk =
  QCheck.Test.make ~count:60
    ~name:"striped vdev stores the same bytes as one disk" arb_stripe_writes
    (Helpers.poisoned @@ fun writes ->
      let striped =
        Vdev_stripe.create
          (Array.init stripe_width (fun _ ->
               Vdev.of_disk (Disk.create (Geometry.instant ~blocks:stripe_child_blocks))))
      in
      let single =
        Vdev.of_disk (Disk.create (Geometry.instant ~blocks:stripe_blocks))
      in
      let bs = Vdev.block_size striped in
      List.iter
        (fun (addr, len, seed) ->
          let data = Helpers.bytes_of_pattern ~seed (len * bs) in
          Vdev.write_blocks striped addr data;
          Vdev.write_blocks single addr data)
        writes;
      (* Power cuts are armed on a child, never on the stripe. *)
      (match Vdev.plan_crash striped ~after_blocks:1 with
      | () -> false
      | exception Invalid_argument _ -> true)
      && Bytes.equal
           (Vdev.read_blocks striped 0 stripe_blocks)
           (Vdev.read_blocks single 0 stripe_blocks))

(* A cached stack must be observationally identical to the raw device,
   and every block that travels through the read path must be accounted
   as exactly one hit or one miss. *)

let cache_prop_blocks = 128

let arb_cache_ops =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (map2
           (fun (w, addr, seed) len ->
             (w, min addr (cache_prop_blocks - len), len, seed))
           (triple bool (int_bound (cache_prop_blocks - 1)) (int_bound 10_000))
           (int_range 1 12)))
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (fun (w, a, l, s) ->
             Printf.sprintf "%c@%d+%d#%d" (if w then 'w' else 'r') a l s)
           ops))
    ~shrink:QCheck.Shrink.list gen

let prop_cached_stack_matches_raw =
  QCheck.Test.make ~count:80
    ~name:"Vdev_cache serves identical bytes and accounts every block"
    arb_cache_ops
    (Helpers.poisoned @@ fun ops ->
      let mk () = Disk.create (Geometry.instant ~blocks:cache_prop_blocks) in
      let raw = Vdev.of_disk (mk ()) in
      let cache = Vdev_cache.create ~capacity:32 (Vdev.of_disk (mk ())) in
      let cached = Vdev_cache.vdev cache in
      let bs = Vdev.block_size raw in
      let blocks_read = ref 0 in
      let reads_match =
        List.for_all
          (fun (w, addr, len, seed) ->
            if w then begin
              let data = Helpers.bytes_of_pattern ~seed (len * bs) in
              Vdev.write_blocks raw addr data;
              Vdev.write_blocks cached addr data;
              true
            end
            else begin
              blocks_read := !blocks_read + len;
              Bytes.equal (Vdev.read_blocks raw addr len)
                (Vdev.read_blocks cached addr len)
            end)
          ops
      in
      let counts_match =
        Vdev_cache.hits cache + Vdev_cache.misses cache = !blocks_read
      in
      reads_match && counts_match
      && Bytes.equal
           (Vdev.read_blocks raw 0 cache_prop_blocks)
           (Vdev.read_blocks cached 0 cache_prop_blocks))

(* A torn write must persist exactly the planned prefix, and the wrapper
   must not serve stale data for the torn tail. *)
let check_torn_write wrap (k, extra) =
  let disk = Disk.create (Geometry.instant ~blocks:256) in
  let dev = wrap disk in
  let bs = Vdev.block_size dev in
  let n = k + extra in
  let addr = 3 in
  let old = Helpers.bytes_of_pattern ~seed:1 (n * bs) in
  Vdev.write_blocks dev addr old;
  (* Warm any cache with the old contents. *)
  for i = 0 to n - 1 do
    ignore (Vdev.read_block dev (addr + i))
  done;
  (* Arm the crash through the wrapped view: scheduling composes down
     the stack instead of reaching under it. *)
  Vdev.plan_crash dev ~after_blocks:k;
  let fresh = Helpers.bytes_of_pattern ~seed:2 (n * bs) in
  let crashed =
    match Vdev.write_blocks dev addr fresh with
    | () -> false
    | exception Vdev.Crashed -> true
  in
  Vdev.reboot dev;
  let block_ok i =
    let expect = if i < k then fresh else old in
    let want = Bytes.sub expect (i * bs) bs in
    Bytes.equal want (Vdev.read_block dev (addr + i))
    && Bytes.equal want (Disk.read_block disk (addr + i))
  in
  let all_ok = ref crashed in
  for i = 0 to n - 1 do
    all_ok := !all_ok && block_ok i
  done;
  !all_ok

let arb_torn =
  QCheck.make
    ~print:(fun (k, e) -> Printf.sprintf "survive=%d torn=%d" k e)
    QCheck.Gen.(pair (int_bound 6) (int_range 1 6))

let prop_torn_write_through_cache =
  QCheck.Test.make ~count:60
    ~name:"torn writes keep a Vdev_cache coherent" arb_torn
    (Helpers.poisoned
       (check_torn_write (fun disk ->
            Vdev_cache.vdev (Vdev_cache.create ~capacity:64 (Vdev.of_disk disk)))))

(* ----- Submit/complete vs synchronous data equivalence ----- *)

(* Scheduling lives purely on the time plane: a program of tagged
   submits, awaits and drains must leave exactly the bytes the
   synchronous API leaves, and send the same transfers to the leaves, on
   every composition of the device stack.  Reads into a caller's buffer
   at any byte offset must match the allocating reads, and a write of a
   slice of a caller's buffer must match the whole-buffer write of a
   copy, even though the caller overwrites its buffer once the write
   call returns. *)

module Vdev_fault = Lfs_disk.Vdev_fault
module Io_queue = Lfs_disk.Io_queue

let sq_blocks = 128

type sq_op =
  | Sq_read of int * int
  | Sq_read_into of int * int * int  (* address, blocks, byte offset *)
  | Sq_write of int * int * int
  | Sq_write_from of int * int * int * int * bool
      (* address, blocks, seed, byte offset, whether the queued side
         (else the synchronous one) writes the slice *)
  | Sq_await
  | Sq_drain

let print_sq = function
  | Sq_read (a, l) -> Printf.sprintf "r@%d+%d" a l
  | Sq_read_into (a, l, p) -> Printf.sprintf "ri@%d+%d>%d" a l p
  | Sq_write (a, l, s) -> Printf.sprintf "w@%d+%d#%d" a l s
  | Sq_write_from (a, l, s, p, q) ->
      Printf.sprintf "wf%s@%d+%d#%d<%d" (if q then "q" else "s") a l s p
  | Sq_await -> "await"
  | Sq_drain -> "drain"

let sq_stack_names = [| "plain"; "cache"; "stripe"; "fault"; "tier"; "cache(fault)" |]

let sq_disk blocks = Vdev.of_disk (Disk.create (Geometry.instant ~blocks))

(* A fault layer that flips a bit in every read of a few blocks: a read
   path that skips the layer reads different bytes. *)
let sq_rotted lower =
  let f = Vdev_fault.create lower in
  List.iter (fun addr -> Vdev_fault.rot_read f ~addr) [ 3; 40; 41; 100 ];
  f

let sq_stack = function
  | 0 -> sq_disk sq_blocks
  | 1 -> Vdev_cache.vdev (Vdev_cache.create ~capacity:16 (sq_disk sq_blocks))
  | 2 -> Vdev_stripe.create (Array.init 4 (fun _ -> sq_disk (sq_blocks / 4)))
  | 3 -> Vdev_fault.vdev (sq_rotted (sq_disk sq_blocks))
  | 4 ->
      (* Chunks of 8 on both children, so reads cross tier boundaries. *)
      let ti =
        Lfs_disk.Vdev_tier.format ~base:4 ~chunk_blocks:8 ~fast:(sq_disk 64)
          ~slow:(sq_disk 128)
      in
      assert (Lfs_disk.Vdev_tier.exported_blocks ti >= sq_blocks);
      Lfs_disk.Vdev_tier.vdev ti
  | _ ->
      Vdev_cache.vdev
        (Vdev_cache.create ~capacity:16
           (Vdev_fault.vdev (sq_rotted (sq_disk sq_blocks))))

let arb_sq_prog =
  let gen =
    QCheck.Gen.(
      pair (int_bound (Array.length sq_stack_names - 1))
        (list_size (int_range 1 50)
           (frequency
              [
                ( 4,
                  map2
                    (fun (a, s) l -> Sq_write (min a (sq_blocks - l), l, s))
                    (pair (int_bound (sq_blocks - 1)) (int_bound 10_000))
                    (int_range 1 8) );
                ( 4,
                  map2
                    (fun a l -> Sq_read (min a (sq_blocks - l), l))
                    (int_bound (sq_blocks - 1))
                    (int_range 1 8) );
                ( 3,
                  map3
                    (fun a l p -> Sq_read_into (min a (sq_blocks - l), l, p))
                    (int_bound (sq_blocks - 1))
                    (int_range 1 8) (int_bound 5000) );
                ( 3,
                  map3
                    (fun (a, s) (l, p) q ->
                      Sq_write_from (min a (sq_blocks - l), l, s, p, q))
                    (pair (int_bound (sq_blocks - 1)) (int_bound 10_000))
                    (pair (int_range 1 8) (int_range 1 5000))
                    bool );
                (1, return Sq_await);
                (1, return Sq_drain);
              ])))
  in
  QCheck.make
    ~print:(fun (c, ops) ->
      Printf.sprintf "%s: %s" sq_stack_names.(c)
        (String.concat "; " (List.map print_sq ops)))
    ~shrink:(fun (c, ops) ->
      QCheck.Iter.map (fun ops -> (c, ops)) (QCheck.Shrink.list ops))
    gen

let prop_queued_data_equivalence =
  QCheck.Test.make ~count:100
    ~name:"queued submit/await programs are data-equivalent to the sync path"
    arb_sq_prog
    (Helpers.poisoned @@ fun (comp, ops) ->
      let sync_v = sq_stack comp in
      let queued_v = sq_stack comp in
      let now = ref 0.0 in
      Vdev.set_mode queued_v (Vdev.Queued (fun () -> !now));
      let bs = Vdev.block_size sync_v in
      let tickets = ref [] in
      let reads_match =
        List.for_all
          (fun op ->
            now := !now +. 1.0;
            match op with
            | Sq_write (addr, len, seed) ->
                let data = Helpers.bytes_of_pattern ~seed (len * bs) in
                Vdev.write_blocks sync_v addr data;
                tickets := Vdev.submit_write queued_v addr data :: !tickets;
                true
            | Sq_write_from (addr, len, seed, pos, queued) ->
                (* One side writes the slice at [pos] of a larger buffer
                   and scribbles over the buffer as soon as the call
                   returns; the other writes a copy of the slice whole.
                   Data at submit: the scribble reaches neither. *)
                let n = len * bs in
                let buf = Helpers.bytes_of_pattern ~seed (pos + n + 7) in
                let slice = Bytes.sub buf pos n in
                let from_v, whole_v =
                  if queued then (queued_v, sync_v) else (sync_v, queued_v)
                in
                let tk = Vdev.submit_write_from from_v addr len buf ~pos in
                Bytes.fill buf 0 (Bytes.length buf) '#';
                let tk' = Vdev.submit_write whole_v addr slice in
                tickets := (if queued then tk else tk') :: !tickets;
                true
            | Sq_read (addr, len) ->
                let want = Vdev.read_blocks sync_v addr len in
                let tk, got = Vdev.submit_read queued_v addr len in
                tickets := tk :: !tickets;
                Bytes.equal want got
            | Sq_read_into (addr, len, pos) ->
                (* The blocks land at [pos]; the bytes around stay. *)
                let want = Vdev.read_blocks sync_v addr len in
                let n = len * bs in
                let buf = Helpers.bytes_of_pattern ~seed:pos (pos + n + 7) in
                let around = Bytes.copy buf in
                tickets := Vdev.submit_read_into queued_v addr len buf ~pos :: !tickets;
                Bytes.equal want (Bytes.sub buf pos n)
                && Bytes.equal (Bytes.sub around 0 pos) (Bytes.sub buf 0 pos)
                && Bytes.equal (Bytes.sub around (pos + n) 7) (Bytes.sub buf (pos + n) 7)
            | Sq_await ->
                (match !tickets with
                | [] -> ()
                | tk :: _ -> ignore (Vdev.await tk));
                true
            | Sq_drain ->
                ignore (Vdev.drain queued_v);
                true)
          ops
      in
      ignore (Vdev.drain queued_v);
      let settled = Vdev.outstanding_in queued_v ~lo:0 ~hi:max_int = 0 in
      (* The same transfers reached the leaves: a layer whose read path
         the queued side bypassed (a cache hit there, a miss here) shows
         in the counts. *)
      let counts v =
        let s = Vdev.stats v in
        Lfs_disk.Io_stats.(s.reads, s.blocks_read, s.writes, s.blocks_written)
      in
      let same_io = counts sync_v = counts queued_v in
      Vdev.set_mode queued_v Vdev.Direct;
      reads_match && settled && same_io
      && Bytes.equal
           (Vdev.read_blocks sync_v 0 sq_blocks)
           (Vdev.read_blocks queued_v 0 sq_blocks))

(* The dirty set.  Operations over a small namespace (two directories
   under the root, four names in each of the three) on a volume small
   enough that idle-time cleaning relocates data, indirect blocks and
   inodes.  After every operation, each cached handle outside the set
   must match the log: its block map clean, and its inode, with the
   direct pointers the map holds, byte-equal to the copy at its inode-map
   location.  After a sync the set is empty. *)
type dop =
  | D_create of int * int  (* dir, name *)
  | D_write of int * int * int * int  (* dir, name, offset, size *)
  | D_truncate of int * int * int
  | D_link of int * int * int * int  (* from dir/name, to dir/name *)
  | D_unlink of int * int
  | D_rename of int * int * int * int
  | D_mkdir of int
  | D_rmdir of int
  | D_clean_step
  | D_checkpoint
  | D_sync
  | D_crash

let print_dop = function
  | D_create (d, n) -> Printf.sprintf "create d%d/n%d" d n
  | D_write (d, n, o, l) -> Printf.sprintf "write d%d/n%d @%d %d" d n o l
  | D_truncate (d, n, l) -> Printf.sprintf "truncate d%d/n%d %d" d n l
  | D_link (d, n, d', n') -> Printf.sprintf "link d%d/n%d d%d/n%d" d n d' n'
  | D_unlink (d, n) -> Printf.sprintf "unlink d%d/n%d" d n
  | D_rename (d, n, d', n') ->
      Printf.sprintf "rename d%d/n%d d%d/n%d" d n d' n'
  | D_mkdir d -> Printf.sprintf "mkdir d%d" d
  | D_rmdir d -> Printf.sprintf "rmdir d%d" d
  | D_clean_step -> "clean_step"
  | D_checkpoint -> "checkpoint"
  | D_sync -> "sync"
  | D_crash -> "crash"

let dop_gen =
  QCheck.Gen.(
    let dir = int_bound 2 and nm = int_bound 3 in
    frequency
      [
        (3, map2 (fun d n -> D_create (d, n)) dir nm);
        ( 6,
          let* d = dir and* n = nm and* o = int_bound 16
          and* unit = oneofl [ 1; 512; 4096 ]
          and* len = int_range 1 40_000 in
          return (D_write (d, n, o * unit, len)) );
        (2, map3 (fun d n l -> D_truncate (d, n, l)) dir nm (int_bound 60_000));
        (2, map4 (fun d n d' n' -> D_link (d, n, d', n')) dir nm dir nm);
        (2, map2 (fun d n -> D_unlink (d, n)) dir nm);
        (2, map4 (fun d n d' n' -> D_rename (d, n, d', n')) dir nm dir nm);
        (1, map (fun d -> D_mkdir (1 + d)) (int_bound 1));
        (1, map (fun d -> D_rmdir (1 + d)) (int_bound 1));
        (3, return D_clean_step);
        (1, return D_checkpoint);
        (1, return D_sync);
        (1, return D_crash);
      ])

(* Namespace errors (a name taken, a parent gone, a directory not
   empty) are part of the op mix: the invariant holds after them too. *)
let apply_dop disk fs op =
  let dname d = Printf.sprintf "d%d" d and nm n = Printf.sprintf "n%d" n in
  let dir_ino d =
    if d = 0 then Some Fs.root else Fs.lookup fs ~dir:Fs.root (dname d)
  in
  let in_dir d f =
    Option.iter (fun dir -> try f dir with Types.Fs_error _ -> ()) (dir_ino d)
  in
  let file d n = Option.bind (dir_ino d) (fun dir -> Fs.lookup fs ~dir (nm n)) in
  match op with
  | D_crash ->
      fst (Fs.recover ~config:Helpers.eager_cleaning_config (Helpers.vdev disk))
  | _ ->
      (match op with
      | D_create (d, n) -> in_dir d (fun dir -> ignore (Fs.create fs ~dir (nm n)))
      | D_write (d, n, off, len) ->
          (* Creating the file if it is missing. *)
          in_dir d (fun dir ->
              let ino =
                match Fs.lookup fs ~dir (nm n) with
                | Some ino -> ino
                | None -> Fs.create fs ~dir (nm n)
              in
              Fs.write fs ino ~off (Bytes.make len (Char.chr (65 + (off mod 26)))))
      | D_truncate (d, n, len) ->
          in_dir d (fun _ -> Option.iter (fun ino -> Fs.truncate fs ino ~len) (file d n))
      | D_link (d, n, d', n') ->
          in_dir d' (fun dir ->
              Option.iter (fun ino -> Fs.link fs ~dir (nm n') ino) (file d n))
      | D_unlink (d, n) -> in_dir d (fun dir -> Fs.unlink fs ~dir (nm n))
      | D_rename (d, n, d', n') ->
          in_dir d (fun odir ->
              in_dir d' (fun ndir -> Fs.rename fs ~odir (nm n) ~ndir (nm n')))
      | D_mkdir d -> in_dir 0 (fun dir -> ignore (Fs.mkdir fs ~dir (dname d)))
      | D_rmdir d -> in_dir 0 (fun dir -> Fs.rmdir fs ~dir (dname d))
      | D_clean_step -> ignore (Fs.clean_step fs)
      | D_checkpoint -> Fs.checkpoint fs
      | D_sync -> Fs.sync fs
      | D_crash -> ());
      fs

module Inode = Lfs_core.Inode
module Filemap = Lfs_core.Filemap
module Iaddr = Types.Iaddr

(* The handles outside the dirty set that differ from the log. *)
let stale_clean_handles disk fs =
  let layout = Fs.layout fs in
  let isz = layout.Lfs_core.Layout.inode_size in
  let dirty = Fs.dirty_inos fs in
  List.filter
    (fun ino ->
      (not (List.mem ino dirty))
      && Fs.with_handle fs ino (fun inode fmap ->
             let iaddr = Fs.imap_location fs ino in
             let block = Iaddr.block iaddr and slot = Iaddr.slot iaddr in
             (* The inode as a flush would write it. *)
             let inode = Inode.copy inode in
             Array.iteri
               (fun i _ -> inode.Inode.direct.(i) <- Filemap.get fmap i)
               inode.Inode.direct;
             let mine = Bytes.make layout.Lfs_core.Layout.block_size '\000' in
             Inode.encode inode mine ~slot;
             let slot_of b = Bytes.sub b (slot * isz) isz in
             Filemap.dirty fmap || Iaddr.is_nil iaddr || block = 0
             || not (Bytes.equal (slot_of mine) (slot_of (Disk.read_block disk block)))))
    (Fs.cached_inos fs)

let prop_dirty_set =
  QCheck.Test.make ~count:200
    ~name:"a handle outside the dirty set matches the log"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_dop ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 120) dop_gen))
    (Helpers.poisoned @@ fun ops ->
      let disk = Helpers.fresh_disk ~blocks:1024 () in
      Fs.format (Helpers.vdev disk) Helpers.eager_cleaning_config;
      let fs = ref (Fs.mount (Helpers.vdev disk)) in
      List.for_all
        (fun op ->
          fs := apply_dop disk !fs op;
          (match stale_clean_handles disk !fs with
          | [] -> ()
          | inos ->
              QCheck.Test.fail_reportf "after %s: handles %s are stale"
                (print_dop op)
                (String.concat ", " (List.map string_of_int inos)));
          op <> D_sync || Fs.dirty_inos !fs = [])
        ops)

(* The cache holds only live blocks (Section 2.1's file cache, which
   dead copies would crowd): after every operation of a dirty-set
   sequence without crashes, every block resident in the mount's cache
   is one the fsck walk finds live — a data, indirect or table block,
   or the block of a live inode, which only a handle miss reads in (the
   root's, at mount) — so never a dead copy, a dir-log block, or a
   summary or inode block whose inodes have died.  On a Direct device,
   and on a Queued one served at most four requests behind, so log
   writes are still in flight when their blocks die. *)
let prop_cache_holds_live_blocks ~queued =
  QCheck.Test.make ~count:100
    ~name:
      (Printf.sprintf "the cache holds only live blocks (%s)"
         (if queued then "queued, depth 4" else "direct"))
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_dop ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(
         map (List.filter (( <> ) D_crash)) (list_size (int_range 1 120) dop_gen)))
    (fun ops ->
      let disk = Helpers.fresh_disk ~blocks:1024 () in
      let v = Helpers.vdev disk in
      Fs.format v Helpers.eager_cleaning_config;
      let fs = Fs.mount v in
      let now = ref 0.0 in
      if queued then Lfs_disk.Vdev.set_mode v (Lfs_disk.Io_queue.Queued (fun () -> !now));
      let depth () = Lfs_disk.Vdev.outstanding_in v ~lo:0 ~hi:max_int in
      let nblocks = Lfs_disk.Vdev.nblocks v in
      List.for_all
        (fun op ->
          ignore (apply_dop disk fs op : Fs.t);
          while depth () > 4 do
            now := !now +. 1.0;
            ignore (Lfs_disk.Vdev.pump v ~now:!now : (int * float) list)
          done;
          let live = Hashtbl.create 256 in
          List.iter (fun (a, _) -> Hashtbl.replace live a ()) (Lfs_core.Fsck.live_blocks fs);
          match
            List.filter
              (fun a -> Fs.block_cached fs a && not (Hashtbl.mem live a))
              (List.init nblocks Fun.id)
          with
          | [] -> true
          | dead ->
              QCheck.Test.fail_reportf "after %s: dead blocks %s resident" (print_dop op)
                (String.concat ", " (List.map string_of_int dead)))
        ops)

(* The segment states the space budget counts on.  After every op of a
   generated model sequence (idle steps included, each one budgeted
   cleaning step) and after every recovery: the reusable pool shares no
   segment with any head's current or reserved one, every pool segment
   is clean in the usage table, and every pool segment was already clean
   when the last checkpoint refreshed the pool — a segment cleaned since
   must wait for the next one (Section 4.1).  On [Spec.small_config],
   whose idle steps clean whenever a victim qualifies and mostly leave
   the pass uncheckpointed, with one and two write heads. *)
module Fs_model = Lfs_model.Fs_model

module Lfs_subject = (val Lfs_spec.Spec.subject (Lfs_spec.Spec.of_string "lfs"))
module Run_ops = Lfs_model.Refine.Make (Lfs_subject)

let prop_segment_states ~heads =
  QCheck.Test.make ~count:25
    ~name:
      (if heads = 1 then "segment states hold (lfs)"
       else Printf.sprintf "segment states hold (lfs:heads=%d)" heads)
    QCheck.(pair (int_bound 1_000_000) (small_list (int_bound 79)))
    (fun (seed, crashes) ->
      let v = Helpers.vdev (Helpers.fresh_disk ~blocks:1024 ()) in
      Fs.format v { Lfs_spec.Spec.small_config with Lfs_core.Config.log_heads = heads };
      let clean fs =
        List.filter
          (fun s -> Fs.segment_live_bytes fs s = 0)
          (List.init (Fs.layout fs).Lfs_core.Layout.nsegs Fun.id)
      in
      (* The clean set as the pool's last refresh saw it: at mount or
         at the end of recovery, then at every checkpoint. *)
      let refreshed = ref [] in
      let watch fs =
        refreshed := clean fs;
        Fs.on_checkpoint fs (fun () -> refreshed := clean fs);
        fs
      in
      let fs = ref (watch (Fs.mount v)) in
      let check after =
        let pool = Fs.reusable_segments !fs and now = clean !fs in
        let bad what segs =
          if segs <> [] then
            QCheck.Test.fail_reportf "after %s: pool segments %s %s" after
              (String.concat ", " (List.map string_of_int segs))
              what
        in
        bad "are active" (List.filter (fun s -> List.mem s (Fs.active_segments !fs)) pool);
        bad "are not clean" (List.filter (fun s -> not (List.mem s now)) pool);
        bad "were not clean at the last refresh"
          (List.filter (fun s -> not (List.mem s !refreshed)) pool)
      in
      check "mount";
      List.iteri
        (fun i op ->
          let fsops = Lfs_workload.Fsops.of_lfs !fs in
          let idle () = ignore (Fs.clean_step ~max_segments:1 !fs : int) in
          (try Run_ops.exec fsops ~idle op with Types.Fs_error _ -> ());
          check (Fs_model.op_to_string op);
          if List.mem i crashes then begin
            fs := watch (fst (Fs.recover v));
            check "recovery"
          end)
        (Lfs_model.Opgen.sequence ~seed ~seq:0 ~nops:80);
      true)

let suite =
  ( "properties",
    [
      QCheck_alcotest.to_alcotest prop_model_agreement;
      QCheck_alcotest.to_alcotest prop_remount_preserves;
      QCheck_alcotest.to_alcotest prop_recovery_after_sync_preserves;
      QCheck_alcotest.to_alcotest prop_nvram_no_loss;
      QCheck_alcotest.to_alcotest prop_stripe_matches_single_disk;
      QCheck_alcotest.to_alcotest prop_cached_stack_matches_raw;
      QCheck_alcotest.to_alcotest prop_torn_write_through_cache;
      QCheck_alcotest.to_alcotest prop_queued_data_equivalence;
      QCheck_alcotest.to_alcotest prop_dirty_set;
      QCheck_alcotest.to_alcotest (prop_cache_holds_live_blocks ~queued:false);
      QCheck_alcotest.to_alcotest (prop_cache_holds_live_blocks ~queued:true);
      QCheck_alcotest.to_alcotest (prop_segment_states ~heads:1);
      QCheck_alcotest.to_alcotest (prop_segment_states ~heads:2);
    ] )
