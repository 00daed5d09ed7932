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
    (fun ops ->
      let _, fs = Helpers.fresh_fs ~blocks:2048 () in
      let model = List.fold_left (apply fs) [] ops in
      check_against_model fs model
      && Lfs_core.Fsck.is_clean (Lfs_core.Fsck.check fs))

let prop_remount_preserves =
  QCheck.Test.make ~count:40 ~name:"remount preserves arbitrary op results"
    arb_ops
    (fun ops ->
      let disk, fs = Helpers.fresh_fs ~blocks:2048 () in
      let model = List.fold_left (apply fs) [] ops in
      Fs.unmount fs;
      let fs2 = Fs.mount (Helpers.vdev disk) in
      check_against_model fs2 model)

let prop_recovery_after_sync_preserves =
  QCheck.Test.make ~count:40
    ~name:"roll-forward preserves synced arbitrary op results" arb_ops
    (fun ops ->
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
    (fun ops ->
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
    (fun writes ->
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
    (fun ops ->
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
    (check_torn_write (fun disk ->
         Vdev_cache.vdev (Vdev_cache.create ~capacity:64 (Vdev.of_disk disk))))

(* ----- Submit/complete vs synchronous data equivalence ----- *)

(* Scheduling lives purely on the time plane: a program of tagged
   submits, awaits and drains must leave exactly the bytes the
   synchronous API leaves, on every composition of the device stack. *)

module Vdev_fault = Lfs_disk.Vdev_fault
module Io_queue = Lfs_disk.Io_queue

let sq_blocks = 128

type sq_op =
  | Sq_read of int * int
  | Sq_write of int * int * int
  | Sq_await
  | Sq_drain

let print_sq = function
  | Sq_read (a, l) -> Printf.sprintf "r@%d+%d" a l
  | Sq_write (a, l, s) -> Printf.sprintf "w@%d+%d#%d" a l s
  | Sq_await -> "await"
  | Sq_drain -> "drain"

let sq_stack_names = [| "plain"; "cache"; "stripe"; "fault" |]

let sq_stack = function
  | 0 -> Vdev.of_disk (Disk.create (Geometry.instant ~blocks:sq_blocks))
  | 1 ->
      Vdev_cache.vdev
        (Vdev_cache.create ~capacity:16
           (Vdev.of_disk (Disk.create (Geometry.instant ~blocks:sq_blocks))))
  | 2 ->
      Vdev_stripe.create
        (Array.init 4 (fun _ ->
             Vdev.of_disk (Disk.create (Geometry.instant ~blocks:(sq_blocks / 4)))))
  | _ ->
      Vdev_fault.vdev
        (Vdev_fault.create
           (Vdev.of_disk (Disk.create (Geometry.instant ~blocks:sq_blocks))))

let arb_sq_prog =
  let gen =
    QCheck.Gen.(
      pair (int_bound 3)
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
    (fun (comp, ops) ->
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
            | Sq_read (addr, len) ->
                let want = Vdev.read_blocks sync_v addr len in
                let tk, got = Vdev.submit_read queued_v addr len in
                tickets := tk :: !tickets;
                Bytes.equal want got
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
      Vdev.set_mode queued_v Vdev.Direct;
      reads_match && settled
      && Bytes.equal
           (Vdev.read_blocks sync_v 0 sq_blocks)
           (Vdev.read_blocks queued_v 0 sq_blocks))

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
    ] )
