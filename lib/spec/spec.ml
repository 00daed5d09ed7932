module Shard_router = Lfs_shard.Shard_router
module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Vdev_tier = Lfs_disk.Vdev_tier
module Geometry = Lfs_disk.Geometry
module Config = Lfs_core.Config
module Layout = Lfs_core.Layout
module Fs = Lfs_core.Fs
module Fsck = Lfs_core.Fsck
module Ffs = Lfs_ffs.Ffs
module Fsops = Lfs_workload.Fsops

type tier = { fast_pct : int; promote_reads : int }
type shard = { shards : int; policy : Shard_router.policy }
type recipe = { heads : int; tier : tier option; shard : shard option }
type t = Ffs | Lfs of recipe

let default_fast_pct = 25
let default_shards = 4

let grammar_doc =
  "ffs | (lfs | shard[:N][:by_hash|by_subtree])[:heads=N]\
   [:tier[:FAST%][:promote=N]] (e.g. lfs:heads=2, lfs:tier:25:promote=2, \
   shard:4:by_subtree, shard:2:heads=2:tier)"

let parse s =
  let usage = Printf.sprintf "bad fs spec %S; grammar: %s" s grammar_doc in
  let count = function
    | n :: rest when int_of_string_opt n <> None -> (Some (int_of_string n), rest)
    | rest -> (None, rest)
  in
  let keyed key tok =
    match String.split_on_char '=' tok with
    | [ k; n ] when k = key -> int_of_string_opt n
    | _ -> None
  in
  (* Options apply left to right; [promote=N] is held until the end so
     it may sit anywhere after the base. *)
  let rec options r promote = function
    | [] -> (
        match (promote, r.tier) with
        | None, _ -> Ok r
        | Some _, None -> Error (usage ^ " (promote= needs tier)")
        | Some promote_reads, Some t ->
            Ok { r with tier = Some { t with promote_reads } })
    | "tier" :: rest ->
        let pct, rest = count rest in
        let fast_pct = Option.value pct ~default:default_fast_pct in
        if fast_pct < 1 || fast_pct > 99 then
          Error (Printf.sprintf "tier fast%% %d out of [1, 99]" fast_pct)
        else
          let tier = Some { fast_pct; promote_reads = 0 } in
          options { r with tier } promote rest
    | tok :: rest -> (
        match
          (Shard_router.policy_of_string tok, r.shard, keyed "heads" tok,
           keyed "promote" tok)
        with
        | Some policy, Some sh, _, _ ->
            options { r with shard = Some { sh with policy } } promote rest
        | _, _, Some n, _ when n < 1 || n > 8 ->
            Error (Printf.sprintf "log heads %d outside 1..8" n)
        | _, _, Some heads, _ -> options { r with heads } promote rest
        | _, _, _, Some n when n >= 0 -> options r (Some n) rest
        | _ -> Error usage)
  in
  let plain = { heads = 1; tier = None; shard = None } in
  match String.split_on_char ':' s with
  | [ "ffs" ] -> Ok Ffs
  | "lfs" :: rest -> Result.map (fun r -> Lfs r) (options plain None rest)
  | "shard" :: rest ->
      let n, rest = count rest in
      let shards = Option.value n ~default:default_shards in
      if shards < 1 then Error (Printf.sprintf "shard count %d < 1" shards)
      else
        let shard = Some { shards; policy = Shard_router.By_hash } in
        Result.map (fun r -> Lfs r) (options { plain with shard } None rest)
  | _ -> Error usage

let of_string s =
  match parse s with Ok t -> t | Error e -> invalid_arg ("Spec.of_string: " ^ e)

let to_string = function
  | Ffs -> "ffs"
  | Lfs r ->
      let base =
        match r.shard with
        | None -> [ "lfs" ]
        | Some s ->
            [ "shard"; string_of_int s.shards; Shard_router.policy_name s.policy ]
      in
      let heads = if r.heads = 1 then [] else [ Printf.sprintf "heads=%d" r.heads ] in
      let tier =
        match r.tier with
        | None -> []
        | Some { fast_pct; promote_reads = 0 } -> [ "tier"; string_of_int fast_pct ]
        | Some t ->
            let promote = Printf.sprintf "promote=%d" t.promote_reads in
            [ "tier"; string_of_int t.fast_pct; promote ]
      in
      String.concat ":" (base @ heads @ tier)

let with_shards n = function
  | Lfs ({ shard = Some s; _ } as r) ->
      Lfs { r with shard = Some { s with shards = n } }
  | spec -> spec

(* ------------------------------------------------------------------ *)
(* One LFS member: a single disk, or a fast + slow tiered pair         *)
(* ------------------------------------------------------------------ *)

let configure base r =
  let promote_reads = match r.tier with Some t -> t.promote_reads | None -> 0 in
  { base with Config.log_heads = r.heads; promote_reads }

(* Solve the mutual dependence between the FS layout and the tier
   geometry: the layout's metadata reservation ([seg_start]) depends on
   the volume size, and the volume the tier exports depends on where the
   pinned prefix ends ([base] = [seg_start], so chunks line up with
   segments 1:1).  [seg_start] moves by a block only when the exported
   size crosses a usage-table boundary — hundreds of segments — so the
   iteration settles in one or two rounds; the bound is a corruption
   guard, not a tuning knob. *)
let tier_base ~config ~fast ~slow =
  let chunk_blocks = config.Config.seg_blocks in
  let exported base =
    (Vdev_tier.plan ~base ~chunk_blocks ~fast ~slow).Vdev_tier.p_nblocks
  in
  let seg_start_of blocks =
    (Layout.compute config ~disk_blocks:blocks).Layout.seg_start
  in
  let rec fix base i =
    if i > 16 then failwith "Spec: tier geometry failed to converge";
    let base' = seg_start_of (exported base) in
    if base' = base then base else fix base' (i + 1)
  in
  fix (seg_start_of (fast.Vdev.nblocks + slow.Vdev.nblocks)) 0

let tier_volume ~config ~fast ~slow =
  let base = tier_base ~config ~fast ~slow in
  Vdev_tier.format ~base ~chunk_blocks:config.Config.seg_blocks ~fast ~slow

let member_ndevices r = if r.tier = None then 1 else 2

let member_error devs =
  invalid_arg
    (Printf.sprintf "Spec: an LFS member takes 1 device (2 when tiered), got %d"
       (List.length devs))

(* Format a member; returns the device to mount and its tier handle. *)
let format_member config devs =
  let vol =
    match devs with
    | [ dev ] -> (dev, None)
    | [ fast; slow ] ->
        let ti = tier_volume ~config ~fast ~slow in
        (Vdev_tier.vdev ti, Some ti)
    | devs -> member_error devs
  in
  Fs.format (fst vol) config;
  vol

(* Reopen a formatted member from its devices (the tier map reloads
   from the fast child). *)
let open_member = function
  | [ dev ] -> (dev, None)
  | [ fast; slow ] ->
      let ti = Vdev_tier.load ~fast ~slow in
      (Vdev_tier.vdev ti, Some ti)
  | devs -> member_error devs

(* A sharded volume's device list, split into per-member groups. *)
let rec groups n = function
  | [] -> []
  | devs ->
      List.filteri (fun i _ -> i < n) devs
      :: groups n (List.filteri (fun i _ -> i >= n) devs)

(* ------------------------------------------------------------------ *)
(* Fresh volumes for the serving tools                                 *)
(* ------------------------------------------------------------------ *)

(* The default config needs clean_stop + 2 per write head (10 with one
   head) segments of 256 blocks after the superblock/checkpoint
   metadata; round up generously so a shard always has working room
   even when N divides a small volume. *)
let min_shard_blocks = 16 * Config.default.Config.seg_blocks

let name r =
  let base =
    match r.shard with
    | Some s -> Printf.sprintf "LFS x%d" s.shards
    | None -> if r.tier = None then "Sprite LFS" else "LFS tier"
  in
  let details =
    (match r.shard with Some s -> [ Shard_router.policy_name s.policy ] | None -> [])
    @ (if r.heads > 1 then [ Printf.sprintf "%d heads" r.heads ] else [])
    @ match r.tier with
      | Some t -> [ Printf.sprintf "%d%% fast" t.fast_pct ]
      | None -> []
  in
  if details = [] then base
  else Printf.sprintf "%s (%s)" base (String.concat ", " details)

(* A member's devices totalling [blocks]: one Wren IV, or [fast_pct]% on
   a flash-class device and the rest on Wren IV — the timing asymmetry
   the placement policy trades on. *)
let member_devices r ~blocks =
  let dev geometry = Vdev.of_disk (Disk.create geometry) in
  match r.tier with
  | None -> [ dev (Geometry.wren_iv ~blocks) ]
  | Some t ->
      let sb = Config.default.Config.seg_blocks in
      let fast_blocks = max (6 * sb) (blocks * t.fast_pct / 100) in
      let slow_blocks = max (8 * sb) (blocks - fast_blocks) in
      [
        dev (Geometry.flash ~blocks:fast_blocks);
        dev (Geometry.wren_iv ~blocks:slow_blocks);
      ]

let fresh ~blocks = function
  | Ffs -> Fsops.fresh_ffs (Geometry.wren_iv ~blocks)
  | Lfs r -> (
      let config = configure Config.default r in
      let name = name r in
      match r.shard with
      | None ->
          let dev, tier = format_member config (member_devices r ~blocks) in
          { (Fsops.of_lfs (Fs.mount ?tier dev)) with name }
      | Some s ->
          (* Equal split of the volume's capacity, floored so tiny
             volumes still mount: shard counts compare at (roughly) equal
             total capacity. *)
          let per = max min_shard_blocks (blocks / s.shards) in
          let members =
            List.init s.shards (fun _ ->
                let dev, tier = format_member config (member_devices r ~blocks:per) in
                fun metrics -> Fs.mount ~metrics ?tier dev)
          in
          let router = Shard_router.mount ~policy:s.policy members in
          let module Of_router = Fsops.Make (Shard_router) in
          {
            (Of_router.make ~name ~async_writes:true router) with
            metrics = (fun () -> Some (Shard_router.metrics router));
            on_log_batch = Some (Shard_router.on_log_batch router);
            clean_step =
              Some (fun ~max_segments -> Shard_router.clean_step ~max_segments router);
          })

(* ------------------------------------------------------------------ *)
(* Crash-harness subjects                                              *)
(* ------------------------------------------------------------------ *)

module type SUBJECT = sig
  include Lfs_core.Fs_intf.DURABLE

  val subject_name : string
  val async_writes : bool
  val ndevices : int
  val fsck_errors : t -> string list
  val idle : t -> bool
end

(* Small configurations keep segments and write buffers tight so even a
   short workload crosses many flush and checkpoint boundaries — the
   interesting crash points.  The background watermarks sit above any
   subject's segment count, so an idle step cleans whenever a victim
   qualifies, and the pool's headroom leaves most such passes
   uncheckpointed. *)
let small_config =
  {
    Config.default with
    max_inodes = 512;
    seg_blocks = 32;
    write_buffer_blocks = 16;
    clean_start = 3;
    clean_stop = 6;
    segs_per_pass = 3;
    bg_clean_start = 1000;
    bg_clean_stop = 1001;
    cache_blocks = 128;
  }

let small_ffs_config =
  {
    Ffs.default_config with
    cg_blocks = 256;
    inodes_per_cg = 128;
    write_buffer_blocks = 16;
    cache_blocks = 64;
  }

let single = function [ d ] -> d | devs -> member_error devs

let subject spec : (module SUBJECT) =
  let subject_name = to_string spec in
  match spec with
  | Ffs ->
      (module struct
        include Ffs

        let subject_name = subject_name
        let async_writes = false
        let ndevices = 1
        let format devs = Ffs.format (single devs) small_ffs_config
        let mount devs = Ffs.mount (single devs)

        (* FFS has no roll-forward; post-crash "recovery" is a plain
           mount, and it draws no checkpoint/sync distinction either. *)
        let recover = mount
        let checkpoint = Ffs.sync
        let fsck_errors _ = []
        let idle _ = false
      end)
  | Lfs r -> (
      (* A tight demotion age makes short tiered workloads migrate, and
         every sync runs one demotion step first (a no-op on untiered
         members) so the sweep enumerates cuts mid-demotion. *)
      let member_config = configure small_config r in
      let member_config =
        if r.tier = None then member_config
        else { member_config with Config.demote_age_s = 4.0 }
      in
      let per_member = member_ndevices r in
      let mount_member ?metrics devs =
        let dev, tier = open_member devs in
        Fs.mount ?metrics ?tier dev
      in
      let recover_member ?metrics devs =
        let dev, tier = open_member devs in
        Fs.recover ?metrics ?tier dev
      in
      let demote fs = ignore (Fs.demote_step ~max_segments:1 fs) in
      let fsck fs = (Fsck.check fs).Fsck.errors in
      (* An idle step is the recipe's [clean_step ~max_segments:1]; it
         ran a pass when some member's background pass count moved. *)
      let bg_passes fs =
        Lfs_obs.Metrics.float_value (Fs.metrics fs) "fs.cleaner.bg.passes"
      in
      match r.shard with
      | None ->
          (module struct
            include Fs

            let subject_name = subject_name
            let async_writes = true
            let ndevices = per_member
            let format devs = ignore (format_member member_config devs)
            let mount devs = mount_member devs
            let recover devs = fst (recover_member devs)

            let sync fs =
              demote fs;
              Fs.sync fs

            let fsck_errors = fsck

            let idle fs =
              let before = bg_passes fs in
              ignore (Fs.clean_step ~max_segments:1 fs : int);
              bg_passes fs <> before
          end)
      | Some s ->
          (* Device [i * per_member] starts shard [i]'s group, so device
             0 — the one the harnesses fault — is shard 0's (fast) disk
             and the other shards must keep their durable state. *)
          (module struct
            include Shard_router

            let subject_name = subject_name
            let async_writes = true
            let ndevices = s.shards * per_member
            let members devs = groups per_member devs

            let format devs =
              List.iter
                (fun g -> ignore (format_member member_config g))
                (members devs)

            let mount devs =
              Shard_router.mount ~policy:s.policy
                (List.map (fun g m -> mount_member ~metrics:m g) (members devs))

            let recover devs =
              let open_shard g m = recover_member ~metrics:m g in
              fst
                (Shard_router.recover ~policy:s.policy
                   (List.map open_shard (members devs)))

            let each t f = List.init (shard_count t) (fun i -> f i (shard_fs t i))

            let sync t =
              ignore (each t (fun _ fs -> demote fs));
              Shard_router.sync t

            let fsck_errors t =
              List.concat
                (each t (fun i fs ->
                     List.map (Printf.sprintf "shard%d: %s" i) (fsck fs)))

            let idle t =
              let before = each t (fun _ fs -> bg_passes fs) in
              ignore (Shard_router.clean_step ~max_segments:1 t : int);
              each t (fun _ fs -> bg_passes fs) <> before
          end))
