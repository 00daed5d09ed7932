module Vdev_tier = Lfs_disk.Vdev_tier

type t = {
  tier : Vdev_tier.t option;
  mutable free : int list;  (* ascending *)
  mutable len : int;
  victims : (int, unit) Hashtbl.t;
}

let create tier = { tier; free = []; len = 0; victims = Hashtbl.create 16 }
let length t = t.len
let segments t = t.free
let is_victim t s = Hashtbl.mem t.victims s
let pinned t ~active s = List.mem s active || is_victim t s

let set t free =
  t.free <- free;
  t.len <- List.length free

let refresh t usage ~active =
  set t
    (List.filter
       (fun s -> not (pinned t ~active s))
       (Seg_usage.clean_segments usage))

let withhold t drop = set t (List.filter (fun s -> not (drop s)) t.free)

let pick t ~exclude =
  let rec pop ~want acc = function
    | [] -> None
    | s :: rest ->
        if pinned t ~active:exclude s || not (want s) then pop ~want (s :: acc) rest
        else begin
          t.free <- List.rev_append acc rest;
          t.len <- t.len - 1;
          Some s
        end
  in
  let any _ = true in
  let picked =
    match t.tier with
    | None -> pop ~want:any [] t.free
    | Some ti -> (
        (* Keep the write head on the fast tier: prefer a clean segment
           already placed there; otherwise take any and re-point it at a
           free fast chunk without copying (its contents are dead) —
           which also recycles the slow chunk into demotion capacity.
           With no free fast chunk the log simply writes to the slow
           tier; correct, and the next demotion pass frees fast space. *)
        let on_fast s = Vdev_tier.chunk_tier ti s = Vdev_tier.Fast in
        match pop ~want:on_fast [] t.free with
        | Some s -> Some s
        | None -> (
            match pop ~want:any [] t.free with
            | None -> None
            | Some s ->
                ignore (Vdev_tier.rehome ti ~chunk:s ~target:Vdev_tier.Fast);
                Some s))
  in
  match picked with
  | Some s -> s
  | None ->
      Types.fs_error "log is out of clean segments (disk full or checkpoint-starved)"

let donors t ~active tier =
  match t.tier with
  | None -> []
  | Some ti ->
      List.filter
        (fun s -> (not (pinned t ~active s)) && Vdev_tier.chunk_tier ti s = tier)
        t.free

let room t ~active tier =
  match t.tier with
  | None -> 0
  | Some ti -> Vdev_tier.free_chunks ti ~tier + List.length (donors t ~active tier)

let move t ~active ~reserve seg ~target =
  match t.tier with
  | None -> false
  | Some ti -> (
      if Vdev_tier.free_chunks ti ~tier:target > 0 then
        Vdev_tier.migrate ti ~chunk:seg ~target
      else
        match donors t ~active target with
        | d :: rest when List.length rest >= reserve ->
            Vdev_tier.swap ti ~chunk:seg ~dead:d
        | _ -> false)

let cleaning t victims f =
  List.iter (fun s -> Hashtbl.replace t.victims s ()) victims;
  Fun.protect ~finally:(fun () -> Hashtbl.reset t.victims) f

(* {1 The space budget} *)

(* Each field is documented in the interface. *)
type budget = {
  flush_need : int; head_extra : int; reserve : int;
  fg_start : int; fg_stop : int; bg_start : int; bg_stop : int;
  greedy_below : int; checkpoint_below : int; restock_gap : int;
}

let budget (c : Config.t) (l : Layout.t) =
  (* One buffer flush can consume several segments before the cleaner
     gets another chance to run — in the worst case every buffered block
     belongs to a different large file and drags two indirect-block
     rewrites and an inode with it — so the trigger must leave that much
     headroom regardless of the configured threshold. *)
  let flush_need =
    ((3 * c.Config.write_buffer_blocks) + l.Layout.seg_blocks - 1)
    / l.Layout.seg_blocks
  in
  (* Each write head beyond the first pins one extra clean segment as
     its standing reservation; those count as "clean" in the usage table
     but can never be handed out, so the watermarks must sit above them. *)
  let head_extra = c.Config.log_heads - 1 in
  let reserve = flush_need + 2 + head_extra in
  let fg_start = max (c.Config.clean_start + head_extra) reserve in
  (* The background watermarks sit strictly above the foreground
     trigger. *)
  let bg_start = max c.Config.bg_clean_start (fg_start + 1) in
  { flush_need; head_extra; reserve; fg_start; bg_start;
    fg_stop = max (c.Config.clean_stop + head_extra) (fg_start + 2);
    bg_stop = max c.Config.bg_clean_stop (bg_start + 2);
    greedy_below = flush_need;
    checkpoint_below = fg_start + flush_need;
    (* A checkpoint's refresh always excludes every head's current and
       reserved segment, so a smaller gap would recover nothing. *)
    restock_gap = 2 * c.Config.log_heads }

(* Relocation writes into clean segments before any victim is freed, so
   a pass is bounded by what the pool can absorb, keeping one segment of
   slack for the checkpoint and 30% headroom for the inode and indirect
   blocks rewritten alongside the relocated data. *)
let relocation_cost u = (u *. 1.3) +. 0.05
let pass_budget t = Float.max 0.7 (float_of_int (t.len - 1))

let affordable t usage victims =
  let keep (spent, kept) s =
    let cost = relocation_cost (Seg_usage.utilization usage s) in
    if spent +. cost <= pass_budget t then (spent +. cost, s :: kept)
    else (spent, kept)
  in
  List.rev (snd (List.fold_left keep (0.0, []) victims))
