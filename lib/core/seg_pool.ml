module Vdev_tier = Lfs_disk.Vdev_tier

type t = {
  tier : Vdev_tier.t option;
  mutable free : int list;  (* ascending *)
  mutable len : int;
  victims : (int, unit) Hashtbl.t;
}

let create tier = { tier; free = []; len = 0; victims = Hashtbl.create 16 }
let length t = t.len
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
