(* Per-device request queue in the modelled-time domain.

   The data plane (moving bytes, crash countdowns, cache coherence) runs
   at submit time in submission order; this queue only decides *when* the
   device is modelled to finish each transfer.  Requests are tagged with
   a globally monotonic id, ordered for service by a C-LOOK elevator, and
   serviced one at a time: service start = max(previous completion,
   submit time), so queued requests overlap their wait with the device's
   current transfer instead of summing serially. *)

type req = {
  tag : int;
  addr : int;
  nblocks : int;
  submit_s : float;
  on_commit : (unit -> unit) option;
      (* data-plane action deferred to service time (queued writes) *)
}

(* The elevator's order: address, then tag.  Tags are globally
   monotonic, so within one queue tag order is submission order. *)
module By_pos = Map.Make (struct
  type t = int * int

  let compare (a, x) (b, y) = if a <> b then Int.compare a b else Int.compare x y
end)

module By_tag = Map.Make (Int)

type mode = Direct | Queued of (unit -> float)

type t = {
  service : head:int -> addr:int -> nblocks:int -> float * bool;
      (* modelled duration of one transfer and whether it repositioned *)
  stats : Io_stats.t;
  mutable mode : mode;
  mutable head : int;  (* block index just past the previous transfer *)
  mutable horizon : float;  (* completion time of the last serviced request *)
  mutable by_pos : req By_pos.t;  (* outstanding, in elevator order *)
  mutable by_tag : req By_tag.t;  (* the same requests, by tag *)
  mutable depth : int;
  mutable started : (int * float) list;
      (* Queued-mode services committed since the last [pump], newest
         first: (tag, finish) *)
}

type ticket = Done | Tag of t * int | Join of ticket list

(* One id space across every queue in a stack: a contiguous range of
   tags identifies "all leaf IO submitted between two points in time",
   which is how the serving engine tracks per-request completion. *)
let tag_counter = ref 0
let next_tag () = !tag_counter

let create ~service ~stats =
  {
    service;
    stats;
    mode = Direct;
    head = -1;
    horizon = 0.0;
    by_pos = By_pos.empty;
    by_tag = By_tag.empty;
    depth = 0;
    started = [];
  }

let mode t = t.mode
let set_mode t m = t.mode <- m
let head t = t.head
let set_head t h = t.head <- h
let horizon t = t.horizon
let set_horizon t h = t.horizon <- h
let depth t = t.depth

let reset t =
  t.by_pos <- By_pos.empty;
  t.by_tag <- By_tag.empty;
  t.depth <- 0;
  t.started <- []

let submit ?on_commit t ~now ~addr ~nblocks =
  let tag = !tag_counter in
  incr tag_counter;
  let r = { tag; addr; nblocks; submit_s = now; on_commit } in
  t.by_pos <- By_pos.add (addr, tag) r t.by_pos;
  t.by_tag <- By_tag.add tag r t.by_tag;
  t.depth <- t.depth + 1;
  if t.depth > t.stats.Io_stats.max_queue_depth then
    t.stats.Io_stats.max_queue_depth <- t.depth;
  tag

(* C-LOOK: the next outstanding request at or beyond the head, lowest
   address first (ties break by submission order); when nothing lies
   ahead, sweep back to the lowest address. *)
let pick t =
  match By_pos.find_first_opt (fun (addr, _) -> addr >= t.head) t.by_pos with
  | Some (_, r) -> Some r
  | None -> Option.map snd (By_pos.min_binding_opt t.by_pos)

let commit t r =
  t.by_pos <- By_pos.remove (r.addr, r.tag) t.by_pos;
  t.by_tag <- By_tag.remove r.tag t.by_tag;
  t.depth <- t.depth - 1;
  let start = Float.max t.horizon r.submit_s in
  let dur, seeked = t.service ~head:t.head ~addr:r.addr ~nblocks:r.nblocks in
  if seeked then t.stats.Io_stats.seeks <- t.stats.Io_stats.seeks + 1;
  t.stats.Io_stats.busy_s <- t.stats.Io_stats.busy_s +. dur;
  t.stats.Io_stats.queue_wait_s <-
    t.stats.Io_stats.queue_wait_s +. (start -. r.submit_s);
  t.head <- r.addr + r.nblocks;
  t.horizon <- start +. dur;
  (* Only a Queued device is pumped; a Direct one would hoard its
     completions for the life of the device. *)
  (match t.mode with
  | Queued _ -> t.started <- (r.tag, t.horizon) :: t.started
  | Direct -> ());
  (* Deferred data plane last: a crash countdown tripping here must not
     leave the request half-accounted in the time plane. *)
  match r.on_commit with None -> () | Some f -> f ()

let service_next t =
  match pick t with
  | None -> false
  | Some r ->
      commit t r;
      true

(* Service (in elevator order) until [tag] is no longer outstanding.
   Returns the queue horizon, an upper bound on the tag's completion
   time that is exact when the awaited tag was serviced last. *)
let await_tag t tag =
  while By_tag.mem tag t.by_tag do
    ignore (service_next t)
  done;
  t.horizon

let rec await = function
  | Done -> neg_infinity
  | Tag (q, tag) -> await_tag q tag
  | Join ts -> List.fold_left (fun acc tk -> Float.max acc (await tk)) neg_infinity ts

let drain t =
  while t.depth > 0 do
    ignore (service_next t)
  done;
  t.horizon

(* Event-driven servicing: once the horizon has passed, commit the
   elevator's next pick, and hand back every service committed since the
   last pump (including ones forced by [await]/[drain]) so the caller
   can schedule completion events. *)
let pump t ~now =
  if t.depth > 0 && t.horizon <= now then ignore (service_next t);
  let out = List.rev t.started in
  t.started <- [];
  out

let outstanding_in t ~lo ~hi =
  let rec count n s =
    match s () with
    | Seq.Cons ((tag, _), rest) when tag < hi -> count (n + 1) rest
    | Seq.Cons _ | Seq.Nil -> n
  in
  count 0 (By_tag.to_seq_from lo t.by_tag)

let rec completed = function
  | Done -> true
  | Tag (q, tag) -> outstanding_in q ~lo:tag ~hi:(tag + 1) = 0
  | Join ts -> List.for_all completed ts
