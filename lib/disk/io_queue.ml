(* Per-device request queue in the modelled-time domain.

   The data plane (moving bytes, crash countdowns, cache coherence) runs
   at submit time in submission order; this queue only decides *when* the
   device is modelled to finish each transfer.  Requests are tagged with
   a globally monotonic id, ordered for service by a C-LOOK elevator, and
   serviced one at a time: service start = max(previous completion,
   submit time), so queued requests overlap their wait with the device's
   current transfer instead of summing serially.

   Two service classes share the device.  Foreground requests are served
   whole.  A background read (a read submitted under [background] on a
   Queued device) waits until no foreground request is outstanding and
   is then served in slices, so a foreground arrival waits at most one
   slice. *)

(* The device time of the requests submitted in one [metered] scope. *)
type meter = {
  mutable busy : float;  (* served so far *)
  mutable left : int;  (* submitted and not yet retired *)
  mutable closed : bool;  (* the scope has returned *)
  on_done : float -> unit;
}

type req = {
  tag : int;
  addr : int;
  nblocks : int;
  on_commit : (unit -> unit) option;
      (* data-plane action deferred to service time (queued writes) *)
  background : bool;
  meter : meter option;
  mutable next : int;  (* first block not yet served *)
  mutable ready_s : float;
      (* earliest start of its next service: the submit time, then the
         end of each slice *)
}

(* The elevator's order: position, then tag.  Tags are globally
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
  transfer : nblocks:int -> float;  (* the media-transfer part alone *)
  stats : Io_stats.t;
  mutable mode : mode;
  mutable head : int;  (* block index just past the previous transfer *)
  mutable horizon : float;  (* completion time of the last serviced request *)
  mutable fg : req By_pos.t;  (* outstanding foreground, by position *)
  mutable bg : req By_pos.t;
      (* outstanding background reads, by the position of their next slice *)
  mutable by_tag : req By_tag.t;  (* every outstanding request, by tag *)
  mutable depth : int;
  mutable started : (int * float) list;
      (* Queued-mode services committed since the last [pump], newest
         first: (tag, finish) *)
  mutable last : int;  (* tag of the last service, -1 for none *)
}

type ticket = Done | Tag of t * int | Join of ticket list

(* One id space across every queue in a stack: a contiguous range of
   tags identifies "all leaf IO submitted between two points in time",
   which is how the serving engine tracks per-request completion. *)
let tag_counter = ref 0
let next_tag () = !tag_counter

(* Whether reads submitted now take the background class: a scope, like
   the tag counter, shared by every queue in a stack. *)
let background_scope = ref false

let background f =
  let outer = !background_scope in
  background_scope := true;
  Fun.protect ~finally:(fun () -> background_scope := outer) f

let reads_background = function
  | Queued _ -> !background_scope
  | Direct -> false

(* The innermost [metered] scope, shared by every queue like the tag
   counter. *)
let meter_scope = ref None

(* A meter reports once its scope has returned and its last request
   has retired. *)
let settle m = if m.closed && m.left = 0 then m.on_done m.busy

let metered on_done f =
  let m = { busy = 0.0; left = 0; closed = false; on_done } in
  let outer = !meter_scope in
  meter_scope := Some m;
  let x = Fun.protect ~finally:(fun () -> meter_scope := outer) f in
  m.closed <- true;
  settle m;
  x

(* The longest piece of a background read served at once: 128 KB, about
   100 ms of transfer on the Wren IV, so a foreground request arriving
   behind it waits at most that long, while a read that nothing
   interrupts still moves at full bandwidth. *)
let slice_blocks = 32

let create ~service ~transfer ~stats =
  {
    service;
    transfer;
    stats;
    mode = Direct;
    head = -1;
    horizon = 0.0;
    fg = By_pos.empty;
    bg = By_pos.empty;
    by_tag = By_tag.empty;
    depth = 0;
    started = [];
    last = -1;
  }

let mode t = t.mode
let set_mode t m = t.mode <- m
let head t = t.head
let set_head t h = t.head <- h
let horizon t = t.horizon
let set_horizon t h = t.horizon <- h
let depth t = t.depth

let reset t =
  t.fg <- By_pos.empty;
  t.bg <- By_pos.empty;
  t.by_tag <- By_tag.empty;
  t.depth <- 0;
  t.started <- [];
  t.last <- -1

(* Only reads are demoted, and only on a Queued device: the log's
   writes keep their elevator order (see the interface), and a Direct
   device services every request at submit time anyway. *)
let submit ?on_commit ?(read = false) t ~now ~addr ~nblocks =
  let tag = !tag_counter in
  incr tag_counter;
  let background = read && reads_background t.mode in
  let meter = !meter_scope in
  Option.iter (fun m -> m.left <- m.left + 1) meter;
  let r =
    { tag; addr; nblocks; on_commit; background; meter; next = addr; ready_s = now }
  in
  if background then t.bg <- By_pos.add (addr, tag) r t.bg
  else t.fg <- By_pos.add (addr, tag) r t.fg;
  t.by_tag <- By_tag.add tag r t.by_tag;
  t.depth <- t.depth + 1;
  if t.depth > t.stats.Io_stats.max_queue_depth then
    t.stats.Io_stats.max_queue_depth <- t.depth;
  tag

(* C-LOOK: the next outstanding request at or beyond the head, lowest
   address first (ties break by submission order); when nothing lies
   ahead, sweep back to the lowest address.  Background reads go only
   when no foreground request is outstanding. *)
let pick t =
  let clook m =
    match By_pos.find_first_opt (fun (pos, _) -> pos >= t.head) m with
    | Some (_, r) -> Some r
    | None -> Option.map snd (By_pos.min_binding_opt m)
  in
  if By_pos.is_empty t.fg then clook t.bg else clook t.fg

let record t tag =
  (* Only a Queued device is pumped; a Direct one would hoard its
     completions for the life of the device. *)
  match t.mode with
  | Queued _ -> t.started <- (tag, t.horizon) :: t.started
  | Direct -> ()

let retire t r =
  t.by_tag <- By_tag.remove r.tag t.by_tag;
  t.depth <- t.depth - 1;
  Option.iter
    (fun m ->
      m.left <- m.left - 1;
      settle m)
    r.meter;
  (* Deferred data plane last: a crash countdown tripping here must not
     leave the request half-accounted in the time plane. *)
  match r.on_commit with None -> () | Some f -> f ()

(* Serve [n] blocks of [r] from its next unserved one.  A piece that
   continues the request the device served last (the next slice of a
   background read, the head already in place) extends that transfer
   and pays only its own blocks' transfer time; any other pays a whole
   service: reposition, transfer and per-IO overhead. *)
let serve t r n =
  let start = Float.max t.horizon r.ready_s in
  let dur =
    if t.last = r.tag then t.transfer ~nblocks:n
    else begin
      let dur, seeked = t.service ~head:t.head ~addr:r.next ~nblocks:n in
      if seeked then t.stats.Io_stats.seeks <- t.stats.Io_stats.seeks + 1;
      dur
    end
  in
  t.stats.Io_stats.busy_s <- t.stats.Io_stats.busy_s +. dur;
  Option.iter (fun m -> m.busy <- m.busy +. dur) r.meter;
  t.stats.Io_stats.queue_wait_s <-
    t.stats.Io_stats.queue_wait_s +. (start -. r.ready_s);
  t.last <- r.tag;
  r.next <- r.next + n;
  r.ready_s <- start +. dur;
  t.head <- r.next;
  t.horizon <- start +. dur;
  record t r.tag

let commit t r =
  t.fg <- By_pos.remove (r.addr, r.tag) t.fg;
  serve t r r.nblocks;
  retire t r

(* One slice of a background read; the rest goes back in the elevator
   at the position of its next block. *)
let commit_slice t r =
  t.bg <- By_pos.remove (r.next, r.tag) t.bg;
  serve t r (min slice_blocks (r.addr + r.nblocks - r.next));
  if r.next < r.addr + r.nblocks then t.bg <- By_pos.add (r.next, r.tag) r t.bg
  else retire t r

let service_next t =
  match pick t with
  | None -> false
  | Some r ->
      if r.background then commit_slice t r else commit t r;
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
   elevator's next pick (a whole foreground request or one background
   slice), and hand back every service committed since the last pump
   (including ones forced by [await]/[drain]) so the caller can
   schedule completion events. *)
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
