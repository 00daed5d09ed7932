module Prng = Lfs_util.Prng

type mode = Torn | Dropped | Reordered

let mode_name = function
  | Torn -> "torn"
  | Dropped -> "dropped"
  | Reordered -> "reordered"

type t = {
  lower : Vdev.t;
  prng : Prng.t;
  mutable countdown : int; (* payload blocks until the power cut; -1 = disarmed *)
  mutable mode : mode;
  mutable crashed : bool;
  mutable written : int;
  read_rot : (int, int * int) Hashtbl.t; (* addr -> (byte, xor mask) *)
  write_rot : (int, int * int) Hashtbl.t;
}

let create ?name:(_ = "fault") ?(seed = 0) lower =
  {
    lower;
    prng = Prng.create ~seed;
    countdown = -1;
    mode = Torn;
    crashed = false;
    written = 0;
    read_rot = Hashtbl.create 4;
    write_rot = Hashtbl.create 4;
  }

let check_alive t = if t.crashed then raise Vdev.Crashed

let plan_crash t ?(mode = Torn) ~after_blocks () =
  if after_blocks < 0 then invalid_arg "Vdev_fault.plan_crash";
  t.countdown <- after_blocks;
  t.mode <- mode

let is_crashed t = t.crashed || t.lower.Vdev.is_crashed ()

let reboot t =
  t.crashed <- false;
  t.countdown <- -1;
  t.lower.Vdev.reboot ()

let blocks_written t = t.written

let rot_byte t =
  let byte = Prng.int t.prng t.lower.Vdev.block_size in
  let mask = 1 + Prng.int t.prng 255 in
  (byte, mask)

let rot_read t ~addr = Hashtbl.replace t.read_rot addr (rot_byte t)
let rot_write t ~addr = Hashtbl.replace t.write_rot addr (rot_byte t)

let flip b off (byte, mask) =
  Bytes.set b (off + byte) (Char.chr (Char.code (Bytes.get b (off + byte)) lxor mask))

let submit_read_into ?now t addr n buf ~pos =
  check_alive t;
  let bs = t.lower.Vdev.block_size in
  let tk = Vdev.submit_read_into ?now t.lower addr n buf ~pos in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt t.read_rot (addr + i) with
    | Some rot -> flip buf (pos + (i * bs)) rot
    | None -> ()
  done;
  tk

(* Write blocks [first, first+count) of the transfer, which starts at
   byte [pos] of [b], individually so a reordered subset costs the same
   interface calls either way. *)
let submit_sub ?now lower bs addr b ~pos ~first ~count tickets =
  if count > 0 then
    tickets :=
      Vdev.submit_write_from ?now lower (addr + first) count b
        ~pos:(pos + (first * bs))
      :: !tickets

(* With a Direct lower stack, crash points are decided here at submit
   time, by counting payload blocks in submission order — the historical
   behaviour, deterministic by construction.  With a Queued lower stack
   the elevator retires writes in C-LOOK order, not submission order, so
   a submit-time countdown would tear a block the device had already
   retired: the countdown is handed down to the leaf device, which burns
   it at commit and tears the write the power cut actually interrupts —
   a prefix of it, or under [Reordered] a subset drawn from a seed this
   layer picks. *)
let lower_is_queued t =
  match t.lower.Vdev.get_mode () with
  | Io_queue.Queued _ -> true
  | Io_queue.Direct -> false

let submit_write_from ?now t addr n b ~pos =
  check_alive t;
  if t.countdown >= 0 && lower_is_queued t then begin
    let scatter =
      match t.mode with
      | Reordered -> Some (Prng.int t.prng 0x3fff_ffff)
      | Torn | Dropped -> None
    in
    t.lower.Vdev.plan_crash ~after_blocks:t.countdown ~scatter;
    t.countdown <- -1
  end;
  let bs = t.lower.Vdev.block_size in
  if n <= 0 then
    invalid_arg (Printf.sprintf "Vdev_fault.write_blocks: %d blocks" n);
  let b, pos =
    (* Apply write-rot on a copy; the caller's buffer stays pristine. *)
    let rec rotted i =
      if i >= n then (b, pos)
      else
        match Hashtbl.find_opt t.write_rot (addr + i) with
        | Some rot ->
            let c = Bytes.sub b pos (n * bs) in
            for j = i to n - 1 do
              match Hashtbl.find_opt t.write_rot (addr + j) with
              | Some rot' ->
                  flip c (j * bs) (if j = i then rot else rot');
                  Hashtbl.remove t.write_rot (addr + j)
              | None -> ()
            done;
            (c, 0)
        | None -> rotted (i + 1)
    in
    rotted 0
  in
  let tickets = ref [] in
  if t.countdown >= 0 && n >= t.countdown then begin
    (* This write triggers the power cut. *)
    let keep = t.countdown in
    (match t.mode with
    | Torn -> submit_sub ?now t.lower bs addr b ~pos ~first:0 ~count:keep tickets
    | Dropped -> ()
    | Reordered ->
        (* Persist [keep] of the [n] blocks, chosen uniformly: the disk
           scheduled the sectors freely and power failed part-way. *)
        let order = Array.init n (fun i -> i) in
        Prng.shuffle t.prng order;
        for k = 0 to keep - 1 do
          submit_sub ?now t.lower bs addr b ~pos ~first:order.(k) ~count:1 tickets
        done);
    t.written <- t.written + keep;
    t.countdown <- -1;
    t.crashed <- true;
    raise Vdev.Crashed
  end
  else begin
    if t.countdown >= 0 then t.countdown <- t.countdown - n;
    tickets := [ Vdev.submit_write_from ?now t.lower addr n b ~pos ];
    t.written <- t.written + n
  end;
  Io_queue.Join !tickets

let vdev t =
  let block_size = t.lower.Vdev.block_size in
  let read_into ?now addr n buf ~pos = submit_read_into ?now t addr n buf ~pos in
  let write_from ?now addr n buf ~pos = submit_write_from ?now t addr n buf ~pos in
  {
    t.lower with
    Vdev.name = Printf.sprintf "fault(%s)" t.lower.Vdev.name;
    read_blocks = Vdev.alloc_read_blocks ~block_size read_into;
    write_blocks = Vdev.whole_write_blocks ~block_size write_from;
    zero_blocks =
      (fun addr n ->
        (* mkfs path: charged and crash-checked by the layers below, but
           exempt from this layer's payload countdown so crash-point
           enumeration (payload writes only) stays stable. *)
        check_alive t;
        t.lower.Vdev.zero_blocks addr n);
    submit_read = Vdev.alloc_submit_read ~block_size read_into;
    submit_read_into = read_into;
    submit_write = Vdev.whole_submit_write ~block_size write_from;
    submit_write_from = write_from;
    plan_crash =
      (fun ~after_blocks ~scatter:_ -> plan_crash t ~mode:Torn ~after_blocks ());
    is_crashed = (fun () -> is_crashed t);
    reboot = (fun () -> reboot t);
  }
