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

let submit_read ?now t addr n =
  check_alive t;
  let bs = t.lower.Vdev.block_size in
  let tk, b = Vdev.submit_read ?now t.lower addr n in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt t.read_rot (addr + i) with
    | Some rot -> flip b (i * bs) rot
    | None -> ()
  done;
  (tk, b)

(* Write blocks [first, first+count) of the transfer individually so a
   reordered subset costs the same interface calls either way. *)
let submit_sub ?now lower bs addr b ~first ~count tickets =
  if count > 0 then
    tickets :=
      Vdev.submit_write ?now lower (addr + first)
        (Bytes.sub b (first * bs) (count * bs))
      :: !tickets

(* With a Direct lower stack, crash points are decided here at submit
   time, by counting payload blocks in submission order — the historical
   behaviour, deterministic by construction.  With a Queued lower stack
   the elevator retires writes in C-LOOK order, not submission order, so
   a submit-time countdown would tear a block the device had already
   retired: the countdown is handed down to the leaf device, which burns
   it at commit and tears the write the power cut actually interrupts. *)
let lower_is_queued t =
  match t.lower.Vdev.get_mode () with
  | Io_queue.Queued _ -> true
  | Io_queue.Direct -> false

let submit_write ?now t addr b =
  check_alive t;
  if t.countdown >= 0 && lower_is_queued t then begin
    t.lower.Vdev.plan_crash ~after_blocks:t.countdown;
    t.countdown <- -1
  end;
  let bs = t.lower.Vdev.block_size in
  let len = Bytes.length b in
  if len = 0 || len mod bs <> 0 then
    invalid_arg (Printf.sprintf "Vdev_fault.write_blocks: %d bytes" len);
  let n = len / bs in
  let b =
    (* Apply write-rot on a copy; the caller's buffer stays pristine. *)
    let rec rotted i =
      if i >= n then b
      else
        match Hashtbl.find_opt t.write_rot (addr + i) with
        | Some rot ->
            let c = Bytes.copy b in
            for j = i to n - 1 do
              match Hashtbl.find_opt t.write_rot (addr + j) with
              | Some rot' ->
                  flip c (j * bs) (if j = i then rot else rot');
                  Hashtbl.remove t.write_rot (addr + j)
              | None -> ()
            done;
            c
        | None -> rotted (i + 1)
    in
    rotted 0
  in
  let tickets = ref [] in
  if t.countdown >= 0 && n >= t.countdown then begin
    (* This write triggers the power cut. *)
    let keep = t.countdown in
    (match t.mode with
    | Torn -> submit_sub ?now t.lower bs addr b ~first:0 ~count:keep tickets
    | Dropped -> ()
    | Reordered ->
        (* Persist [keep] of the [n] blocks, chosen uniformly: the disk
           scheduled the sectors freely and power failed part-way. *)
        let order = Array.init n (fun i -> i) in
        Prng.shuffle t.prng order;
        for k = 0 to keep - 1 do
          submit_sub ?now t.lower bs addr b ~first:order.(k) ~count:1 tickets
        done);
    t.written <- t.written + keep;
    t.countdown <- -1;
    t.crashed <- true;
    raise Vdev.Crashed
  end
  else begin
    if t.countdown >= 0 then t.countdown <- t.countdown - n;
    tickets := [ Vdev.submit_write ?now t.lower addr b ];
    t.written <- t.written + n
  end;
  Io_queue.Join !tickets

let vdev t =
  {
    t.lower with
    Vdev.name = Printf.sprintf "fault(%s)" t.lower.Vdev.name;
    read_blocks = (fun addr n -> snd (submit_read t addr n));
    write_blocks = (fun addr b -> ignore (submit_write t addr b));
    zero_blocks =
      (fun addr n ->
        (* mkfs path: charged and crash-checked by the layers below, but
           exempt from this layer's payload countdown so crash-point
           enumeration (payload writes only) stays stable. *)
        check_alive t;
        t.lower.Vdev.zero_blocks addr n);
    submit_read = (fun ?now addr n -> submit_read ?now t addr n);
    submit_write = (fun ?now addr b -> submit_write ?now t addr b);
    plan_crash = (fun ~after_blocks -> plan_crash t ~mode:Torn ~after_blocks ());
    is_crashed = (fun () -> is_crashed t);
    reboot = (fun () -> reboot t);
  }
