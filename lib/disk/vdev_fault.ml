module Prng = Lfs_util.Prng

type mode = Torn | Dropped | Reordered

let mode_name = function
  | Torn -> "torn"
  | Dropped -> "dropped"
  | Reordered -> "reordered"

type t = {
  lower : Vdev.t;
  prng : Prng.t;
  mutable written : int;
  read_rot : (int, int * int) Hashtbl.t; (* addr -> (byte, xor mask) *)
  write_rot : (int, int * int) Hashtbl.t;
}

let create ?(seed = 0) lower =
  {
    lower;
    prng = Prng.create ~seed;
    written = 0;
    read_rot = Hashtbl.create 4;
    write_rot = Hashtbl.create 4;
  }

(* The leaf device applies the cut; this layer only picks it.  A
   reordered cut's seed comes from this layer's seed, so the subset
   replays exactly. *)
let plan_crash t ?(mode = Torn) ~after_blocks () =
  let cut =
    match mode with
    | Torn -> Vdev.Prefix
    | Dropped -> Vdev.Nothing
    | Reordered -> Vdev.Subset (Prng.int t.prng 0x3fff_ffff)
  in
  Vdev.plan_crash ~cut t.lower ~after_blocks

let reboot t = Vdev.reboot t.lower
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
  let bs = t.lower.Vdev.block_size in
  let tk = Vdev.submit_read_into ?now t.lower addr n buf ~pos in
  for i = 0 to n - 1 do
    match Hashtbl.find_opt t.read_rot (addr + i) with
    | Some rot -> flip buf (pos + (i * bs)) rot
    | None -> ()
  done;
  tk

let submit_write_from ?now t addr n b ~pos =
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
  let tk = Vdev.submit_write_from ?now t.lower addr n b ~pos in
  t.written <- t.written + n;
  tk

let vdev t =
  let block_size = t.lower.Vdev.block_size in
  let read_into ?now addr n buf ~pos = submit_read_into ?now t addr n buf ~pos in
  let write_from ?now addr n buf ~pos = submit_write_from ?now t addr n buf ~pos in
  {
    t.lower with
    Vdev.name = Printf.sprintf "fault(%s)" t.lower.Vdev.name;
    read_blocks = Vdev.alloc_read_blocks ~block_size read_into;
    write_blocks = Vdev.whole_write_blocks ~block_size write_from;
    submit_read = Vdev.alloc_submit_read ~block_size read_into;
    submit_read_into = read_into;
    submit_write = Vdev.whole_submit_write ~block_size write_from;
    submit_write_from = write_from;
    zero_blocks =
      (fun addr n ->
        t.lower.Vdev.zero_blocks addr n;
        t.written <- t.written + n);
  }
