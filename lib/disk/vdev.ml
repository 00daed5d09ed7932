type mode = Io_queue.mode = Direct | Queued of (unit -> float)
type cut = Disk.cut = Prefix | Nothing | Subset of int

type t = {
  name : string;
  block_size : int;
  nblocks : int;
  read_blocks : int -> int -> bytes;
  write_blocks : int -> bytes -> unit;
  zero_blocks : int -> int -> unit;
  submit_read : ?now:float -> int -> int -> Io_queue.ticket * bytes;
  submit_read_into : ?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket;
  submit_write : ?now:float -> int -> bytes -> Io_queue.ticket;
  submit_write_from : ?now:float -> int -> int -> bytes -> pos:int -> Io_queue.ticket;
  drain : unit -> float;
  pump : now:float -> (int * float) list;
  outstanding_in : lo:int -> hi:int -> int;
  set_mode : mode -> unit;
  get_mode : unit -> mode;
  stats : unit -> Io_stats.t;
  plan_crash : after_blocks:int -> cut:cut -> unit;
  is_crashed : unit -> bool;
  reboot : unit -> unit;
}

exception Crashed = Disk.Crashed

let alloc_submit_read ~block_size read_into ?now addr n =
  let b = Bytes.create (n * block_size) in
  (read_into ?now addr n b ~pos:0, b)

let alloc_read_blocks ~block_size read_into addr n =
  snd (alloc_submit_read ~block_size read_into addr n)

let whole_submit_write ~block_size write_from ?now addr b =
  let len = Bytes.length b in
  if len mod block_size <> 0 then
    invalid_arg
      (Printf.sprintf "Vdev.write_blocks: %d bytes is not a whole number of %d-byte blocks"
         len block_size);
  write_from ?now addr (len / block_size) b ~pos:0

let whole_write_blocks ~block_size write_from addr b =
  ignore (whole_submit_write ~block_size write_from addr b : Io_queue.ticket)

let of_disk d =
  let block_size = Disk.block_size d in
  let read_into ?now addr n buf ~pos = Disk.submit_read_into ?now d addr n buf ~pos in
  let write_from ?now addr n buf ~pos = Disk.submit_write_from ?now d addr n buf ~pos in
  {
    name = "disk";
    block_size;
    nblocks = Disk.nblocks d;
    read_blocks = alloc_read_blocks ~block_size read_into;
    write_blocks = whole_write_blocks ~block_size write_from;
    zero_blocks = (fun addr n -> Disk.zero_blocks d addr n);
    submit_read = alloc_submit_read ~block_size read_into;
    submit_read_into = read_into;
    submit_write = whole_submit_write ~block_size write_from;
    submit_write_from = write_from;
    drain = (fun () -> Disk.drain d);
    pump = (fun ~now -> Disk.pump d ~now);
    outstanding_in = (fun ~lo ~hi -> Disk.outstanding_in d ~lo ~hi);
    set_mode = (fun m -> Disk.set_mode d m);
    get_mode = (fun () -> Disk.get_mode d);
    stats = (fun () -> Disk.stats d);
    plan_crash = (fun ~after_blocks ~cut -> Disk.plan_crash ~cut d ~after_blocks);
    is_crashed = (fun () -> Disk.is_crashed d);
    reboot = (fun () -> Disk.reboot d);
  }

let block_size v = v.block_size
let nblocks v = v.nblocks

(* A compositor returning the wrong amount of data corrupts everything
   downstream; fail loudly at the boundary instead. *)
let check_read_len v n b =
  if Bytes.length b <> n * v.block_size then
    invalid_arg
      (Printf.sprintf
         "Vdev.read_blocks(%s): %d blocks came back as %d bytes, want %d"
         v.name n (Bytes.length b) (n * v.block_size))

let read_blocks v addr n =
  let b = v.read_blocks addr n in
  check_read_len v n b;
  b

let write_blocks v addr b = v.write_blocks addr b
let zero_blocks v addr n = v.zero_blocks addr n

let submit_read ?now v addr n =
  let tk, b = v.submit_read ?now addr n in
  check_read_len v n b;
  (tk, b)

let submit_read_into ?now v addr n buf ~pos =
  if n < 0 || pos < 0 || pos + (n * v.block_size) > Bytes.length buf then
    invalid_arg
      (Printf.sprintf
         "Vdev.submit_read_into(%s): %d blocks at byte %d of a %d-byte buffer"
         v.name n pos (Bytes.length buf));
  v.submit_read_into ?now addr n buf ~pos

let submit_write ?now v addr b = v.submit_write ?now addr b

let submit_write_from ?now v addr n buf ~pos =
  if n < 0 || pos < 0 || pos + (n * v.block_size) > Bytes.length buf then
    invalid_arg
      (Printf.sprintf
         "Vdev.submit_write_from(%s): %d blocks at byte %d of a %d-byte buffer"
         v.name n pos (Bytes.length buf));
  v.submit_write_from ?now addr n buf ~pos

let await = Io_queue.await
let drain v = v.drain ()
let pump v ~now = v.pump ~now
let outstanding_in v ~lo ~hi = v.outstanding_in ~lo ~hi
let set_mode v m = v.set_mode m
let get_mode v = v.get_mode ()
let next_tag = Io_queue.next_tag
let stats v = v.stats ()
let plan_crash ?(cut = Prefix) v ~after_blocks = v.plan_crash ~after_blocks ~cut
let is_crashed v = v.is_crashed ()
let reboot v = v.reboot ()

let read_block v addr = read_blocks v addr 1

let register_metrics ?prefix metrics v =
  let module M = Lfs_obs.Metrics in
  let p = match prefix with Some p -> p | None -> "vdev." ^ v.name in
  let g name f = M.gauge_fn metrics (p ^ "." ^ name) f in
  let gi name field = g name (fun () -> float_of_int (field (stats v))) in
  gi "reads" (fun s -> s.Io_stats.reads);
  gi "writes" (fun s -> s.Io_stats.writes);
  gi "blocks_read" (fun s -> s.Io_stats.blocks_read);
  gi "blocks_written" (fun s -> s.Io_stats.blocks_written);
  gi "seeks" (fun s -> s.Io_stats.seeks);
  g "busy_s" (fun () -> (stats v).Io_stats.busy_s);
  g "queue_wait_s" (fun () -> (stats v).Io_stats.queue_wait_s);
  gi "max_queue_depth" (fun s -> s.Io_stats.max_queue_depth)

let write_block v addr b =
  if Bytes.length b <> v.block_size then
    invalid_arg
      (Printf.sprintf "Vdev.write_block(%s): %d bytes, block size %d" v.name
         (Bytes.length b) v.block_size);
  v.write_blocks addr b
