type mode = Io_queue.mode = Direct | Queued of (unit -> float)

type t = {
  name : string;
  block_size : int;
  nblocks : int;
  read_blocks : int -> int -> bytes;
  write_blocks : int -> bytes -> unit;
  zero_blocks : int -> int -> unit;
  submit_read : ?now:float -> int -> int -> Io_queue.ticket * bytes;
  submit_write : ?now:float -> int -> bytes -> Io_queue.ticket;
  drain : unit -> float;
  pump : now:float -> (int * float) list;
  outstanding_in : lo:int -> hi:int -> int;
  set_mode : mode -> unit;
  get_mode : unit -> mode;
  stats : unit -> Io_stats.t;
  plan_crash : after_blocks:int -> unit;
  is_crashed : unit -> bool;
  reboot : unit -> unit;
}

exception Crashed = Disk.Crashed

let of_disk d =
  {
    name = "disk";
    block_size = Disk.block_size d;
    nblocks = Disk.nblocks d;
    read_blocks = (fun addr n -> Disk.read_blocks d addr n);
    write_blocks = (fun addr b -> Disk.write_blocks d addr b);
    zero_blocks = (fun addr n -> Disk.zero_blocks d addr n);
    submit_read = (fun ?now addr n -> Disk.submit_read ?now d addr n);
    submit_write = (fun ?now addr b -> Disk.submit_write ?now d addr b);
    drain = (fun () -> Disk.drain d);
    pump = (fun ~now -> Disk.pump d ~now);
    outstanding_in = (fun ~lo ~hi -> Disk.outstanding_in d ~lo ~hi);
    set_mode = (fun m -> Disk.set_mode d m);
    get_mode = (fun () -> Disk.get_mode d);
    stats = (fun () -> Disk.stats d);
    plan_crash = (fun ~after_blocks -> Disk.plan_crash d ~after_blocks);
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

let submit_write ?now v addr b = v.submit_write ?now addr b
let await = Io_queue.await
let drain v = v.drain ()
let pump v ~now = v.pump ~now
let outstanding_in v ~lo ~hi = v.outstanding_in ~lo ~hi
let set_mode v m = v.set_mode m
let get_mode v = v.get_mode ()
let next_tag = Io_queue.next_tag
let stats v = v.stats ()
let plan_crash v ~after_blocks = v.plan_crash ~after_blocks
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
