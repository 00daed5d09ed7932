module Scratch = Lfs_util.Buf_pool.Scratch

type t = {
  children : Vdev.t array;
  block_size : int;
  nblocks : int;
  scratch : Scratch.t;  (* where a child's strided extent is gathered *)
}

let check_range t addr n what =
  if addr < 0 || n < 0 || addr + n > t.nblocks then
    invalid_arg
      (Printf.sprintf "Vdev_stripe.%s: blocks [%d, %d) out of range [0, %d)"
         what addr (addr + n) t.nblocks)

(* Apply [f] to each child's contiguous extent of the global range
   [addr, addr+n): child [c] owns the global blocks congruent to [c],
   which map to consecutive child blocks starting at [first / nch]. *)
let iter_extents t addr n f =
  let nch = Array.length t.children in
  for c = 0 to nch - 1 do
    let delta = (c - (addr mod nch) + nch) mod nch in
    let first = addr + delta in
    if first < addr + n then
      let count = ((addr + n - 1 - first) / nch) + 1 in
      f ~child:c ~caddr:(first / nch) ~first ~count
  done

(* Fan the read across the children and join their tickets: each child
   queue services its extent independently, so the stripe completes at
   the max child completion instead of the sum — this is where stripe
   parallelism pays under queued IO.  A child's extent is strided in the
   caller's buffer, so it lands in the scratch buffer first. *)
let submit_read_into ?now t addr n buf ~pos =
  check_range t addr n "read_blocks";
  let bs = t.block_size and nch = Array.length t.children in
  let tickets = ref [] in
  iter_extents t addr n (fun ~child ~caddr ~first ~count ->
      let ext = Scratch.take t.scratch (count * bs) in
      let tk = Vdev.submit_read_into ?now t.children.(child) caddr count ext ~pos:0 in
      let at = pos + ((first - addr) * bs) in
      for i = 0 to count - 1 do
        Bytes.blit ext (i * bs) buf (at + (i * nch * bs)) bs
      done;
      Scratch.give t.scratch;
      tickets := tk :: !tickets);
  Io_queue.Join !tickets

(* A child's extent is strided in the caller's buffer: gather it into
   the stripe's scratch buffer.  The child takes its data at submit, so
   the buffer serves every child in turn, and every later write. *)
let submit_write_from ?now t addr n buf ~pos =
  check_range t addr n "write_blocks";
  let bs = t.block_size and nch = Array.length t.children in
  let scratch = Scratch.take t.scratch ((n + nch - 1) / nch * bs) in
  let tickets = ref [] in
  iter_extents t addr n (fun ~child ~caddr ~first ~count ->
      for i = 0 to count - 1 do
        Bytes.blit buf (pos + ((first + (i * nch) - addr) * bs)) scratch (i * bs) bs
      done;
      tickets :=
        Vdev.submit_write_from ?now t.children.(child) caddr count scratch ~pos:0
        :: !tickets);
  Scratch.give t.scratch;
  Io_queue.Join !tickets

let zero_blocks t addr n =
  check_range t addr n "zero_blocks";
  iter_extents t addr n (fun ~child ~caddr ~first:_ ~count ->
      Vdev.zero_blocks t.children.(child) caddr count)

let stats t =
  Array.fold_left
    (fun acc c -> Io_stats.merge acc (Vdev.stats c))
    (Io_stats.create ()) t.children

let create ?name children =
  if Array.length children = 0 then
    invalid_arg "Vdev_stripe.create: no children";
  let block_size = Vdev.block_size children.(0) in
  Array.iter
    (fun c ->
      if Vdev.block_size c <> block_size then
        invalid_arg "Vdev_stripe.create: children disagree on block size")
    children;
  let nch = Array.length children in
  let per_child =
    Array.fold_left (fun m c -> min m (Vdev.nblocks c)) max_int children
  in
  let scratch = Scratch.create () in
  let t = { children; block_size; nblocks = nch * per_child; scratch } in
  let name =
    match name with Some n -> n | None -> Printf.sprintf "stripe(%d)" nch
  in
  let read_into ?now addr n buf ~pos = submit_read_into ?now t addr n buf ~pos in
  let write_from ?now addr n buf ~pos = submit_write_from ?now t addr n buf ~pos in
  {
    Vdev.name;
    block_size;
    nblocks = t.nblocks;
    read_blocks = Vdev.alloc_read_blocks ~block_size read_into;
    write_blocks = Vdev.whole_write_blocks ~block_size write_from;
    zero_blocks = (fun addr n -> zero_blocks t addr n);
    submit_read = Vdev.alloc_submit_read ~block_size read_into;
    submit_read_into = read_into;
    submit_write = Vdev.whole_submit_write ~block_size write_from;
    submit_write_from = write_from;
    drain =
      (fun () ->
        Array.fold_left
          (fun acc c -> Float.max acc (Vdev.drain c))
          neg_infinity t.children);
    pump =
      (fun ~now ->
        Array.fold_left
          (fun acc c -> acc @ Vdev.pump c ~now)
          [] t.children);
    outstanding_in =
      (fun ~lo ~hi ->
        Array.fold_left
          (fun acc c -> acc + Vdev.outstanding_in c ~lo ~hi)
          0 t.children);
    set_mode = (fun m -> Array.iter (fun c -> Vdev.set_mode c m) t.children);
    get_mode = (fun () -> Vdev.get_mode t.children.(0));
    stats = (fun () -> stats t);
    plan_crash =
      (fun ~after_blocks:_ ~cut:_ ->
        invalid_arg
          (Printf.sprintf "%s: arm power cuts on a child device, not the stripe"
             name));
    is_crashed = (fun () -> Array.exists Vdev.is_crashed t.children);
    reboot = (fun () -> Array.iter Vdev.reboot t.children);
  }
