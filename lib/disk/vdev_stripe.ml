type t = {
  children : Vdev.t array;
  block_size : int;
  nblocks : int;
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
   parallelism pays under queued IO. *)
let submit_read ?now t addr n =
  check_range t addr n "read_blocks";
  let bs = t.block_size and nch = Array.length t.children in
  let out = Bytes.create (n * bs) in
  let tickets = ref [] in
  iter_extents t addr n (fun ~child ~caddr ~first ~count ->
      let tk, buf = Vdev.submit_read ?now t.children.(child) caddr count in
      tickets := tk :: !tickets;
      for i = 0 to count - 1 do
        Bytes.blit buf (i * bs) out ((first + (i * nch) - addr) * bs) bs
      done);
  (Io_queue.Join !tickets, out)

let submit_write ?now t addr b =
  let bs = t.block_size and nch = Array.length t.children in
  if Bytes.length b mod bs <> 0 then
    invalid_arg "Vdev_stripe.write_blocks: buffer is not a whole number of blocks";
  let n = Bytes.length b / bs in
  check_range t addr n "write_blocks";
  let tickets = ref [] in
  iter_extents t addr n (fun ~child ~caddr ~first ~count ->
      let buf = Bytes.create (count * bs) in
      for i = 0 to count - 1 do
        Bytes.blit b ((first + (i * nch) - addr) * bs) buf (i * bs) bs
      done;
      tickets := Vdev.submit_write ?now t.children.(child) caddr buf :: !tickets);
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
  let t = { children; block_size; nblocks = nch * per_child } in
  let name =
    match name with Some n -> n | None -> Printf.sprintf "stripe(%d)" nch
  in
  {
    Vdev.name;
    block_size;
    nblocks = t.nblocks;
    read_blocks = (fun addr n -> snd (submit_read t addr n));
    write_blocks = (fun addr b -> ignore (submit_write t addr b));
    zero_blocks = (fun addr n -> zero_blocks t addr n);
    submit_read = (fun ?now addr n -> submit_read ?now t addr n);
    submit_write = (fun ?now addr b -> submit_write ?now t addr b);
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
      (fun ~after_blocks:_ ->
        invalid_arg
          (Printf.sprintf "%s: arm power cuts on a child device, not the stripe"
             name));
    is_crashed = (fun () -> Array.exists Vdev.is_crashed t.children);
    reboot = (fun () -> Array.iter Vdev.reboot t.children);
  }
