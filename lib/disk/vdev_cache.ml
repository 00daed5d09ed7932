type t = {
  lower : Vdev.t;
  cache : Block_cache.t;
  view : Vdev.t;
  fetch_block : Block_cache.fetch;  (* [with_block]'s: tickets dropped *)
}

(* Misses read through the lower device straight into the caller's or
   the cache's buffer. *)
let fetch ?now lower tickets addr n buf pos =
  tickets := Vdev.submit_read_into ?now lower addr n buf ~pos :: !tickets

(* Cache hits complete at submit time (a [Done] ticket); misses forward
   to the lower device and join its tickets. *)
let read_into ?fill ?now lower cache addr n buf ~pos =
  if Vdev.is_crashed lower then raise Vdev.Crashed;
  let tickets = ref [] in
  Block_cache.read_range_into ?fill cache ~fetch:(fetch ?now lower tickets) addr n buf ~pos;
  match !tickets with [] -> Io_queue.Done | ts -> Io_queue.Join ts

(* Invalidate first: if the write below is torn, nothing stale survives
   in the cache.  Then enter the written blocks [keep] selects. *)
let write_from ?now ~keep lower cache addr n buf ~pos =
  Block_cache.invalidate_range cache addr n;
  let tk = Vdev.submit_write_from ?now lower addr n buf ~pos in
  let bs = Vdev.block_size lower in
  for i = 0 to n - 1 do
    if keep i then Block_cache.put cache (addr + i) ~pos:(pos + (i * bs)) buf
  done;
  tk

let make_view lower cache name =
  let bs = Vdev.block_size lower in
  let read_into ?now addr n buf ~pos = read_into ?now lower cache addr n buf ~pos in
  let write_from ?now addr n buf ~pos =
    write_from ?now ~keep:(fun _ -> true) lower cache addr n buf ~pos
  in
  let zero_blocks addr n =
    Block_cache.invalidate_range cache addr n;
    Vdev.zero_blocks lower addr n
  in
  {
    lower with
    Vdev.name;
    read_blocks = Vdev.alloc_read_blocks ~block_size:bs read_into;
    write_blocks = Vdev.whole_write_blocks ~block_size:bs write_from;
    zero_blocks;
    submit_read = Vdev.alloc_submit_read ~block_size:bs read_into;
    submit_read_into = read_into;
    submit_write = Vdev.whole_submit_write ~block_size:bs write_from;
    submit_write_from = write_from;
  }

let create ?(name = "cache") ~capacity lower =
  let cache = Block_cache.create ~capacity ~block_size:(Vdev.block_size lower) in
  let fetch_block addr n buf pos =
    ignore (Vdev.submit_read_into lower addr n buf ~pos : Io_queue.ticket)
  in
  { lower; cache; view = make_view lower cache name; fetch_block }

let vdev t = t.view

let with_block t addr f =
  if Vdev.is_crashed t.lower then raise Vdev.Crashed;
  Block_cache.with_block t.cache ~fetch:t.fetch_block addr f

let submit_read_no_fill ?now t addr n buf ~pos =
  read_into ~fill:false ?now t.lower t.cache addr n buf ~pos

let submit_write_from ?now t ~keep addr n buf ~pos =
  write_from ?now ~keep t.lower t.cache addr n buf ~pos

let peek t addr f = Block_cache.peek t.cache addr f
let invalidate t addr = Block_cache.invalidate t.cache addr
let mem t addr = Block_cache.mem t.cache addr
let resident t = Block_cache.length t.cache
let hits t = Block_cache.hits t.cache
let misses t = Block_cache.misses t.cache

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then Float.nan else float_of_int h /. float_of_int (h + m)

let clear t = Block_cache.clear t.cache

let register_metrics ?prefix metrics t =
  let module M = Lfs_obs.Metrics in
  let p = match prefix with Some p -> p | None -> "vdev." ^ t.view.Vdev.name in
  let g name f = M.gauge_fn metrics (p ^ "." ^ name) f in
  g "hits" (fun () -> float_of_int (hits t));
  g "misses" (fun () -> float_of_int (misses t));
  g "hit_rate" (fun () -> hit_rate t);
  g "resident" (fun () -> float_of_int (resident t))
