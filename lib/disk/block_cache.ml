(* Exact LRU: an intrusive doubly-linked list threaded through the
   entries plus a hash table for lookup.  Every entry's buffer belongs to
   the cache: blocks are copied or fetched in, and blitted out or lent
   to a [with_block] callback.  A buffer whose entry leaves (eviction,
   invalidation) goes back to a pool of at most [capacity] buffers, and
   the next new entry reuses it, so a warm cache fills without
   allocating.  While a buffer is lent, [borrowed] is set and every
   operation raises: any of them could evict the lent entry and hand its
   buffer to another block. *)

(* Block addresses hash to themselves: no generic [caml_hash] or
   polymorphic compare on the lookup path.  The table is never iterated,
   so its bucket order cannot show. *)
module Addr_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (a : int) = a
end)

type node = {
  addr : int;
  data : bytes;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  block_size : int;
  table : node Addr_table.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  bufs : Lfs_util.Buf_pool.t;  (* the buffers of departed entries *)
  mutable borrowed : bool;
}

type fetch = int -> int -> bytes -> int -> unit

let create ~capacity ~block_size =
  {
    capacity;
    block_size;
    table = Addr_table.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    bufs = Lfs_util.Buf_pool.create ~bound:capacity block_size;
    borrowed = false;
  }

let check_free t =
  if t.borrowed then invalid_arg "Block_cache: used while a block is borrowed"

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | Some _ | None ->
      unlink t n;
      push_front t n

(* Drop entry [n] and give its buffer back: nothing may read [n.data]
   afterwards. *)
let drop t n =
  unlink t n;
  Addr_table.remove t.table n.addr;
  Lfs_util.Buf_pool.give t.bufs n.data

let evict_lru t = match t.tail with Some n -> drop t n | None -> ()

(* Enter [data] as the contents of [addr], which the table lacks,
   evicting the LRU entry first when the cache is full. *)
let insert t addr data =
  if Addr_table.length t.table >= t.capacity then evict_lru t;
  let n = { addr; data; prev = None; next = None } in
  Addr_table.replace t.table addr n;
  push_front t n

(* Take a copy of the block at [pos] of [src] as the contents of
   [addr], which the table lacks. *)
let store t addr ~pos src =
  if t.capacity > 0 then begin
    let data = Lfs_util.Buf_pool.take t.bufs in
    Bytes.blit src pos data 0 t.block_size;
    insert t addr data
  end

let put t addr ?(pos = 0) src =
  check_free t;
  if Addr_table.mem t.table addr then
    invalid_arg "Block_cache.put: block resident (invalidate it first)";
  store t addr ~pos src

(* Lend [b] to [f]: no operation may run until [f] returns. *)
let lend t b f =
  t.borrowed <- true;
  match f b with
  | r ->
      t.borrowed <- false;
      r
  | exception e ->
      t.borrowed <- false;
      raise e

let with_block t ~fetch addr f =
  check_free t;
  match Addr_table.find_opt t.table addr with
  | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      lend t n.data f
  | None ->
      t.misses <- t.misses + 1;
      if t.capacity = 0 then begin
        let b = Bytes.create t.block_size in
        fetch addr 1 b 0;
        lend t b f
      end
      else begin
        (* The fetch fills the entry's own buffer; a failed fetch drops
           it and leaves the table as it was. *)
        let data = Lfs_util.Buf_pool.take t.bufs in
        fetch addr 1 data 0;
        insert t addr data;
        lend t data f
      end

let peek t addr f =
  check_free t;
  Option.map (fun n -> lend t n.data f) (Addr_table.find_opt t.table addr)

let invalidate t addr =
  check_free t;
  match Addr_table.find_opt t.table addr with Some n -> drop t n | None -> ()

let invalidate_range t addr n =
  for a = addr to addr + n - 1 do
    invalidate t a
  done

let read_range_into ?(fill = true) t ~fetch addr n buf ~pos =
  check_free t;
  let bs = t.block_size in
  (* [lo, hi) is a maximal run of missing blocks: fetch it with one call
     below, straight into [buf], so a cold multi-block read still costs
     a single device IO.  A filling read copies each fetched block once,
     into the cache. *)
  let fetch_run lo hi =
    if hi > lo then begin
      t.misses <- t.misses + (hi - lo);
      fetch (addr + lo) (hi - lo) buf (pos + (lo * bs));
      if fill then
        for k = lo to hi - 1 do
          store t (addr + k) ~pos:(pos + (k * bs)) buf
        done
    end
  in
  let run = ref 0 in
  for i = 0 to n - 1 do
    match Addr_table.find_opt t.table (addr + i) with
    | Some node ->
        (* Copy the hit out and touch it before the run in front of it
           is fetched: the fill then evicts the hit only as the true LRU
           entry, through [drop], like any other. *)
        Bytes.blit node.data 0 buf (pos + (i * bs)) bs;
        t.hits <- t.hits + 1;
        if fill then touch t node;
        fetch_run !run i;
        run := i + 1
    | None -> ()
  done;
  fetch_run !run n

let mem t addr =
  check_free t;
  Addr_table.mem t.table addr

let clear t =
  check_free t;
  Addr_table.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.hits <- 0;
  t.misses <- 0

let length t = Addr_table.length t.table
let hits t = t.hits
let misses t = t.misses
