(* Exact LRU: an intrusive doubly-linked list threaded through the
   entries plus a hash table for lookup.  Every entry's buffer belongs to
   the cache: blocks are copied in, and copied or blitted out.  A buffer
   whose entry leaves (eviction, invalidation) goes to a free list of at
   most [capacity] buffers, and the next new entry reuses it, so a warm
   cache fills without allocating. *)

type node = {
  addr : int;
  mutable data : bytes;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  block_size : int;
  table : (int, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  free : bytes array;  (* [free.(0 .. nfree - 1)] are unused buffers *)
  mutable nfree : int;
}

let create ~capacity ~block_size =
  {
    capacity;
    block_size;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    free = Array.make (max 0 capacity) Bytes.empty;
    nfree = 0;
  }

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

(* Give [n]'s buffer back: nothing may read [n.data] afterwards.  A node
   that already gave it back (see the defect in [read_range]) has none. *)
let release t n =
  if n.data != Bytes.empty && t.nfree < t.capacity then begin
    t.free.(t.nfree) <- n.data;
    t.nfree <- t.nfree + 1
  end;
  n.data <- Bytes.empty

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.addr;
      release t n

let fresh_buffer t =
  if t.nfree = 0 then Bytes.create t.block_size
  else begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end

(* Take a copy of the block at [pos] of [src] as the contents of
   [addr]. *)
let put t addr ?(pos = 0) src =
  if t.capacity > 0 then begin
    match Hashtbl.find_opt t.table addr with
    | Some n ->
        Bytes.blit src pos n.data 0 t.block_size;
        touch t n
    | None ->
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        let data = fresh_buffer t in
        Bytes.blit src pos data 0 t.block_size;
        let n = { addr; data; prev = None; next = None } in
        Hashtbl.replace t.table addr n;
        push_front t n
  end

let read t ~fetch addr =
  match Hashtbl.find_opt t.table addr with
  | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Bytes.copy n.data
  | None ->
      t.misses <- t.misses + 1;
      let b = fetch addr in
      put t addr b;
      b

let invalidate t addr =
  match Hashtbl.find_opt t.table addr with
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table addr;
      release t n
  | None -> ()

let invalidate_range t addr n =
  for a = addr to addr + n - 1 do
    invalidate t a
  done

let read_range t ~fetch addr n =
  let bs = t.block_size in
  (* [lo, hi) is a maximal run of missing blocks: fetch it with one call
     below so a cold multi-block read still costs a single device IO.
     Each fetched block is copied once, into the cache. *)
  let fetch_run lo hi =
    let count = hi - lo in
    t.misses <- t.misses + count;
    let b = fetch (addr + lo) count in
    for k = lo to hi - 1 do
      put t (addr + k) ~pos:((k - lo) * bs) b
    done;
    b
  in
  let rec first_hit i =
    if i < n && not (Hashtbl.mem t.table (addr + i)) then first_hit (i + 1)
    else i
  in
  let first = first_hit 0 in
  if n = 0 then Bytes.empty
  else if first = n then
    (* One missed run: the fetched buffer is the result. *)
    fetch_run 0 n
  else begin
    let out = Bytes.create (n * bs) in
    let fill lo hi =
      if hi > lo then Bytes.blit (fetch_run lo hi) 0 out (lo * bs) ((hi - lo) * bs)
    in
    let run = ref 0 in
    for i = first to n - 1 do
      match Hashtbl.find_opt t.table (addr + i) with
      | Some node ->
          (* Copy the hit out before the fill: the fill may evict [node]
             and hand its buffer to a block it loads.  Known defect, kept
             for identical results: when the fill evicts [node], the
             [touch] below relinks a node the table no longer holds, the
             LRU list loses every other entry, and the table outgrows
             [capacity] from then on. *)
          Bytes.blit node.data 0 out (i * bs) bs;
          fill !run i;
          run := i + 1;
          t.hits <- t.hits + 1;
          touch t node
      | None -> ()
    done;
    fill !run n;
    out
  end

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
