module Codec = Lfs_util.Bytes_codec
module Checksum = Lfs_util.Checksum

type tier = Fast | Slow

let tier_name = function Fast -> "fast" | Slow -> "slow"

(* On-disk layout, all on the FAST child (the slow child is pure chunk
   payload, so a cheap device needs no metadata reservation):

     block 0                  tier superblock (geometry, checksummed)
     [1, 1+map_r)             placement map, region A
     [1+map_r, 1+2*map_r)     placement map, region B
     [map_reserved, +base)    pinned prefix: exported blocks [0, base)
     then fast chunks         fast physical chunks 0..fast_chunks-1

   The map is journalled superblock-style: two generation-stamped,
   checksummed regions written alternately; recovery takes the highest
   valid generation, so a power cut during a map write falls back to the
   previous placement — under which every chunk's old copy is still
   intact, because migration never reuses the source before the new map
   is durable. *)

let magic = 0x4C46_5431 (* "LFT1" *)
let version = 1

type plan = {
  p_base : int;
  p_chunk_blocks : int;
  p_fast_chunks : int;
  p_slow_chunks : int;
  p_nchunks : int;
  p_map_r : int;
  p_map_reserved : int;
  p_nblocks : int;
}

(* Size the map regions from an upper bound on the chunk count so the
   reservation does not itself depend on the final chunk split. *)
let map_region_blocks ~block_size ~fast_blocks ~slow_blocks ~chunk_blocks =
  let bound = (fast_blocks + slow_blocks) / chunk_blocks in
  let bytes = 24 + (4 * bound) in
  (bytes + block_size - 1) / block_size

let plan ~base ~chunk_blocks ~(fast : Vdev.t) ~(slow : Vdev.t) =
  if chunk_blocks <= 0 then invalid_arg "Vdev_tier.plan: chunk_blocks";
  if base < 0 then invalid_arg "Vdev_tier.plan: base";
  if fast.Vdev.block_size <> slow.Vdev.block_size then
    invalid_arg "Vdev_tier.plan: children disagree on block size";
  let bs = fast.Vdev.block_size in
  let map_r =
    map_region_blocks ~block_size:bs ~fast_blocks:fast.Vdev.nblocks
      ~slow_blocks:slow.Vdev.nblocks ~chunk_blocks
  in
  let map_reserved = 1 + (2 * map_r) in
  let fast_chunks = (fast.Vdev.nblocks - map_reserved - base) / chunk_blocks in
  let slow_chunks = slow.Vdev.nblocks / chunk_blocks in
  (* Two physical chunks stay out of the logical space as a floating
     free pool (initially one per tier): migration copies into a free
     chunk, flips the map, and only then releases the source, so there
     is always somewhere to copy to and never a moment without a
     durable copy. *)
  let nchunks = fast_chunks + slow_chunks - 2 in
  if fast_chunks < 2 || slow_chunks < 2 || nchunks < 1 then
    invalid_arg "Vdev_tier.plan: children too small for tiering";
  {
    p_base = base;
    p_chunk_blocks = chunk_blocks;
    p_fast_chunks = fast_chunks;
    p_slow_chunks = slow_chunks;
    p_nchunks = nchunks;
    p_map_r = map_r;
    p_map_reserved = map_reserved;
    p_nblocks = base + (nchunks * chunk_blocks);
  }

type t = {
  fast : Vdev.t;
  slow : Vdev.t;
  block_size : int;
  base : int;
  chunk_blocks : int;
  fast_chunks : int;
  slow_chunks : int;
  nchunks : int;
  map_r : int;
  map_reserved : int;
  nblocks : int;
  map : int array; (* logical chunk -> physical chunk *)
  mutable gen : int64; (* generation of the durable map *)
  mutable free_fast : int list; (* unmapped physical chunks, fast tier *)
  mutable free_slow : int list;
  mutable demotions : int;
  mutable promotions : int;
}

let nchunks t = t.nchunks
let chunk_blocks t = t.chunk_blocks
let base t = t.base
let exported_blocks t = t.nblocks
let demotions t = t.demotions
let promotions t = t.promotions

let phys_tier t phys = if phys < t.fast_chunks then Fast else Slow

let chunk_tier t chunk =
  if chunk < 0 || chunk >= t.nchunks then invalid_arg "Vdev_tier.chunk_tier";
  phys_tier t t.map.(chunk)

let free_chunks t ~tier =
  match tier with
  | Fast -> List.length t.free_fast
  | Slow -> List.length t.free_slow

let count_chunks t ~tier =
  Array.fold_left
    (fun acc phys -> if phys_tier t phys = tier then acc + 1 else acc)
    0 t.map

(* Child address of a physical chunk's first block. *)
let phys_addr t phys =
  if phys < t.fast_chunks then
    (t.fast, t.map_reserved + t.base + (phys * t.chunk_blocks))
  else (t.slow, (phys - t.fast_chunks) * t.chunk_blocks)

let check_range t addr n what =
  if addr < 0 || n < 0 || addr + n > t.nblocks then
    invalid_arg
      (Printf.sprintf "Vdev_tier.%s: blocks [%d, %d) out of range [0, %d)"
         what addr (addr + n) t.nblocks)

(* Apply [f] to each contiguous child extent of the exported range
   [addr, addr+n): the pinned prefix maps 1:1 onto the fast child and
   each chunk lands wherever the placement map currently says. *)
let iter_extents t addr n f =
  let pos = ref addr in
  let stop = addr + n in
  while !pos < stop do
    if !pos < t.base then begin
      let count = min stop t.base - !pos in
      f ~dev:t.fast ~daddr:(t.map_reserved + !pos) ~first:!pos ~count;
      pos := !pos + count
    end
    else begin
      let c = (!pos - t.base) / t.chunk_blocks in
      let off = (!pos - t.base) mod t.chunk_blocks in
      let count = min (stop - !pos) (t.chunk_blocks - off) in
      let dev, cbase = phys_addr t t.map.(c) in
      f ~dev ~daddr:(cbase + off) ~first:!pos ~count;
      pos := !pos + count
    end
  done

let submit_read ?now t addr n =
  check_range t addr n "read_blocks";
  let bs = t.block_size in
  let out = Bytes.create (n * bs) in
  let tickets = ref [] in
  iter_extents t addr n (fun ~dev ~daddr ~first ~count ->
      let tk, buf = Vdev.submit_read ?now dev daddr count in
      tickets := tk :: !tickets;
      Bytes.blit buf 0 out ((first - addr) * bs) (count * bs));
  (Io_queue.Join !tickets, out)

let submit_write ?now t addr b =
  let bs = t.block_size in
  if Bytes.length b mod bs <> 0 then
    invalid_arg "Vdev_tier.write_blocks: buffer is not a whole number of blocks";
  let n = Bytes.length b / bs in
  check_range t addr n "write_blocks";
  let tickets = ref [] in
  iter_extents t addr n (fun ~dev ~daddr ~first ~count ->
      let buf = Bytes.sub b ((first - addr) * bs) (count * bs) in
      tickets := Vdev.submit_write ?now dev daddr buf :: !tickets);
  Io_queue.Join !tickets

let zero_blocks t addr n =
  check_range t addr n "zero_blocks";
  iter_extents t addr n (fun ~dev ~daddr ~first:_ ~count ->
      Vdev.zero_blocks dev daddr count)

(* ------------------------------------------------------------------ *)
(* Persistent placement map                                            *)
(* ------------------------------------------------------------------ *)

let superblock_bytes t =
  let b = Bytes.make t.block_size '\000' in
  let c = Codec.writer b in
  Codec.put_u32 c 0 (* checksum, patched below *);
  Codec.put_u32 c magic;
  Codec.put_u32 c version;
  Codec.put_u32 c t.base;
  Codec.put_u32 c t.chunk_blocks;
  Codec.put_u32 c t.nchunks;
  Codec.put_u32 c t.fast_chunks;
  Codec.put_u32 c t.slow_chunks;
  Codec.put_u32 c t.map_r;
  let ck = Checksum.adler32 ~pos:8 b in
  Codec.put_u32 (Codec.at b 0) (Int32.to_int ck land 0xffff_ffff);
  b

let map_bytes t ~gen =
  let b = Bytes.make (t.map_r * t.block_size) '\000' in
  let c = Codec.writer b in
  Codec.put_u32 c 0 (* checksum, patched below *);
  Codec.put_u32 c 0;
  Codec.put_u64 c gen;
  Codec.put_u32 c t.nchunks;
  Codec.put_u32 c 0;
  Array.iter (fun phys -> Codec.put_u32 c phys) t.map;
  let ck = Checksum.adler32 ~pos:8 b in
  Codec.put_u32 (Codec.at b 0) (Int32.to_int ck land 0xffff_ffff);
  b

let region_addr t gen = if Int64.rem gen 2L = 0L then 1 else 1 + t.map_r

(* Decode one map region; [None] if the checksum or shape is invalid. *)
let decode_map t b =
  if Bytes.length b <> t.map_r * t.block_size then None
  else
    let c = Codec.reader b in
    let stored = Codec.get_u32 c in
    let _pad = Codec.get_u32 c in
    let computed = Int32.to_int (Checksum.adler32 ~pos:8 b) land 0xffff_ffff in
    if stored <> computed then None
    else
      let gen = Codec.get_u64 c in
      let n = Codec.get_u32 c in
      let _pad = Codec.get_u32 c in
      if n <> t.nchunks || gen = 0L then None
      else
        let map = Array.init t.nchunks (fun _ -> Codec.get_u32 c) in
        let total = t.fast_chunks + t.slow_chunks in
        let seen = Array.make total false in
        let ok = ref true in
        Array.iter
          (fun phys ->
            if phys < 0 || phys >= total || seen.(phys) then ok := false
            else seen.(phys) <- true)
          map;
        if !ok then Some (gen, map) else None

(* Rebuild the free pool from the map: every physical chunk not claimed
   by a logical chunk is free in its tier. *)
let rebuild_free t =
  let total = t.fast_chunks + t.slow_chunks in
  let used = Array.make total false in
  Array.iter (fun phys -> used.(phys) <- true) t.map;
  let ff = ref [] and fs = ref [] in
  for phys = total - 1 downto 0 do
    if not used.(phys) then
      if phys < t.fast_chunks then ff := phys :: !ff else fs := phys :: !fs
  done;
  t.free_fast <- !ff;
  t.free_slow <- !fs

let read_map_regions t =
  let a = Vdev.read_blocks t.fast 1 t.map_r in
  let b = Vdev.read_blocks t.fast (1 + t.map_r) t.map_r in
  (decode_map t a, decode_map t b)

(* Load the winning (highest-generation valid) region into [t]. *)
let reload_map t =
  let pick =
    match read_map_regions t with
    | None, None -> failwith "Vdev_tier: no valid placement map region"
    | Some m, None | None, Some m -> m
    | Some (ga, ma), Some (gb, mb) -> if ga >= gb then (ga, ma) else (gb, mb)
  in
  let gen, map = pick in
  t.gen <- gen;
  Array.blit map 0 t.map 0 t.nchunks;
  rebuild_free t

(* Persist the in-memory map at generation [gen+1].  The write is
   awaited before [gen] advances: a region torn by a power cut on the
   fast child fails its checksum on reload and the previous generation
   wins. *)
let write_map ?now t =
  let next = Int64.add t.gen 1L in
  let ticket =
    Vdev.submit_write ?now t.fast (region_addr t next) (map_bytes t ~gen:next)
  in
  ignore (Vdev.await ticket);
  t.gen <- next

(* ------------------------------------------------------------------ *)
(* Migration                                                           *)
(* ------------------------------------------------------------------ *)

let take_free t tier =
  match tier with
  | Fast -> (
      match t.free_fast with
      | [] -> None
      | p :: rest ->
          t.free_fast <- rest;
          Some p)
  | Slow -> (
      match t.free_slow with
      | [] -> None
      | p :: rest ->
          t.free_slow <- rest;
          Some p)

let release t phys =
  match phys_tier t phys with
  | Fast -> t.free_fast <- List.sort compare (phys :: t.free_fast)
  | Slow -> t.free_slow <- List.sort compare (phys :: t.free_slow)

let flip_and_persist ?now t ~chunk ~dst =
  let src = t.map.(chunk) in
  t.map.(chunk) <- dst;
  (try write_map ?now t
   with e ->
     (* Not durable: reboot reloads the old map, but keep the in-memory
        view coherent for callers that catch and carry on. *)
     t.map.(chunk) <- src;
     release t dst;
     raise e);
  release t src

(* Copy chunk [chunk] to a free physical chunk of [target] and flip the
   placement map.  Ordering is the whole point: (1) the copy is awaited
   to completion, (2) the map flip is made durable, (3) only then does
   the source chunk rejoin the free pool.  A crash at any cut leaves a
   durable map whose every entry still points at an intact copy. *)
let migrate ?now t ~chunk ~target =
  if chunk < 0 || chunk >= t.nchunks then invalid_arg "Vdev_tier.migrate";
  if phys_tier t t.map.(chunk) = target then true
  else
    match take_free t target with
    | None -> false
    | Some dst -> (
        try
          let src_dev, src_addr = phys_addr t t.map.(chunk) in
          let rt, data = Vdev.submit_read ?now src_dev src_addr t.chunk_blocks in
          let dst_dev, dst_addr = phys_addr t dst in
          let wt = Vdev.submit_write ?now dst_dev dst_addr data in
          ignore (Vdev.await (Io_queue.Join [ rt; wt ]));
          flip_and_persist ?now t ~chunk ~dst;
          (match target with
          | Slow -> t.demotions <- t.demotions + 1
          | Fast -> t.promotions <- t.promotions + 1);
          true
        with e ->
          (match e with Vdev.Crashed -> () | _ -> release t dst);
          raise e)

(* Exchange the physical chunks of [chunk] (live) and [dead] (a logical
   chunk whose contents are dead — a clean segment).  [chunk]'s bytes
   are copied into [dead]'s physical chunk, then one map write flips
   both entries atomically.  This is how migration scales past the
   two-chunk free pool: any clean segment on the target tier can donate
   its physical chunk, and the donor simultaneously surfaces on the
   source tier as a clean segment for the write head.  [dead] ends up
   holding stale bytes — the rehome hazard class, neutralised by the
   summary self-identification checks.  Same copy-before-flip ordering
   as [migrate]; the single map write keeps the exchange atomic. *)
let swap ?now t ~chunk ~dead =
  if
    chunk < 0 || chunk >= t.nchunks || dead < 0 || dead >= t.nchunks
    || chunk = dead
  then invalid_arg "Vdev_tier.swap";
  let src = t.map.(chunk) and dst = t.map.(dead) in
  if phys_tier t src = phys_tier t dst then false
  else begin
    let src_dev, src_addr = phys_addr t src in
    let rt, data = Vdev.submit_read ?now src_dev src_addr t.chunk_blocks in
    let dst_dev, dst_addr = phys_addr t dst in
    let wt = Vdev.submit_write ?now dst_dev dst_addr data in
    ignore (Vdev.await (Io_queue.Join [ rt; wt ]));
    t.map.(chunk) <- dst;
    t.map.(dead) <- src;
    (try write_map ?now t
     with e ->
       t.map.(chunk) <- src;
       t.map.(dead) <- dst;
       raise e);
    (match phys_tier t dst with
    | Slow -> t.demotions <- t.demotions + 1
    | Fast -> t.promotions <- t.promotions + 1);
    true
  end

(* Reassign [chunk] to a free chunk of [target] WITHOUT copying.  Only
   valid when the chunk's contents are dead (a clean segment about to be
   rewritten from block 0): the freed source still holds stale bytes,
   which is the same hazard class as ordinary segment reuse and is
   neutralised by the summary checksum / sequence checks above. *)
let rehome ?now t ~chunk ~target =
  if chunk < 0 || chunk >= t.nchunks then invalid_arg "Vdev_tier.rehome";
  if phys_tier t t.map.(chunk) = target then true
  else
    match take_free t target with
    | None -> false
    | Some dst -> (
        try
          flip_and_persist ?now t ~chunk ~dst;
          true
        with e ->
          (match e with Vdev.Crashed -> () | _ -> release t dst);
          raise e)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make_t (p : plan) ~(fast : Vdev.t) ~(slow : Vdev.t) =
  {
    fast;
    slow;
    block_size = fast.Vdev.block_size;
    base = p.p_base;
    chunk_blocks = p.p_chunk_blocks;
    fast_chunks = p.p_fast_chunks;
    slow_chunks = p.p_slow_chunks;
    nchunks = p.p_nchunks;
    map_r = p.p_map_r;
    map_reserved = p.p_map_reserved;
    nblocks = p.p_nblocks;
    map = Array.make p.p_nchunks 0;
    gen = 0L;
    free_fast = [];
    free_slow = [];
    demotions = 0;
    promotions = 0;
  }

let format ~base ~chunk_blocks ~fast ~slow =
  let p = plan ~base ~chunk_blocks ~fast ~slow in
  let t = make_t p ~fast ~slow in
  (* Initial placement: the write head's worth of logical chunks on the
     fast tier, the rest on slow, one free physical chunk per tier. *)
  for c = 0 to t.nchunks - 1 do
    t.map.(c) <-
      (if c < t.fast_chunks - 1 then c else t.fast_chunks + (c - (t.fast_chunks - 1)))
  done;
  rebuild_free t;
  Vdev.write_blocks t.fast 0 (superblock_bytes t);
  t.gen <- 0L;
  write_map t;
  t

let load ~(fast : Vdev.t) ~(slow : Vdev.t) =
  if fast.Vdev.block_size <> slow.Vdev.block_size then
    invalid_arg "Vdev_tier.load: children disagree on block size";
  let sb = Vdev.read_block fast 0 in
  let c = Codec.reader sb in
  let stored = Codec.get_u32 c in
  let m = Codec.get_u32 c in
  let computed = Int32.to_int (Checksum.adler32 ~pos:8 sb) land 0xffff_ffff in
  if m <> magic then failwith "Vdev_tier.load: bad magic (not a tiered volume)";
  if stored <> computed then failwith "Vdev_tier.load: superblock checksum";
  let v = Codec.get_u32 c in
  if v <> version then
    failwith (Printf.sprintf "Vdev_tier.load: version %d (want %d)" v version);
  let base = Codec.get_u32 c in
  let chunk_blocks = Codec.get_u32 c in
  let nchunks = Codec.get_u32 c in
  let fast_chunks = Codec.get_u32 c in
  let slow_chunks = Codec.get_u32 c in
  let map_r = Codec.get_u32 c in
  let p = plan ~base ~chunk_blocks ~fast ~slow in
  if
    p.p_fast_chunks <> fast_chunks || p.p_slow_chunks <> slow_chunks
    || p.p_nchunks <> nchunks || p.p_map_r <> map_r
  then failwith "Vdev_tier.load: geometry does not match the children";
  let t = make_t p ~fast ~slow in
  reload_map t;
  t

(* ------------------------------------------------------------------ *)
(* Verification (fsck)                                                 *)
(* ------------------------------------------------------------------ *)

let verify t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (let sb = Vdev.read_block t.fast 0 in
   let c = Codec.reader sb in
   let stored = Codec.get_u32 c in
   let m = Codec.get_u32 c in
   let computed = Int32.to_int (Checksum.adler32 ~pos:8 sb) land 0xffff_ffff in
   if m <> magic then err "tier superblock: bad magic"
   else if stored <> computed then err "tier superblock: bad checksum"
   else begin
     let v = Codec.get_u32 c in
     let base = Codec.get_u32 c in
     let cb = Codec.get_u32 c in
     let nc = Codec.get_u32 c in
     if v <> version || base <> t.base || cb <> t.chunk_blocks || nc <> t.nchunks
     then err "tier superblock: geometry mismatch"
   end);
  (match read_map_regions t with
  | None, None -> err "tier map: no valid region"
  | ra, rb -> (
      let gen, map =
        match (ra, rb) with
        | Some (ga, ma), Some (gb, mb) -> if ga >= gb then (ga, ma) else (gb, mb)
        | Some m, None | None, Some m -> m
        | None, None -> assert false
      in
      if gen <> t.gen then
        err "tier map: durable generation %Ld <> in-memory %Ld" gen t.gen;
      if map <> t.map then err "tier map: durable placement <> in-memory";
      (* decode_map already guarantees range and injectivity; check the
         free pool is exactly the complement, split by tier. *)
      let total = t.fast_chunks + t.slow_chunks in
      let used = Array.make total false in
      Array.iter (fun p -> used.(p) <- true) t.map;
      List.iter
        (fun p ->
          if p < 0 || p >= t.fast_chunks || used.(p) then
            err "tier free pool: bad fast entry %d" p)
        t.free_fast;
      List.iter
        (fun p ->
          if p < t.fast_chunks || p >= total || used.(p) then
            err "tier free pool: bad slow entry %d" p)
        t.free_slow;
      let free = List.length t.free_fast + List.length t.free_slow in
      let unused = ref 0 in
      Array.iter (fun u -> if not u then incr unused) used;
      if free <> !unused then
        err "tier free pool: %d entries, %d unmapped chunks" free !unused));
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* The exported vdev                                                   *)
(* ------------------------------------------------------------------ *)

let stats t = Io_stats.merge (Vdev.stats t.fast) (Vdev.stats t.slow)

let vdev ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "tier(%s+%s)" t.fast.Vdev.name t.slow.Vdev.name
  in
  {
    Vdev.name;
    block_size = t.block_size;
    nblocks = t.nblocks;
    read_blocks = (fun addr n -> snd (submit_read t addr n));
    write_blocks = (fun addr b -> ignore (submit_write t addr b));
    zero_blocks = (fun addr n -> zero_blocks t addr n);
    submit_read = (fun ?now addr n -> submit_read ?now t addr n);
    submit_write = (fun ?now addr b -> submit_write ?now t addr b);
    drain =
      (fun () -> Float.max (Vdev.drain t.fast) (Vdev.drain t.slow));
    pump = (fun ~now -> Vdev.pump t.fast ~now @ Vdev.pump t.slow ~now);
    outstanding_in =
      (fun ~lo ~hi ->
        Vdev.outstanding_in t.fast ~lo ~hi + Vdev.outstanding_in t.slow ~lo ~hi);
    set_mode =
      (fun m ->
        Vdev.set_mode t.fast m;
        Vdev.set_mode t.slow m);
    get_mode = (fun () -> Vdev.get_mode t.fast);
    stats = (fun () -> stats t);
    plan_crash =
      (fun ~after_blocks:_ ->
        invalid_arg
          (Printf.sprintf
             "%s: arm power cuts on the fast or slow child, not the tier" name));
    is_crashed = (fun () -> Vdev.is_crashed t.fast || Vdev.is_crashed t.slow);
    reboot =
      (fun () ->
        Vdev.reboot t.fast;
        Vdev.reboot t.slow;
        reload_map t);
  }

let register_metrics ?(prefix = "tier") m t =
  Vdev.register_metrics ~prefix:(prefix ^ ".fast") m t.fast;
  Vdev.register_metrics ~prefix:(prefix ^ ".slow") m t.slow;
  let g name f = Lfs_obs.Metrics.gauge_fn m (prefix ^ name) f in
  g ".fast.segs" (fun () -> float_of_int (count_chunks t ~tier:Fast));
  g ".fast.free" (fun () -> float_of_int (free_chunks t ~tier:Fast));
  g ".slow.segs" (fun () -> float_of_int (count_chunks t ~tier:Slow));
  g ".slow.free" (fun () -> float_of_int (free_chunks t ~tier:Slow));
  g ".demotions" (fun () -> float_of_int t.demotions);
  g ".promotions" (fun () -> float_of_int t.promotions)
