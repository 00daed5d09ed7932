module Seq_map = Map.Make (Int)

(* The medium: one off-heap, zero-on-demand buffer of [blocks *
   block_size] bytes, block [a] at byte [a * block_size].  Pages no
   write has touched cost no resident memory, and the image is not part
   of the GC's live set.  Contents move in and out through the two
   copies below (disk_store_stubs.c); callers check the ranges. *)
type store = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

external store_create : int -> store = "lfs_disk_store_create"

external blit_to_store : bytes -> int -> store -> int -> int -> unit
  = "lfs_disk_blit_bytes_to_store"
[@@noalloc]

external blit_from_store : store -> int -> bytes -> int -> int -> unit
  = "lfs_disk_blit_store_to_bytes"
[@@noalloc]

type cut = Prefix | Nothing | Subset of int

type t = {
  geometry : Geometry.t;
  data : store;
  stats : Io_stats.t;
  queue : Io_queue.t;
  mutable crash_countdown : int option;  (* blocks until power cut *)
  mutable crash_cut : cut;  (* what the write the cut interrupts lands *)
  mutable crashed : bool;
  mutable pending : (int * bytes array) Seq_map.t;
      (* queued-mode writes submitted but not yet committed by the
         elevator: seq -> (addr, one staged buffer per block), so
         ascending seq is submission order.  Reads overlay these so the
         FS observes its own writes; a reboot drops them. *)
  stage_bufs : Lfs_util.Buf_pool.t;
      (* the block buffers a queued write stages its blocks in; a
         commit gives them back, so a device with a steady queue
         allocates none *)
  mutable write_seq_counter : int;
  write_seq : int array;
      (* per block, the submission seq of the newest committed write:
         content is defined by submission order even though the elevator
         commits out of order, so a commit must not clobber a block a
         later-submitted write has already retired. *)
}

exception Crashed

(* The media-transfer time of [nblocks] at full bandwidth. *)
let transfer_fn geometry ~nblocks =
  if geometry.Geometry.bandwidth_bytes_per_s = infinity then 0.0
  else
    float_of_int (nblocks * geometry.Geometry.block_size)
    /. geometry.Geometry.bandwidth_bytes_per_s

(* Modelled duration of one transfer: reposition (none when the head is
   already at [addr]), transfer at media bandwidth, fixed per-IO
   overhead.  A cold head ([-1], fresh or rebooted device) pays an
   average-ish seek of a third of the disk. *)
let service_fn geometry ~head ~addr ~nblocks =
  let seeked = addr <> head in
  let reposition =
    if not seeked then 0.0
    else begin
      let distance_blocks =
        if head < 0 then geometry.Geometry.blocks / 3 else abs (addr - head)
      in
      Geometry.seek_time geometry ~distance_blocks
      +. geometry.Geometry.rotational_latency_s
    end
  in
  ( reposition +. transfer_fn geometry ~nblocks
    +. geometry.Geometry.per_io_overhead_s,
    seeked )

let create geometry =
  let stats = Io_stats.create () in
  {
    geometry;
    data = store_create (Geometry.capacity_bytes geometry);
    stats;
    queue =
      Io_queue.create ~service:(service_fn geometry)
        ~transfer:(transfer_fn geometry) ~stats;
    crash_countdown = None;
    crash_cut = Prefix;
    crashed = false;
    pending = Seq_map.empty;
    stage_bufs = Lfs_util.Buf_pool.create geometry.Geometry.block_size;
    write_seq_counter = 0;
    write_seq = Array.make geometry.Geometry.blocks 0;
  }

let geometry t = t.geometry
let block_size t = t.geometry.Geometry.block_size
let nblocks t = t.geometry.Geometry.blocks
let stats t = t.stats
(* Entering queued mode re-bases the idle device into the caller's clock
   domain: the horizon accumulated by Direct-mode service (total busy
   time since creation) is history, not future busy time, so the first
   queued request must not wait behind it. *)
let set_mode t m =
  (match m with
  | Io_queue.Queued clock when Io_queue.depth t.queue = 0 ->
      Io_queue.set_horizon t.queue (clock ())
  | _ -> ());
  Io_queue.set_mode t.queue m

let get_mode t = Io_queue.mode t.queue

let check_range t addr n what =
  if addr < 0 || n < 0 || addr + n > nblocks t then
    invalid_arg
      (Printf.sprintf "Disk.%s: blocks [%d, %d) out of range [0, %d)" what addr
         (addr + n) (nblocks t))

(* Enqueue the transfer on the time plane.  [Direct] services it on the
   spot — submission order, zero wait, the historical synchronous
   timings; [Queued] leaves it for await/drain/pump. *)
let enqueue ?on_commit ?read t ?now ~addr ~n () =
  let now =
    match now with
    | Some s -> s
    | None -> (
        match get_mode t with
        | Io_queue.Direct -> Io_queue.horizon t.queue
        | Io_queue.Queued clock -> clock ())
  in
  let tag = Io_queue.submit ?on_commit ?read t.queue ~now ~addr ~nblocks:n in
  (match get_mode t with
  | Io_queue.Direct -> ignore (Io_queue.await (Io_queue.Tag (t.queue, tag)))
  | Io_queue.Queued _ -> ());
  Io_queue.Tag (t.queue, tag)

let ensure_alive t = if t.crashed then raise Crashed

(* Overlay not-yet-committed queued writes, oldest first, so reads are
   coherent with the submission order the FS observed.  A block whose
   committed content is already newer (a later-submitted write the
   elevator retired first) keeps the committed data.  Blocks [addr,
   addr+n) land at byte [pos] of [out]. *)
let overlay_pending t ~addr ~n out ~pos =
  let bs = block_size t in
  Seq_map.iter
    (fun seq (waddr, staged) ->
      let lo = max addr waddr
      and hi = min (addr + n) (waddr + Array.length staged) in
      for blk = lo to hi - 1 do
        if t.write_seq.(blk) <= seq then
          Bytes.blit staged.(blk - waddr) 0 out (pos + ((blk - addr) * bs)) bs
      done)
    t.pending

let submit_read_into ?now t addr n buf ~pos =
  ensure_alive t;
  check_range t addr n "read_blocks";
  let bs = block_size t in
  if pos < 0 || pos + (n * bs) > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Disk.submit_read_into: %d blocks at byte %d of %d" n pos
         (Bytes.length buf));
  t.stats.Io_stats.reads <- t.stats.Io_stats.reads + 1;
  t.stats.Io_stats.blocks_read <- t.stats.Io_stats.blocks_read + n;
  blit_from_store t.data (addr * bs) buf pos (n * bs);
  if not (Seq_map.is_empty t.pending) then overlay_pending t ~addr ~n buf ~pos;
  enqueue t ~read:true ?now ~addr ~n ()

let submit_read ?now t addr n =
  let out = Bytes.create (n * block_size t) in
  (submit_read_into ?now t addr n out ~pos:0, out)

let read_blocks t addr n = snd (submit_read t addr n)
let read_block t addr = read_blocks t addr 1

(* Land one write on the medium, and apply an armed power cut: the one
   place that decides what a cut leaves.  A write of [n] blocks with [k
   <= n] blocks left on the countdown is the one the cut interrupts: it
   lands the [k]-block prefix, nothing, or [k] of its blocks drawn from
   the seed, as the plan says, and the device crashes.  [land_block i
   dst] copies the write's block [i] to byte [dst] of the store.  In
   [Direct] mode this runs at submit time (submission order == service
   order); in [Queued] mode it is deferred into the elevator's commit,
   so countdowns burn, and cuts land, in the order the device actually
   retires writes. *)
let perform_write t ~seq addr n land_block =
  if t.crashed then raise Crashed;
  let bs = block_size t in
  let persist_block i =
    if t.write_seq.(addr + i) <= seq then begin
      land_block i ((addr + i) * bs);
      t.write_seq.(addr + i) <- seq
    end
  in
  match t.crash_countdown with
  | Some k when k <= n ->
      (match t.crash_cut with
      | Prefix ->
          for i = 0 to k - 1 do
            persist_block i
          done
      | Nothing -> ()
      | Subset seed ->
          (* The disk scheduled the write's sectors freely. *)
          let order = Array.init n Fun.id in
          Lfs_util.Prng.shuffle (Lfs_util.Prng.create ~seed) order;
          for j = 0 to k - 1 do
            persist_block order.(j)
          done);
      t.crash_countdown <- None;
      t.crashed <- true;
      raise Crashed
  | armed -> (
      for i = 0 to n - 1 do
        persist_block i
      done;
      match armed with
      | Some k -> t.crash_countdown <- Some (k - n)
      | None -> ())

(* The caller may reuse [payload] once this returns: [Direct] lands it
   now, [Queued] stages a copy of each block until the commit, which
   lands the blocks and frees their staging buffers. *)
let submit_write_payload ?now t addr n payload ~pos =
  t.write_seq_counter <- t.write_seq_counter + 1;
  let seq = t.write_seq_counter in
  let bs = block_size t in
  match get_mode t with
  | Io_queue.Direct ->
      let tk = enqueue t ?now ~addr ~n () in
      perform_write t ~seq addr n (fun i dst ->
          blit_to_store payload (pos + (i * bs)) t.data dst bs);
      tk
  | Io_queue.Queued _ ->
      let staged =
        Array.init n (fun i ->
            let b = Lfs_util.Buf_pool.take t.stage_bufs in
            Bytes.blit payload (pos + (i * bs)) b 0 bs;
            b)
      in
      t.pending <- Seq_map.add seq (addr, staged) t.pending;
      enqueue t ?now ~addr ~n ()
        ~on_commit:(fun () ->
          t.pending <- Seq_map.remove seq t.pending;
          perform_write t ~seq addr n (fun i dst ->
              blit_to_store staged.(i) 0 t.data dst bs);
          Array.iter (Lfs_util.Buf_pool.give t.stage_bufs) staged)

let submit_write_from ?now t addr n buf ~pos =
  ensure_alive t;
  check_range t addr n "write_blocks";
  let bs = block_size t in
  if pos < 0 || pos + (n * bs) > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Disk.submit_write_from: %d blocks at byte %d of %d" n pos
         (Bytes.length buf));
  t.stats.Io_stats.writes <- t.stats.Io_stats.writes + 1;
  t.stats.Io_stats.blocks_written <- t.stats.Io_stats.blocks_written + n;
  submit_write_payload ?now t addr n buf ~pos

let submit_write ?now t addr b =
  ensure_alive t;
  let bs = block_size t in
  if Bytes.length b mod bs <> 0 then
    invalid_arg "Disk.write_blocks: buffer is not a whole number of blocks";
  submit_write_from ?now t addr (Bytes.length b / bs) b ~pos:0

let write_blocks t addr b = ignore (submit_write t addr b)

let write_block t addr b =
  if Bytes.length b <> block_size t then
    invalid_arg "Disk.write_block: buffer is not exactly one block";
  write_blocks t addr b

(* Zeroing is a write of zeros: it charges modelled time, counts in the
   stats, and respects an armed crash (a torn zero clears only its
   writable prefix). *)
let zero_blocks t addr n =
  ensure_alive t;
  check_range t addr n "zero_blocks";
  t.stats.Io_stats.writes <- t.stats.Io_stats.writes + 1;
  t.stats.Io_stats.blocks_written <- t.stats.Io_stats.blocks_written + n;
  ignore (submit_write_payload t addr n (Bytes.make (n * block_size t) '\000') ~pos:0)

let drain t = Io_queue.drain t.queue
let pump t ~now = Io_queue.pump t.queue ~now
let outstanding_in t ~lo ~hi = Io_queue.outstanding_in t.queue ~lo ~hi
let queue_depth t = Io_queue.depth t.queue

let plan_crash ?(cut = Prefix) t ~after_blocks =
  if after_blocks < 0 then
    invalid_arg (Printf.sprintf "Disk.plan_crash: %d blocks" after_blocks);
  t.crash_countdown <- Some after_blocks;
  t.crash_cut <- cut

let is_crashed t = t.crashed

let reboot t =
  t.crashed <- false;
  t.crash_countdown <- None;
  t.crash_cut <- Prefix;
  (* Submitted-but-uncommitted writes die with the power: only what the
     elevator actually retired is on the medium. *)
  t.pending <- Seq_map.empty;
  Io_queue.reset t.queue;
  Io_queue.set_head t.queue (-1)

let restore t ~from =
  if t.geometry <> from.geometry then
    invalid_arg "Disk.restore: geometry mismatch";
  Bigarray.Array1.blit from.data t.data;
  let s = t.stats and s' = from.stats in
  s.Io_stats.reads <- s'.Io_stats.reads;
  s.Io_stats.writes <- s'.Io_stats.writes;
  s.Io_stats.blocks_read <- s'.Io_stats.blocks_read;
  s.Io_stats.blocks_written <- s'.Io_stats.blocks_written;
  s.Io_stats.seeks <- s'.Io_stats.seeks;
  s.Io_stats.busy_s <- s'.Io_stats.busy_s;
  s.Io_stats.queue_wait_s <- s'.Io_stats.queue_wait_s;
  s.Io_stats.max_queue_depth <- s'.Io_stats.max_queue_depth;
  (* Pending time-plane requests do not survive a restore. *)
  t.pending <- Seq_map.empty;
  Array.fill t.write_seq 0 (Array.length t.write_seq) 0;
  t.write_seq_counter <- 0;
  Io_queue.reset t.queue;
  Io_queue.set_head t.queue (Io_queue.head from.queue);
  Io_queue.set_horizon t.queue (Io_queue.horizon from.queue);
  t.crash_countdown <- from.crash_countdown;
  t.crash_cut <- from.crash_cut;
  t.crashed <- from.crashed

let snapshot t =
  let copy = create t.geometry in
  restore copy ~from:t;
  copy

(* Image files hold the blocks in address order; both directions stream
   through one buffer of at most [io_chunk_blocks] blocks. *)
let io_chunk_blocks = 256

let iter_chunks t f =
  let bs = block_size t in
  let buf = Bytes.create (min (nblocks t) io_chunk_blocks * bs) in
  let addr = ref 0 in
  while !addr < nblocks t do
    let n = min io_chunk_blocks (nblocks t - !addr) in
    f buf ~pos:(!addr * bs) ~len:(n * bs);
    addr := !addr + n
  done

let save_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      iter_chunks t (fun buf ~pos ~len ->
          blit_from_store t.data pos buf 0 len;
          output oc buf 0 len))

let load_file geometry path =
  let expected = Geometry.capacity_bytes geometry in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      if in_channel_length ic <> expected then
        invalid_arg
          (Printf.sprintf "Disk.load_file: %s is %d bytes, geometry wants %d"
             path (in_channel_length ic) expected);
      let t = create geometry in
      iter_chunks t (fun buf ~pos ~len ->
          really_input ic buf 0 len;
          blit_to_store buf 0 t.data pos len);
      t)
