module Vdev = Lfs_disk.Vdev
module Io_queue = Lfs_disk.Io_queue

type payload = Bytes of bytes | Lazy of (unit -> bytes)

type pending = {
  kind : Types.block_kind;
  ino : Types.ino;
  blockno : int;
  version : int;
  mtime : float;
  payload : payload;
}

type position = { seg : int; off : int; next_seg : int }
type head_stats = { segments : int; blocks : int; syncs : int }

(* One write head: its own segment, open batch, and summary chain.  All
   heads share the global sequence counter and the clean-segment
   allocator held in [t]. *)
type head = {
  mutable cur_seg : int;
  mutable cur_off : int;  (* next free slot, counting queued blocks *)
  mutable next_seg : int;
  mutable batch : pending list;  (* newest first *)
  mutable batch_count : int;
  mutable batch_slot : int;      (* slot reserved for the batch summary *)
  mutable timestamp : float;
  mutable unflushed : Io_queue.ticket list;
      (* batch writes submitted but not yet confirmed by a barrier *)
  mutable stat_segments : int;   (* segments this head has opened *)
  mutable stat_blocks : int;     (* payload blocks appended *)
  mutable stat_syncs : int;      (* batch writes issued *)
}

type t = {
  layout : Layout.t;
  disk : Vdev.t;
  pick_clean : exclude:int list -> int;
  on_append : Types.block_kind -> seg:int -> mtime:float -> unit;
  on_batch : head:int -> addr:int -> blocks:int -> unit;
  max_batch : int;
  heads : head array;
  mutable seq : int;  (* shared across heads: one global log order *)
}

let create layout disk ~pick_clean ~on_append ~on_batch ~heads ~seq =
  if Array.length heads = 0 then invalid_arg "Log_writer: no heads";
  {
    layout;
    disk;
    pick_clean;
    on_append;
    on_batch;
    max_batch = Summary.max_entries ~block_size:layout.Layout.block_size;
    heads =
      Array.map
        (fun p ->
          {
            cur_seg = p.seg;
            cur_off = p.off;
            next_seg = p.next_seg;
            batch = [];
            batch_count = 0;
            batch_slot = -1;
            timestamp = 0.0;
            unflushed = [];
            stat_segments = 0;
            stat_blocks = 0;
            stat_syncs = 0;
          })
        heads;
    seq;
  }

let nheads t = Array.length t.heads
let current_segment ?(head = 0) t = t.heads.(head).cur_seg
let reserved_segment ?(head = 0) t = t.heads.(head).next_seg
let seq t = t.seq

let position ?(head = 0) t =
  let h = t.heads.(head) in
  { seg = h.cur_seg; off = h.cur_off; next_seg = h.next_seg }

let positions t = Array.init (Array.length t.heads) (fun i -> position ~head:i t)

let pending_blocks t =
  Array.fold_left (fun acc h -> acc + h.batch_count) 0 t.heads

(* Every segment some head is writing into or holds reserved.  These must
   never be offered to the cleaner, the demoter, or reuse. *)
let active_segments t =
  Array.fold_left (fun acc h -> h.cur_seg :: h.next_seg :: acc) [] t.heads

let head_stats t i =
  let h = t.heads.(i) in
  { segments = h.stat_segments; blocks = h.stat_blocks; syncs = h.stat_syncs }

let render = function Bytes b -> b | Lazy f -> f ()

(* Write one head's queued batch (summary + payloads) as one sequential
   IO. *)
let sync_head t i =
  let h = t.heads.(i) in
  if h.batch_count > 0 then begin
    let bs = t.layout.Layout.block_size in
    let pendings = List.rev h.batch in
    let payload = Bytes.create (h.batch_count * bs) in
    List.iteri
      (fun k p ->
        let b = render p.payload in
        if Bytes.length b <> bs then
          invalid_arg "Log_writer: payload is not exactly one block";
        Bytes.blit b 0 payload (k * bs) bs)
      pendings;
    let entries =
      List.map
        (fun p ->
          {
            Summary.kind = p.kind;
            ino = p.ino;
            blockno = p.blockno;
            version = p.version;
            mtime = p.mtime;
          })
        pendings
    in
    let summary =
      {
        Summary.seq = t.seq;
        seg = h.cur_seg;
        slot = h.batch_slot;
        next_seg = h.next_seg;
        timestamp = h.timestamp;
        payload_sum = Summary.payload_checksum payload;
        entries;
      }
    in
    let sum_block = Summary.encode ~block_size:bs summary in
    let buf = Bytes.create ((h.batch_count + 1) * bs) in
    Bytes.blit sum_block 0 buf 0 bs;
    Bytes.blit payload 0 buf bs (Bytes.length payload);
    let addr = Layout.seg_first_block t.layout h.cur_seg + h.batch_slot in
    (* Submit the batch as one tagged sequential transfer.  Under Direct
       mode this services immediately (the historical behaviour); under
       queued IO the write pipelines ahead of the next fsync barrier. *)
    let tk = Vdev.submit_write t.disk addr buf in
    h.unflushed <- tk :: h.unflushed;
    h.stat_syncs <- h.stat_syncs + 1;
    t.on_batch ~head:i ~addr ~blocks:(h.batch_count + 1);
    t.seq <- t.seq + 1;
    h.batch <- [];
    h.batch_count <- 0;
    h.batch_slot <- -1
  end

let sync t = Array.iteri (fun i _ -> sync_head t i) t.heads

(* Fsync barrier: await every batch write not yet confirmed, across every
   head — a non-default head's pending batch must not be missed by the
   engine's idle detection.  Returns an upper bound on the completion
   time of the latest one ([neg_infinity] when nothing was pending).  A
   no-op timing-wise under Direct mode, where every write was serviced
   at submit. *)
let barrier t =
  Array.fold_left
    (fun acc h ->
      let fin =
        List.fold_left
          (fun acc tk -> Float.max acc (Vdev.await tk))
          acc h.unflushed
      in
      h.unflushed <- [];
      fin)
    neg_infinity t.heads

let unflushed_batches t =
  Array.fold_left (fun acc h -> acc + List.length h.unflushed) 0 t.heads

let advance_segment t i =
  let h = t.heads.(i) in
  assert (h.batch_count = 0);
  let from = h.next_seg in
  (* Exclude every head's current and reserved segment: two heads must
     never be handed the same clean segment. *)
  let fresh = t.pick_clean ~exclude:(active_segments t) in
  h.cur_seg <- from;
  h.cur_off <- 0;
  h.next_seg <- fresh;
  h.stat_segments <- h.stat_segments + 1

(* An open batch needs one more payload slot; a new batch additionally
   needs its summary slot. *)
let ensure_room t i =
  let h = t.heads.(i) in
  let need = if h.batch_count = 0 then 2 else 1 in
  if h.cur_off + need > t.layout.Layout.seg_blocks then begin
    sync_head t i;
    advance_segment t i
  end

let append ?(head = 0) t ~kind ~ino ~blockno ~version ~mtime payload =
  ensure_room t head;
  let h = t.heads.(head) in
  if h.batch_count = 0 then begin
    h.batch_slot <- h.cur_off;
    h.cur_off <- h.cur_off + 1
  end;
  let addr = Layout.seg_first_block t.layout h.cur_seg + h.cur_off in
  h.cur_off <- h.cur_off + 1;
  h.batch <- { kind; ino; blockno; version; mtime; payload } :: h.batch;
  h.batch_count <- h.batch_count + 1;
  h.stat_blocks <- h.stat_blocks + 1;
  if mtime > h.timestamp then h.timestamp <- mtime;
  t.on_append kind ~seg:h.cur_seg ~mtime;
  if h.batch_count >= t.max_batch || h.cur_off >= t.layout.Layout.seg_blocks
  then sync_head t head;
  addr
