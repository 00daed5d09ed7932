module Vdev = Lfs_disk.Vdev
module Vdev_cache = Lfs_disk.Vdev_cache
module Io_queue = Lfs_disk.Io_queue

type payload = Bytes of bytes * int | Lazy of (bytes -> pos:int -> unit)

type pending = {
  kind : Types.block_kind;
  ino : Types.ino;
  blockno : int;
  version : int;
  mtime : float;
  payload : payload;
  sum : int;  (* the payload's checksum when carried over, else -1 *)
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
  mutable batch_slot : int;
      (* slot reserved for the batch summary; -1 while no batch is open *)
  mutable records : Dir_log.record list;
      (* carried in the open batch's summary, in log order *)
  mutable record_bytes : int;
  mutable inodes : Inode.t list;
      (* carried in the open batch's summary, in slot order *)
  mutable timestamp : float;
  mutable unflushed : Io_queue.ticket list;
      (* batch writes submitted but not yet confirmed by a barrier *)
  mutable stat_segments : int;   (* segments this head has opened *)
  mutable stat_blocks : int;     (* payload blocks appended *)
  mutable stat_syncs : int;      (* batch writes issued *)
}

type t = {
  layout : Layout.t;
  cache : Vdev_cache.t;  (* every batch is written through it *)
  pick_clean : exclude:int list -> int;
  on_append : Types.block_kind -> seg:int -> mtime:float -> unit;
  on_batch : head:int -> addr:int -> blocks:int -> unit;
  xfer : Lfs_util.Buf_pool.Scratch.t;
      (* the transfer buffer every batch is rendered into and written
         from, grown to the largest batch written (at most a segment) *)
  keep : bool array;
      (* which blocks of the batch being written enter the cache, by
         index in the write (the summary is index 0) *)
  sums : int array;
      (* the payload checksum of the block this writer last wrote at each
         log address (index: address - seg_start), -1 when unknown *)
  heads : head array;
  mutable seq : int;  (* shared across heads: one global log order *)
  in_flight : (int * Io_queue.ticket) Queue.t;
      (* (seq, ticket) of every batch write, across heads, that had not
         completed when last looked at, oldest first *)
}

let watermark_hook = ref Fun.id

let create layout cache ~pick_clean ~on_append ~on_batch ~heads ~seq =
  if Array.length heads = 0 then invalid_arg "Log_writer: no heads";
  {
    layout;
    cache;
    pick_clean;
    on_append;
    on_batch;
    xfer = Lfs_util.Buf_pool.Scratch.create ();
    keep = Array.make layout.Layout.seg_blocks false;
    sums = Array.make (layout.Layout.nsegs * layout.Layout.seg_blocks) (-1);
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
            records = [];
            record_bytes = 0;
            inodes = [];
            timestamp = 0.0;
            unflushed = [];
            stat_segments = 0;
            stat_blocks = 0;
            stat_syncs = 0;
          })
        heads;
    seq;
    in_flight = Queue.create ();
  }

let nheads t = Array.length t.heads
let current_segment ?(head = 0) t = t.heads.(head).cur_seg
let reserved_segment ?(head = 0) t = t.heads.(head).next_seg
let seq t = t.seq

let position ?(head = 0) t =
  let h = t.heads.(head) in
  { seg = h.cur_seg; off = h.cur_off; next_seg = h.next_seg }

let positions t = Array.init (Array.length t.heads) (fun i -> position ~head:i t)

(* Every segment some head is writing into or holds reserved.  These must
   never be offered to the cleaner, the demoter, or reuse. *)
let active_segments t =
  Array.fold_left (fun acc h -> h.cur_seg :: h.next_seg :: acc) [] t.heads

let head_stats t i =
  let h = t.heads.(i) in
  { segments = h.stat_segments; blocks = h.stat_blocks; syncs = h.stat_syncs }

(* Copy or render one payload block into [buf] at byte [dst]. *)
let place ~bs buf dst = function
  | Bytes (b, pos) ->
      if pos < 0 || pos + bs > Bytes.length b then
        invalid_arg "Log_writer: payload is not a whole block";
      Bytes.blit b pos buf dst bs
  | Lazy render -> render buf ~pos:dst

(* The payload kinds a batch write caches: the blocks that die whole,
   which the file system's kill path takes back out of the cache.  An
   inode block dies a slot at a time and a dir-log block is never
   killed (it is dead once a checkpoint covers it), so neither would
   ever leave; they and the summary are written around the cache, and a
   later read of one (an inode on a handle miss) fetches it. *)
let cached_kind = function
  | Types.Data | Types.Indirect | Types.Dindirect | Types.Imap | Types.Seg_usage ->
      true
  | Types.Inode_block | Types.Dir_log | Types.Summary -> false

(* The seq of the oldest batch write, on any head, that has not
   completed, or [t.seq] when every one has: each earlier batch is on
   the medium.  Completed writes leave the front of [in_flight] as they
   are found. *)
let durable_below t =
  let rec oldest () =
    match Queue.peek_opt t.in_flight with
    | Some (_, tk) when Io_queue.completed tk ->
        ignore (Queue.pop t.in_flight);
        oldest ()
    | Some (seq, _) -> seq
    | None -> t.seq
  in
  oldest ()

(* Whether [h]'s batch summary (the open batch's, or a fresh one's when
   none is open: that batch is empty) can take [more] more payload
   blocks, [record_bytes] more of records and [inodes] more inline
   inodes beside what it holds. *)
let fits t h ?(more = 0) ?(record_bytes = 0) ?(inodes = 0) () =
  Summary.fits ~block_size:t.layout.Layout.block_size
    ~entries:(h.batch_count + more)
    ~record_bytes:(h.record_bytes + record_bytes)
    ~inodes:(List.length h.inodes + inodes)

(* Write one head's open batch (summary + payloads) as one sequential
   IO from the writer's one transfer buffer.  Payloads are copied or
   rendered straight into it after the summary slot, so every block the
   write covers is rewritten first and nothing of an earlier batch goes
   out.  Each block's checksum is the one carried over from its source,
   or is taken in place right after the copy; it is recorded at the
   block's new address and folded into the batch's.  The summary goes
   in last, its inline records and inodes rendered into it before its
   checksum is taken.  A batch may carry only inline metadata: then
   the write is its summary alone.  The write enters into the cache
   only the payload blocks of a [cached_kind]. *)
let sync_head t i =
  let h = t.heads.(i) in
  if h.batch_slot >= 0 then begin
    let bs = t.layout.Layout.block_size in
    let pendings = List.rev h.batch in
    let len = (h.batch_count + 1) * bs in
    let buf = Lfs_util.Buf_pool.Scratch.take t.xfer len in
    let addr = Layout.seg_first_block t.layout h.cur_seg + h.batch_slot in
    let first = addr + 1 - t.layout.Layout.seg_start in
    let payload_sum = ref 1 and tail_sum = ref 0 in
    List.iteri
      (fun k p ->
        let dst = (k + 1) * bs in
        place ~bs buf dst p.payload;
        t.keep.(k + 1) <- cached_kind p.kind;
        let sum =
          if p.sum >= 0 then p.sum
          else Summary.payload_checksum ~pos:dst ~len:bs buf
        in
        t.sums.(first + k) <- sum;
        tail_sum := sum;
        payload_sum := Lfs_util.Checksum.combine !payload_sum sum ~len2:bs)
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
        payload_sum = !payload_sum;
        durable_below = !watermark_hook (durable_below t);
        tail_sum = !tail_sum;
        entries;
        records = h.records;
        inodes = h.inodes;
      }
    in
    Summary.encode_into ~block_size:bs summary buf;
    (* Submit the batch as one tagged sequential transfer.  Under Direct
       mode this services immediately (the historical behaviour); under
       queued IO the write pipelines ahead of the next fsync barrier.
       The device takes the data at submit, so the buffer is free for
       the next batch as soon as this returns. *)
    t.keep.(0) <- false;
    let tk =
      Vdev_cache.submit_write_from t.cache ~keep:(Array.get t.keep) addr
        (h.batch_count + 1) buf ~pos:0
    in
    Lfs_util.Buf_pool.Scratch.give t.xfer;
    h.unflushed <- tk :: h.unflushed;
    if not (Io_queue.completed tk) then Queue.push (t.seq, tk) t.in_flight;
    h.stat_syncs <- h.stat_syncs + 1;
    t.on_batch ~head:i ~addr ~blocks:(h.batch_count + 1);
    t.seq <- t.seq + 1;
    h.batch <- [];
    h.batch_count <- 0;
    h.batch_slot <- -1;
    h.records <- [];
    h.record_bytes <- 0;
    h.inodes <- []
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
  assert (h.batch_slot < 0);
  let from = h.next_seg in
  (* Exclude every head's current and reserved segment: two heads must
     never be handed the same clean segment. *)
  let fresh = t.pick_clean ~exclude:(active_segments t) in
  h.cur_seg <- from;
  h.cur_off <- 0;
  h.next_seg <- fresh;
  (* The segment's previous life is being overwritten. *)
  Array.fill t.sums
    (Layout.seg_first_block t.layout from - t.layout.Layout.seg_start)
    t.layout.Layout.seg_blocks (-1);
  h.stat_segments <- h.stat_segments + 1

(* Open a batch on head [i] unless one is: its summary slot, where a
   summary and one payload block still fit. *)
let open_batch t i =
  let h = t.heads.(i) in
  if h.batch_slot < 0 then begin
    if h.cur_off + 2 > t.layout.Layout.seg_blocks then advance_segment t i;
    h.batch_slot <- h.cur_off;
    h.cur_off <- h.cur_off + 1
  end

(* An open batch takes one more payload block while the segment has a
   slot for it and its summary can describe it beside what it carries
   inline; otherwise it is written first. *)
let ensure_room t i =
  let h = t.heads.(i) in
  if
    h.batch_slot >= 0
    && (h.cur_off >= t.layout.Layout.seg_blocks
       || not (fits t h ~more:1 ()))
  then sync_head t i;
  open_batch t i

let note_mtime h mtime = if mtime > h.timestamp then h.timestamp <- mtime

let inline_records ?(head = 0) t ~mtime records =
  let h = t.heads.(head) in
  let record_bytes = Dir_log.records_size records in
  records <> []
  && fits t h ~record_bytes ()
  && begin
       open_batch t head;
       h.records <- h.records @ records;
       h.record_bytes <- h.record_bytes + record_bytes;
       note_mtime h mtime;
       true
     end

let inline_inodes ?(head = 0) t ~mtime inodes =
  let h = t.heads.(head) in
  let k = List.length inodes in
  if k = 0 || not (fits t h ~inodes:k ()) then None
  else begin
    open_batch t head;
    h.inodes <- inodes @ h.inodes;
    note_mtime h mtime;
    Some
      ( Layout.seg_first_block t.layout h.cur_seg + h.batch_slot,
        t.layout.Layout.inodes_per_block - List.length h.inodes )
  end

let append ?(head = 0) ?from t ~kind ~ino ~blockno ~version ~mtime payload =
  ensure_room t head;
  let sum =
    match from with
    | None -> -1
    | Some a ->
        let k = a - t.layout.Layout.seg_start in
        if k < 0 || k >= Array.length t.sums then
          invalid_arg "Log_writer.append: ~from is not a log address";
        t.sums.(k)
  in
  let h = t.heads.(head) in
  let addr = Layout.seg_first_block t.layout h.cur_seg + h.cur_off in
  h.cur_off <- h.cur_off + 1;
  h.batch <- { kind; ino; blockno; version; mtime; payload; sum } :: h.batch;
  h.batch_count <- h.batch_count + 1;
  h.stat_blocks <- h.stat_blocks + 1;
  note_mtime h mtime;
  t.on_append kind ~seg:h.cur_seg ~mtime;
  if
    h.cur_off >= t.layout.Layout.seg_blocks
    || not (fits t h ~more:1 ())
  then sync_head t head;
  addr
