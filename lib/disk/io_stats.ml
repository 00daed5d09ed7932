type t = {
  mutable reads : int;
  mutable writes : int;
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable seeks : int;
  mutable busy_s : float;
  mutable queue_wait_s : float;
  mutable max_queue_depth : int;
}

let create () =
  {
    reads = 0;
    writes = 0;
    blocks_read = 0;
    blocks_written = 0;
    seeks = 0;
    busy_s = 0.0;
    queue_wait_s = 0.0;
    max_queue_depth = 0;
  }

let reset t =
  t.reads <- 0;
  t.writes <- 0;
  t.blocks_read <- 0;
  t.blocks_written <- 0;
  t.seeks <- 0;
  t.busy_s <- 0.0;
  t.queue_wait_s <- 0.0;
  t.max_queue_depth <- 0

let copy t =
  {
    reads = t.reads;
    writes = t.writes;
    blocks_read = t.blocks_read;
    blocks_written = t.blocks_written;
    seeks = t.seeks;
    busy_s = t.busy_s;
    queue_wait_s = t.queue_wait_s;
    max_queue_depth = t.max_queue_depth;
  }

(* [max_queue_depth] is a watermark, not a counter: a diff keeps the
   later watermark rather than subtracting. *)
let diff now before =
  {
    reads = now.reads - before.reads;
    writes = now.writes - before.writes;
    blocks_read = now.blocks_read - before.blocks_read;
    blocks_written = now.blocks_written - before.blocks_written;
    seeks = now.seeks - before.seeks;
    busy_s = now.busy_s -. before.busy_s;
    queue_wait_s = now.queue_wait_s -. before.queue_wait_s;
    max_queue_depth = now.max_queue_depth;
  }

let merge a b =
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    blocks_read = a.blocks_read + b.blocks_read;
    blocks_written = a.blocks_written + b.blocks_written;
    seeks = a.seeks + b.seeks;
    busy_s = a.busy_s +. b.busy_s;
    queue_wait_s = a.queue_wait_s +. b.queue_wait_s;
    max_queue_depth = max a.max_queue_depth b.max_queue_depth;
  }

let bytes_written ~block_size t = t.blocks_written * block_size
let total_ios t = t.reads + t.writes

let pp ppf t =
  Format.fprintf ppf
    "reads=%d (%d blk) writes=%d (%d blk) seeks=%d busy=%.3fs qwait=%.3fs qmax=%d"
    t.reads t.blocks_read t.writes t.blocks_written t.seeks t.busy_s
    t.queue_wait_s t.max_queue_depth
