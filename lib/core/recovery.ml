module Vdev = Lfs_disk.Vdev
module Io_queue = Lfs_disk.Io_queue
module Scratch = Lfs_util.Buf_pool.Scratch
module Checksum = Lfs_util.Checksum

type decoded = Inodes of (int * Types.ino) list | Records of Dir_log.record list
type write = { summary : Summary.t; decoded : (Types.baddr * decoded) list }

type result = {
  writes : write list;
  latest_inodes : (Types.ino, Inode.t) Hashtbl.t;
  indirect_blocks : (Types.baddr, bytes) Hashtbl.t;
  tails : Log_writer.position array;
  next_seq : int;
  segments_scanned : int;
  watermark : int;
  blocks_verified : int;
}

(* {1 Reading the log into the scan's own buffers} *)

type reader = {
  dev : Vdev.t;
  layout : Layout.t;
  block : bytes;  (* one block: the summary being walked *)
  payload : Scratch.t;  (* grown to the largest payload verified *)
}

let read_block r addr =
  ignore (Vdev.submit_read_into r.dev addr 1 r.block ~pos:0 : Io_queue.ticket);
  r.block

(* Payload blocks [first, first + n) of the write into [b] at byte
   [pos]. *)
let read_into r s ~first ~n b ~pos =
  if n > 0 then
    ignore
      (Vdev.submit_read_into r.dev (Summary.entry_addr s r.layout first) n b ~pos
        : Io_queue.ticket)

(* {1 The walk} *)

(* What roll-forward needs of a write besides its summary: the inode and
   dir-log blocks it decodes, and the indirect blocks {!Fs.recover}
   rebuilds recovered files' block maps from.  Data blocks are only
   referenced by address.  A flush appends dir-log, data, indirect and
   inode blocks in that order, so these sit in a run right behind the
   summary or in one that ends the write. *)
let kept (e : Summary.entry) =
  match e.Summary.kind with
  | Types.Inode_block | Types.Dir_log | Types.Indirect | Types.Dindirect -> true
  | Types.Data | Types.Imap | Types.Seg_usage | Types.Summary -> false

(* A run of adjacent kept entries [first, first + n) of a write, as the
   walk read it: entry [first] at byte 0 of [buf]. *)
type run = { first : int; n : int; buf : bytes }

(* A summary the walk accepted and the runs it read of its write, in
   entry order (appended as the walker reads them).  Nothing of the
   runs is decoded before the roll knows the write landed. *)
type step = { accepted : Summary.t; mutable runs : run list }

(* One head's chain walk: the steps it accepts, in walk order (strictly
   increasing seq), and the segments it entered. *)
type chain = { steps : step list; scanned : int }

(* Walk a head's chain from its checkpointed position: its segment from
   the checkpoint's offset, or, when that segment is exhausted there,
   the segment the writer went on to.  Everything the checkpoint
   vouches for lies behind that position, so the walk reads none of it.
   [floor] is the checkpoint's [log_seq]: every write since has a seq at
   least that, and it grows strictly along the walk, so a summary left
   from a segment's previous life fails it or the walker's
   self-identification test and ends the walk.  Each accepted write's
   [kept] runs are read into buffers of their own, by the walker's read
   rule ({!Summary.walk_segment}).  A segment entered again could only
   show summaries the walk has passed or ones from before the
   checkpoint, all below that floor, so remembering the segments
   entered is enough to break a [next_seg] cycle. *)
let walk_chain r ~floor (start : Log_writer.position) =
  let layout = r.layout in
  let bs = layout.Layout.block_size in
  let steps = ref [] and scanned = ref 1 in
  let visited = Hashtbl.create 16 in
  let last_seq = ref (floor - 1) and hop = ref start.Log_writer.next_seg in
  (* Called only for the write of the step [visit] just pushed. *)
  let read_run s (run : Summary.run) =
    let buf = Bytes.create (run.Summary.blocks * bs) in
    read_into r s ~first:run.Summary.first ~n:run.Summary.blocks buf ~pos:0;
    let st = List.hd !steps in
    st.runs <- st.runs @ [ { first = run.Summary.first; n = run.Summary.n; buf } ];
    (buf, 0)
  in
  let rec enter seg ~from =
    if not (Hashtbl.mem visited seg) then begin
      Hashtbl.replace visited seg ();
      let first = Layout.seg_first_block layout seg in
      let exhausted =
        Summary.walk_segment layout ~seg ~from
          ~read:(fun slot -> (read_block r (first + slot), 0))
          ~need:(fun _ _ e -> kept e)
          ~read_run
          (fun s ->
            s.Summary.seq > !last_seq
            && begin
                 steps := { accepted = s; runs = [] } :: !steps;
                 last_seq := s.Summary.seq;
                 hop := s.Summary.next_seg;
                 true
               end)
      in
      (* Follow the head's thread from the last summary accepted, or
         from the checkpoint's reservation when there was none. *)
      if exhausted then begin
        incr scanned;
        if !hop >= 0 && !hop < layout.Layout.nsegs then enter !hop ~from:0
      end
    end
  in
  enter start.Log_writer.seg ~from:start.Log_writer.off;
  { steps = List.rev !steps; scanned = !scanned }

(* {1 Verifying and decoding a walked write} *)

(* Payload blocks [first, first + k) of a walked write into [b], block
   [i] at byte [i * block_size]: copied from the walk's runs where it
   read them, read from the device otherwise, one read per gap. *)
let fill r st b ~first ~k =
  let bs = r.layout.Layout.block_size in
  let next = ref first in
  let read_to stop =
    read_into r st.accepted ~first:!next ~n:(stop - !next) b ~pos:(!next * bs);
    next := stop
  in
  List.iter
    (fun run ->
      let lo = max run.first !next and hi = min (run.first + run.n) (first + k) in
      if lo < hi then begin
        read_to lo;
        Bytes.blit run.buf ((lo - run.first) * bs) b (lo * bs) ((hi - lo) * bs);
        next := hi
      end)
    st.runs;
  read_to (first + k)

(* Verify a write at or above the watermark, reading each payload block
   the walk has not read, once.  With a [tail_sum] its last block is
   summed first: a torn write seldom lands its tail, so one block proves
   most torn writes torn.  On a match the rest is filled into the same
   buffer and the tail's sum folded in, so a write is accepted only on
   its whole payload's checksum, as without one.  [verified] counts the
   blocks checksummed. *)
let verify r st ~verified =
  let s = st.accepted in
  let bs = r.layout.Layout.block_size in
  let n = List.length s.Summary.entries in
  let b = Scratch.take r.payload (n * bs) in
  let sum_of ~first ~k =
    fill r st b ~first ~k;
    verified := !verified + k;
    Summary.payload_checksum ~pos:(first * bs) ~len:(k * bs) b
  in
  let sum =
    if s.Summary.tail_sum = 0 || n = 0 then Some (sum_of ~first:0 ~k:n)
    else
      let tail = sum_of ~first:(n - 1) ~k:1 in
      if tail <> s.Summary.tail_sum then None
      else Some (Checksum.combine (sum_of ~first:0 ~k:(n - 1)) tail ~len2:bs)
  in
  Scratch.give r.payload;
  sum = Some s.Summary.payload_sum

(* Recovery reprocesses inodes and directory-log records; data blocks
   stay where they are and are only referenced by address.  So of each
   write the scan keeps only what the digest uses of its inode and
   dir-log blocks and of its summary's inline records and inodes (the
   ino in each occupied inode slot, and the decoded records) and its
   indirect blocks, by address in [indirect].  The summary's records
   come before its entries' and its inodes after them.  Each decoded
   inode also replaces its ino's copy in [latest]: the writes are
   decoded in log order, so [latest] ends with every ino's latest copy,
   which {!Fs.recover} takes instead of reading the block again. *)
let decode_runs r ~latest ~indirect st =
  let bs = r.layout.Layout.block_size in
  let s = st.accepted in
  let es = Array.of_list s.Summary.entries in
  let at_summary = Summary.addr s r.layout in
  let addr i = Summary.entry_addr s r.layout i in
  let decoded = ref [] in
  if s.Summary.records <> [] then
    decoded := [ (at_summary, Records s.Summary.records) ];
  List.iter
    (fun run ->
      for k = 0 to run.n - 1 do
        let i = run.first + k and pos = k * bs in
        match es.(i).Summary.kind with
        | Types.Inode_block ->
            let slots = ref [] in
            for slot = 0 to r.layout.Layout.inodes_per_block - 1 do
              match Inode.decode ~pos run.buf ~slot with
              | Some inode ->
                  Hashtbl.replace latest inode.Inode.ino inode;
                  slots := (slot, inode.Inode.ino) :: !slots
              | None -> ()
            done;
            decoded := (addr i, Inodes (List.rev !slots)) :: !decoded
        | Types.Dir_log ->
            decoded := (addr i, Records (Dir_log.decode_block ~pos run.buf)) :: !decoded
        | Types.Indirect | Types.Dindirect ->
            Hashtbl.replace indirect (addr i) (Bytes.sub run.buf pos bs)
        | Types.Data | Types.Imap | Types.Seg_usage | Types.Summary -> ()
      done)
    st.runs;
  (match Summary.inline_inodes s r.layout with
  | [] -> ()
  | inline ->
      let slots =
        List.map
          (fun (iaddr, (inode : Inode.t)) ->
            Hashtbl.replace latest inode.Inode.ino inode;
            (Types.Iaddr.slot iaddr, inode.Inode.ino))
          inline
      in
      decoded := (at_summary, Inodes slots) :: !decoded);
  List.rev !decoded

let scan layout disk ~ckpt =
  let r =
    { dev = disk; layout; block = Bytes.create layout.Layout.block_size;
      payload = Scratch.create () }
  in
  let log_seq = ckpt.Checkpoint.log_seq in
  let chains = Array.map (walk_chain r ~floor:log_seq) ckpt.Checkpoint.heads in
  (* The durability watermark.  A summary on the medium was written, so
     its claim holds whether or not its own payload made it: every
     write below the largest claim is on the medium, and only writes at
     or above it can be torn — or missing, since with queued submission
     the device commits blocks out of submission order.  The checkpoint
     vouches for everything before [log_seq]. *)
  let watermark =
    Array.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc st -> max acc st.accepted.Summary.durable_below)
          acc c.steps)
      log_seq chains
  in
  (* Roll forward in log order, merging the chains by the shared
     sequence number.  A write below the watermark is decoded from the
     runs the walk read: the roll reads nothing for it.  A write at or
     above the watermark must verify its payload checksum first; the
     first that fails is the torn write, and because a completed fsync
     barrier awaits every head's unflushed batches, nothing at or beyond
     its sequence number (in any chain) was ever acknowledged — and a
     surviving write there may reference payloads, in another head's
     chain, that never made it.  So that sequence number is a global
     [cutoff].  Every write takes the next sequence number, so a number
     no chain holds is a write that never landed at all (its summary
     with it), and it is the cutoff too: a later write in another
     head's chain may point into it. *)
  let verified = ref 0 in
  let latest = Hashtbl.create 64 and indirect = Hashtbl.create 16 in
  let rec roll acc expect = function
    | [] -> (List.rev acc, max_int)
    | st :: rest ->
        let s = st.accepted in
        if s.Summary.seq <> expect then (List.rev acc, expect)
        else if s.Summary.seq >= watermark && not (verify r st ~verified) then
          (List.rev acc, s.Summary.seq)
        else
          roll
            ({ summary = s; decoded = decode_runs r ~latest ~indirect st } :: acc)
            (expect + 1) rest
  in
  let writes, cutoff =
    Array.to_list chains
    |> List.concat_map (fun c -> c.steps)
    |> List.sort (fun a b -> compare a.accepted.Summary.seq b.accepted.Summary.seq)
    |> roll [] log_seq
  in
  (* Each head resumes at its first summary at or past the cutoff, or
     just past its last one. *)
  let tails =
    Array.mapi
      (fun i c ->
        let tail_at (s : Summary.t) ~off =
          { Log_writer.seg = s.Summary.seg; off; next_seg = s.Summary.next_seg }
        in
        match List.find_opt (fun st -> st.accepted.Summary.seq >= cutoff) c.steps with
        | Some st -> tail_at st.accepted ~off:st.accepted.Summary.slot
        | None -> (
            match List.rev c.steps with
            | st :: _ -> tail_at st.accepted ~off:(Summary.next_slot st.accepted)
            | [] -> ckpt.Checkpoint.heads.(i)))
      chains
  in
  let next_seq =
    if cutoff < max_int then cutoff
    else
      List.fold_left
        (fun acc w -> max acc (w.summary.Summary.seq + 1))
        log_seq writes
  in
  {
    writes;
    latest_inodes = latest;
    indirect_blocks = indirect;
    tails;
    next_seq;
    segments_scanned =
      Array.fold_left (fun acc c -> acc + c.scanned) 0 chains;
    watermark;
    blocks_verified = !verified;
  }

(* {1 The roll-forward digest} *)

type dirop = {
  op : Dir_log.record;
  stale : bool;
  survives_reuse : bool;
  freed_later : bool;
}

type digest = {
  inodes : (Types.ino * Types.Iaddr.t) list;
  dirops : dirop list;
  data_blocks : int;
  versions : (Types.baddr, int) Hashtbl.t;
}

(* An inode number freed and reallocated inside the recovery window
   appears in the journal twice, and inodes carry no on-disk version, so
   log order tells the incarnations apart: the re-created inode's copy
   can only appear in a write at or after the one carrying its fresh
   [Add] (by then the old incarnation is dead and never flushed again).
   [carried ino] is the sequence number of the write that last carried
   [ino].  One pass each way over the records. *)
let dirop_facts ~carried records =
  let records = Array.of_list records in
  let n = Array.length records in
  (* A fresh [Add] of an ino an earlier [Remove] freed, whose only
     recovered copy predates the [Add]: that copy is the dead
     incarnation, and the create's own inode never reached the log.
     Every later record of the lost incarnation (its links, renames and
     removes, up to the [Remove] that frees it) is stale too: the ino
     it names holds the older incarnation, which it must not touch. *)
  let stale = Array.make n false in
  let lost = Hashtbl.create 16 in  (* freed ino -> its incarnation is lost *)
  for i = 0 to n - 1 do
    match records.(i) with
    | seq, Dir_log.Add { ino; fresh = true; _ } when Hashtbl.mem lost ino ->
        stale.(i) <- (match carried ino with Some s -> s < seq | None -> true);
        Hashtbl.replace lost ino stale.(i)
    | _, (Dir_log.Add { ino; _ } | Dir_log.Rename { ino; _ }) ->
        stale.(i) <- Hashtbl.find_opt lost ino = Some true
    | _, Dir_log.Remove { ino; nlink; _ } ->
        stale.(i) <- Hashtbl.find_opt lost ino = Some true;
        if nlink <= 0 then Hashtbl.replace lost ino false
  done;
  (* A [Remove] whose ino a later fresh [Add] re-creates, and that new
     incarnation reached the log: the inode belongs to the new file.  A
     [Rename] whose incarnation a later [Remove] frees: the file died,
     which is why no copy of it need be recovered. *)
  let survives_reuse = Array.make n false in
  let freed_later = Array.make n false in
  let next_fresh_add = Hashtbl.create 16 in
  let next_free = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    match records.(i) with
    | seq, Dir_log.Add { ino; fresh = true; _ } ->
        Hashtbl.replace next_fresh_add ino seq;
        Hashtbl.remove next_free ino
    | _, Dir_log.Remove { ino; nlink; _ } ->
        survives_reuse.(i) <-
          (match (Hashtbl.find_opt next_fresh_add ino, carried ino) with
          | Some add_seq, Some s -> s >= add_seq
          | _ -> false);
        if nlink <= 0 then Hashtbl.replace next_free ino ()
    | _, Dir_log.Rename { ino; _ } -> freed_later.(i) <- Hashtbl.mem next_free ino
    | _, Dir_log.Add _ -> ()
  done;
  List.init n (fun i ->
      {
        op = snd records.(i);
        stale = stale.(i);
        survives_reuse = survives_reuse.(i);
        freed_later = freed_later.(i);
      })

let digest layout writes =
  let latest = Hashtbl.create 64 in
  let records = ref [] in
  let data_blocks = ref 0 in
  let versions = Hashtbl.create 64 in
  let note_version w i (e : Summary.entry) =
    Hashtbl.replace versions (Summary.entry_addr w.summary layout i)
      e.Summary.version
  in
  List.iter
    (fun w ->
      let seq = w.summary.Summary.seq in
      List.iteri
        (fun i (e : Summary.entry) ->
          match e.Summary.kind with
          | Types.Data ->
              incr data_blocks;
              note_version w i e
          | Types.Indirect | Types.Dindirect -> note_version w i e
          | Types.Inode_block | Types.Dir_log | Types.Imap | Types.Seg_usage
          | Types.Summary ->
              ())
        w.summary.Summary.entries;
      List.iter
        (fun (block, d) ->
          match d with
          | Inodes slots ->
              List.iter
                (fun (slot, ino) ->
                  Hashtbl.replace latest ino (Types.Iaddr.make ~block ~slot, seq))
                slots
          | Records rs -> List.iter (fun r -> records := (seq, r) :: !records) rs)
        w.decoded)
    writes;
  let carried ino = Option.map snd (Hashtbl.find_opt latest ino) in
  {
    (* In on-disk order, so re-reading them streams sequentially. *)
    inodes =
      Hashtbl.fold (fun ino (ia, _) acc -> (ino, ia) :: acc) latest []
      |> List.sort (fun (_, a) (_, b) ->
             compare (Types.Iaddr.to_int a) (Types.Iaddr.to_int b));
    dirops = dirop_facts ~carried (List.rev !records);
    data_blocks = !data_blocks;
    versions;
  }
