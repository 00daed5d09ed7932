module Vdev = Lfs_disk.Vdev
module Io_queue = Lfs_disk.Io_queue
module Scratch = Lfs_util.Buf_pool.Scratch
module Checksum = Lfs_util.Checksum

type decoded = Inodes of (int * Types.ino) list | Records of Dir_log.record list
type write = { summary : Summary.t; decoded : (int * decoded) list }

type result = {
  writes : write list;
  latest_inodes : (Types.ino, Inode.t) Hashtbl.t;
  tails : Log_writer.position array;
  next_seq : int;
  segments_scanned : int;
  watermark : int;
  blocks_verified : int;
}

(* {1 Reading the log into the reader's own buffers} *)

type reader = {
  dev : Vdev.t;
  layout : Layout.t;
  block : bytes;  (* one block: the summary being walked *)
  payload : Scratch.t;  (* grown to the largest payload read *)
}

let reader layout dev =
  let payload = Scratch.create () in
  { dev; layout; block = Bytes.create layout.Layout.block_size; payload }

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

(* Payload blocks [first, first + n) of the write into the payload
   buffer, block [first] at byte 0; the caller gives the buffer back. *)
let read_payload r s ~first ~n =
  let b = Scratch.take r.payload (n * r.layout.Layout.block_size) in
  read_into r s ~first ~n b ~pos:0;
  b

type payload_check = Intact | Torn | Bad_tail_sum

let check_payload r (s : Summary.t) =
  let bs = r.layout.Layout.block_size in
  let n = List.length s.Summary.entries in
  let b = read_payload r s ~first:0 ~n in
  let check =
    if Summary.payload_checksum ~len:(n * bs) b <> s.Summary.payload_sum then Torn
    else if
      s.Summary.tail_sum <> 0 && n > 0
      && Summary.payload_checksum ~pos:((n - 1) * bs) ~len:bs b <> s.Summary.tail_sum
    then Bad_tail_sum
    else Intact
  in
  Scratch.give r.payload;
  check

(* Verify a write at or above the watermark, reading each payload block
   once.  With a [tail_sum] its last block is read first: a torn write
   seldom lands its tail, so one block read proves most torn writes
   torn.  On a match the rest is read into the same buffer and the
   tail's sum folded in, so a write is accepted only on its whole
   payload's checksum, as without one.  The whole payload is in the
   returned buffer when it verifies; the caller gives the buffer back.
   [verified] counts the blocks checksummed. *)
let verified_payload r (s : Summary.t) ~verified =
  let bs = r.layout.Layout.block_size in
  let n = List.length s.Summary.entries in
  let b = Scratch.take r.payload (n * bs) in
  let sum_of ~first ~k =
    read_into r s ~first ~n:k b ~pos:(first * bs);
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
  if sum = Some s.Summary.payload_sum then Some b else None

(* Recovery reprocesses inodes and directory-log records; data blocks
   stay where they are and are only referenced by address.  So of each
   write the scan keeps only what the digest uses of its inode and
   dir-log blocks: the ino in each occupied inode slot, and the decoded
   records.  [decode_entry] takes them from the block at byte [pos] of
   [b].  Each decoded inode also replaces its ino's copy in [latest]:
   the writes are decoded in log order, so [latest] ends with every
   ino's latest copy, which {!Fs.recover} takes instead of reading the
   block again. *)
let decode_entry r ~latest (e : Summary.entry) b ~pos =
  match e.Summary.kind with
  | Types.Inode_block ->
      let slots = ref [] in
      for slot = 0 to r.layout.Layout.inodes_per_block - 1 do
        match Inode.decode ~pos b ~slot with
        | Some inode ->
            Hashtbl.replace latest inode.Inode.ino inode;
            slots := (slot, inode.Inode.ino) :: !slots
        | None -> ()
      done;
      Some (Inodes (List.rev !slots))
  | Types.Dir_log -> Some (Records (Dir_log.decode_block ~pos b))
  | Types.Data | Types.Indirect | Types.Dindirect | Types.Imap
  | Types.Seg_usage | Types.Summary ->
      None

let is_metadata (e : Summary.entry) =
  match e.Summary.kind with
  | Types.Inode_block | Types.Dir_log -> true
  | Types.Data | Types.Indirect | Types.Dindirect | Types.Imap
  | Types.Seg_usage | Types.Summary ->
      false

(* The decoded inode and dir-log blocks of a write, in entry order.
   With [whole] its whole payload is already in that buffer (it was
   just verified); otherwise each run of adjacent inode and dir-log
   blocks is read into the payload buffer in one read, and no data
   block is read. *)
let decode_payloads r ~latest s ~whole =
  let bs = r.layout.Layout.block_size in
  let es = Array.of_list s.Summary.entries in
  let n = Array.length es in
  let decoded = ref [] in
  let i = ref 0 in
  while !i < n do
    if not (is_metadata es.(!i)) then incr i
    else begin
      let first = !i in
      while !i < n && is_metadata es.(!i) do
        incr i
      done;
      let b, base =
        match whole with
        | Some buf -> (buf, 0)
        | None -> (read_payload r s ~first ~n:(!i - first), first)
      in
      for k = first to !i - 1 do
        Option.iter
          (fun d -> decoded := (k, d) :: !decoded)
          (decode_entry r ~latest es.(k) b ~pos:((k - base) * bs))
      done
    end
  done;
  List.rev !decoded

(* One head's chain walk: the summaries it accepts, in walk order
   (strictly increasing seq), and the segments it entered. *)
type chain = { steps : Summary.t list; scanned : int }

let walk_chain layout r ~start_seg =
  let seg_blocks = layout.Layout.seg_blocks in
  let steps = ref [] in
  let scanned = ref 0 in
  let visited = Hashtbl.create 16 in
  (* [last_seq] grows strictly along the walk; summaries left over from
     a segment's previous life fail this floor or the walker's
     self-identification test and end the walk.  Summaries written
     before the checkpoint pass, and carry the walk through the
     checkpoint's tail segment; [scan] sets them aside.  A segment is
     always entered at slot 0, so remembering the segments entered is
     enough to break a [next_seg] cycle. *)
  let last_seq = ref 0 in
  let rec walk_segment seg =
    if not (Hashtbl.mem visited seg) then begin
      Hashtbl.replace visited seg ();
      let first = Layout.seg_first_block layout seg in
      let exhausted = ref None in
      Summary.walk_segment layout ~seg
        ~read:(fun slot -> (read_block r (first + slot), 0))
        (fun s ->
          s.Summary.seq > !last_seq
          && begin
               steps := s :: !steps;
               last_seq := s.Summary.seq;
               if Summary.next_slot s > seg_blocks - 2 then exhausted := Some s;
               true
             end);
      (* Segment exhausted: follow the head's thread. *)
      match !exhausted with
      | None -> ()
      | Some s ->
          incr scanned;
          if s.Summary.next_seg >= 0 && s.Summary.next_seg < layout.Layout.nsegs
          then walk_segment s.Summary.next_seg
    end
  in
  (* Start from the head of the checkpoint's tail segment. *)
  incr scanned;
  walk_segment start_seg;
  { steps = List.rev !steps; scanned = !scanned }

let scan layout disk ~ckpt =
  let r = reader layout disk in
  let log_seq = ckpt.Checkpoint.log_seq in
  let chains =
    Array.map
      (fun (h : Log_writer.position) -> walk_chain layout r ~start_seg:h.seg)
      ckpt.Checkpoint.heads
  in
  (* The durability watermark.  A summary on the medium was written, so
     its claim holds whether or not its own payload made it: every
     write below the largest claim is on the medium, and only writes at
     or above it can be torn — or missing, since with queued submission
     the device commits blocks out of submission order.  The checkpoint
     vouches for everything before [log_seq]. *)
  let watermark =
    Array.fold_left
      (fun acc c ->
        List.fold_left (fun acc s -> max acc s.Summary.durable_below) acc c.steps)
      log_seq chains
  in
  (* Roll forward in log order, merging the chains by the shared
     sequence number.  A write at or above the watermark must verify
     its payload checksum; the first that fails is the torn write, and
     because a completed fsync barrier awaits every head's unflushed
     batches, nothing at or beyond its sequence number (in any chain)
     was ever acknowledged — and a surviving write there may reference
     payloads, in another head's chain, that never made it.  So that
     sequence number is a global [cutoff]. *)
  let verified = ref 0 in
  let latest = Hashtbl.create 64 in
  let rec roll acc = function
    | [] -> (List.rev acc, max_int)
    | (s : Summary.t) :: rest -> (
        let decoded =
          if s.Summary.seq < watermark then
            Some (decode_payloads r ~latest s ~whole:None)
          else
            Option.map
              (fun b -> decode_payloads r ~latest s ~whole:(Some b))
              (verified_payload r s ~verified)
        in
        Scratch.give r.payload;
        match decoded with
        | None -> (List.rev acc, s.Summary.seq)
        | Some decoded -> roll ({ summary = s; decoded } :: acc) rest)
  in
  let writes, cutoff =
    Array.to_list chains
    |> List.concat_map (fun c ->
           List.filter (fun s -> s.Summary.seq >= log_seq) c.steps)
    |> List.sort (fun a b -> compare a.Summary.seq b.Summary.seq)
    |> roll []
  in
  (* Each head resumes at its first summary at or past the cutoff, or
     just past its last one. *)
  let tails =
    Array.mapi
      (fun i c ->
        let tail_at (s : Summary.t) ~off =
          { Log_writer.seg = s.Summary.seg; off; next_seg = s.Summary.next_seg }
        in
        match List.find_opt (fun s -> s.Summary.seq >= cutoff) c.steps with
        | Some s -> tail_at s ~off:s.Summary.slot
        | None -> (
            match List.rev c.steps with
            | s :: _ -> tail_at s ~off:(Summary.next_slot s)
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
        (fun (i, d) ->
          match d with
          | Inodes slots ->
              let block = Summary.entry_addr w.summary layout i in
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
