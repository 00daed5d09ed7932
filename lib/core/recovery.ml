module Vdev = Lfs_disk.Vdev
module Io_queue = Lfs_disk.Io_queue

type decoded = Inodes of (int * Types.ino) list | Records of Dir_log.record list
type write = { summary : Summary.t; decoded : (int * decoded) list }

type result = {
  writes : write list;
  tails : Log_writer.position array;
  next_seq : int;
  segments_scanned : int;
}

(* {1 Reading the log into the reader's own buffers} *)

type reader = {
  dev : Vdev.t;
  layout : Layout.t;
  block : bytes;  (* one block: the summary being walked *)
  mutable payload : bytes;  (* grown to the largest payload verified *)
}

let reader layout dev =
  { dev; layout; block = Bytes.create layout.Layout.block_size; payload = Bytes.empty }

let read_block r addr =
  ignore (Vdev.submit_read_into r.dev addr 1 r.block ~pos:0 : Io_queue.ticket);
  r.block

(* Recovery reprocesses inodes and directory-log records; data blocks
   stay where they are and are only referenced by address.  So the scan
   reads each inode and dir-log block of a write through the reader's
   block buffer and keeps only what the digest uses: the ino in each
   occupied inode slot, and the decoded records. *)
let decode_payloads r s =
  List.concat
    (List.mapi
       (fun i (e : Summary.entry) ->
         match e.Summary.kind with
         | Types.Inode_block ->
             let b = read_block r (Summary.entry_addr s r.layout i) in
             let slots = ref [] in
             for slot = r.layout.Layout.inodes_per_block - 1 downto 0 do
               match Inode.decode_ino b ~slot with
               | Some ino -> slots := (slot, ino) :: !slots
               | None -> ()
             done;
             [ (i, Inodes !slots) ]
         | Types.Dir_log ->
             let b = read_block r (Summary.entry_addr s r.layout i) in
             [ (i, Records (Dir_log.decode_block b)) ]
         | Types.Data | Types.Indirect | Types.Dindirect | Types.Imap
         | Types.Seg_usage | Types.Summary ->
             [])
       s.Summary.entries)

let payload_intact r (s : Summary.t) =
  let n = List.length s.Summary.entries in
  let len = n * r.layout.Layout.block_size in
  if Bytes.length r.payload < len then r.payload <- Bytes.create len;
  ignore
    (Vdev.submit_read_into r.dev (Summary.entry_addr s r.layout 0) n r.payload
       ~pos:0
      : Io_queue.ticket);
  Summary.payload_checksum ~len r.payload = s.Summary.payload_sum

(* One head's chain walk.  [steps] are the intact summaries in walk
   order (strictly increasing seq); [torn] is the first summary whose
   payload failed its checksum, which ends the chain. *)
type chain = {
  steps : Summary.t list;
  torn : Summary.t option;
  scanned : int;
}

let walk_chain layout r ~ckpt ~start_seg =
  let seg_blocks = layout.Layout.seg_blocks in
  let steps = ref [] in
  let torn = ref None in
  let scanned = ref 0 in
  let visited = Hashtbl.create 16 in
  (* [last_seq] grows strictly along the walk; summaries written before
     the checkpoint (or left over from a segment's previous life) fail
     this floor or the walker's self-identification test and end the
     walk.  A segment is always entered at slot 0, so remembering the
     segments entered is enough to break a [next_seg] cycle. *)
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
          &&
          (* Every post-checkpoint write must verify its payload
             checksum: with queued submission the device commits blocks
             out of submission order, so a crash can persist a later
             summary while an earlier write's payload never made it.
             The first torn write ends this chain — and, because the
             fsync barrier spans every head, truncates all chains at its
             sequence number (see [scan]). *)
          let intact =
            s.Summary.seq < ckpt.Checkpoint.log_seq || payload_intact r s
          in
          if not intact then torn := Some s
          else begin
            steps := s :: !steps;
            last_seq := s.Summary.seq;
            if Summary.next_slot s > seg_blocks - 2 then exhausted := Some s
          end;
          intact);
      (* Segment exhausted: follow the head's thread. *)
      match !exhausted with
      | None -> ()
      | Some s ->
          incr scanned;
          if s.Summary.next_seg >= 0 && s.Summary.next_seg < layout.Layout.nsegs
          then walk_segment s.Summary.next_seg
    end
  in
  (* Start from the head of the checkpoint's tail segment: writes earlier
     in that segment predate the checkpoint and are skipped by the seq
     filter, but they carry the chain to the post-checkpoint tail. *)
  incr scanned;
  walk_segment start_seg;
  { steps = List.rev !steps; torn = !torn; scanned = !scanned }

let scan layout disk ~ckpt =
  let r = reader layout disk in
  let chains =
    Array.map
      (fun (h : Log_writer.position) ->
        walk_chain layout r ~ckpt ~start_seg:h.seg)
      ckpt.Checkpoint.heads
  in
  (* The durability frontier is global: a completed fsync barrier awaits
     every head's unflushed batches, so nothing with a sequence number at
     or beyond the earliest torn write was ever acknowledged — and a
     surviving write there may reference payloads (in another head's
     chain) that never made it.  Truncate every chain at that point. *)
  let cutoff =
    Array.fold_left
      (fun acc c ->
        match c.torn with Some s -> min acc s.Summary.seq | None -> acc)
      max_int chains
  in
  let tails =
    Array.mapi
      (fun i c ->
        let h = ckpt.Checkpoint.heads.(i) in
        let kept, rejected =
          List.partition (fun s -> s.Summary.seq < cutoff) c.steps
        in
        let tail_at (s : Summary.t) ~off =
          { Log_writer.seg = s.Summary.seg; off; next_seg = s.Summary.next_seg }
        in
        match (rejected, c.torn) with
        | s :: _, _ | [], Some s -> tail_at s ~off:s.Summary.slot
        | [], None -> (
            match List.rev kept with
            | s :: _ -> tail_at s ~off:(Summary.next_slot s)
            | [] -> h))
      chains
  in
  (* Roll-forward merges the chains back into one log order by the
     shared sequence number. *)
  let writes =
    Array.to_list chains
    |> List.concat_map (fun c ->
           List.filter
             (fun s ->
               s.Summary.seq < cutoff
               && s.Summary.seq >= ckpt.Checkpoint.log_seq)
             c.steps)
    |> List.sort (fun a b -> compare a.Summary.seq b.Summary.seq)
    |> List.map (fun s -> { summary = s; decoded = decode_payloads r s })
  in
  let next_seq =
    if cutoff < max_int then cutoff
    else
      List.fold_left
        (fun acc w -> max acc (w.summary.Summary.seq + 1))
        ckpt.Checkpoint.log_seq writes
  in
  {
    writes;
    tails;
    next_seq;
    segments_scanned =
      Array.fold_left (fun acc c -> acc + c.scanned) 0 chains;
  }

(* {1 The roll-forward digest} *)

type dirop = { op : Dir_log.record; stale_add : bool; survives_reuse : bool }

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
     incarnation, and the create's own inode never reached the log. *)
  let stale_add = Array.make n false in
  let freed = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    match records.(i) with
    | seq, Dir_log.Add { ino; fresh = true; _ } ->
        stale_add.(i) <-
          Hashtbl.mem freed ino
          && (match carried ino with Some s -> s < seq | None -> true)
    | _, Dir_log.Remove { ino; nlink; _ } when nlink <= 0 ->
        Hashtbl.replace freed ino ()
    | _ -> ()
  done;
  (* A [Remove] whose ino a later fresh [Add] re-creates, and that new
     incarnation reached the log: the inode belongs to the new file. *)
  let survives_reuse = Array.make n false in
  let next_fresh_add = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    match records.(i) with
    | seq, Dir_log.Add { ino; fresh = true; _ } ->
        Hashtbl.replace next_fresh_add ino seq
    | _, Dir_log.Remove { ino; _ } ->
        survives_reuse.(i) <-
          (match (Hashtbl.find_opt next_fresh_add ino, carried ino) with
          | Some add_seq, Some s -> s >= add_seq
          | _ -> false)
    | _ -> ()
  done;
  List.init n (fun i ->
      {
        op = snd records.(i);
        stale_add = stale_add.(i);
        survives_reuse = survives_reuse.(i);
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
