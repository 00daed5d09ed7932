module Vdev = Lfs_disk.Vdev

type write = { summary : Summary.t; blocks : (int * bytes) list }

type result = {
  writes : write list;
  tails : Log_writer.position array;
  next_seq : int;
  segments_scanned : int;
}

(* Whether entry [i] of a summary must be loaded during the scan:
   recovery reprocesses inodes and directory-log records; data blocks
   stay where they are and are only referenced by address. *)
let needs_payload (e : Summary.entry) =
  match e.Summary.kind with
  | Types.Inode_block | Types.Dir_log -> true
  | Types.Data | Types.Indirect | Types.Dindirect | Types.Imap
  | Types.Seg_usage | Types.Summary ->
      false

let load_blocks layout disk s =
  List.concat
    (List.mapi
       (fun i e ->
         if needs_payload e then
           [ (i, Vdev.read_block disk (Summary.entry_addr s layout i)) ]
         else [])
       s.Summary.entries)

(* One head's chain walk.  [steps] are the intact summaries in walk
   order (strictly increasing seq); [torn] is the first summary whose
   payload failed its checksum, which ends the chain. *)
type chain = {
  steps : Summary.t list;
  torn : Summary.t option;
  scanned : int;
}

let walk_chain layout disk ~ckpt ~start_seg =
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
      Summary.walk_segment ~seg_blocks ~seg
        ~read:(fun slot -> Vdev.read_block disk (first + slot))
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
            s.Summary.seq < ckpt.Checkpoint.log_seq
            ||
            let payload =
              Vdev.read_blocks disk (first + s.Summary.slot + 1)
                (List.length s.Summary.entries)
            in
            Summary.payload_checksum payload = s.Summary.payload_sum
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
  let chains =
    Array.map
      (fun (h : Log_writer.position) ->
        walk_chain layout disk ~ckpt ~start_seg:h.seg)
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
    |> List.map (fun s -> { summary = s; blocks = load_blocks layout disk s })
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
