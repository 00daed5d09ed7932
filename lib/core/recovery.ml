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

(* {1 The roll-forward digest} *)

type dirop = { op : Dir_log.record; stale_add : bool; survives_reuse : bool }

type digest = {
  inodes : (Types.ino * Types.Iaddr.t) list;
  dirops : dirop list;
  data_blocks : int;
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
  List.iter
    (fun w ->
      let seq = w.summary.Summary.seq in
      List.iteri
        (fun i (e : Summary.entry) ->
          match e.Summary.kind with
          | Types.Inode_block ->
              let payload = List.assoc i w.blocks in
              let block = Summary.entry_addr w.summary layout i in
              for slot = 0 to layout.Layout.inodes_per_block - 1 do
                match Inode.decode payload ~slot with
                | None -> ()
                | Some inode ->
                    Hashtbl.replace latest inode.Inode.ino
                      (Types.Iaddr.make ~block ~slot, seq)
              done
          | Types.Data -> incr data_blocks
          | Types.Dir_log ->
              List.iter
                (fun r -> records := (seq, r) :: !records)
                (Dir_log.decode_block (List.assoc i w.blocks))
          | Types.Indirect | Types.Dindirect | Types.Imap | Types.Seg_usage
          | Types.Summary ->
              ())
        w.summary.Summary.entries)
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
  }
