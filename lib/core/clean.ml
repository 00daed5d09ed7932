(* The segment cleaner's mechanism (Sections 3.3-3.6): read victims,
   identify their live data, relocate it, and the watermarks that decide
   when.  The foreground [clean] and the idle-time [clean_step] both run
   through [drive]; {!Cleaner} holds the pure victim policies. *)

open Fs_state

(* One buffer flush can consume several segments before the cleaner gets
   another chance to run — in the worst case every buffered block belongs
   to a different large file and drags two indirect-block rewrites and an
   inode with it — so the trigger must leave that much headroom
   regardless of the configured threshold. *)
let flush_need t =
  ((3 * t.config.Config.write_buffer_blocks) + t.layout.Layout.seg_blocks - 1)
  / t.layout.Layout.seg_blocks

(* Each write head beyond the first pins one extra clean segment as its
   standing reservation; those count as "clean" in the usage table but
   can never be handed out, so the watermarks must sit above them. *)
let head_reserve t = t.config.Config.log_heads - 1

let clean_start_effective t =
  max t.config.Config.clean_start (flush_need t + 2) + head_reserve t

let clean_stop_effective t =
  max (t.config.Config.clean_stop + head_reserve t) (clean_start_effective t + 2)

(* Victims a budgeted pass may take: [max_segments], default
   [segs_per_pass]. *)
let pass_size t max_segments =
  match max_segments with
  | Some n -> max 1 n
  | None -> t.config.Config.segs_per_pass

(* {1 Reading victims} *)

(* Read [addrs] into [prefetched], coalescing consecutive addresses into
   one ranged read each.  Runs contain exactly the requested blocks (no
   dead filler), so the read accounting still reflects "just the live
   blocks"; going through [t.dev] keeps the block cache coherent and
   lets already-cached blocks satisfy part of a run. *)
let prefetch_runs t ~prefetched addrs =
  let addrs =
    List.sort_uniq compare
      (List.filter (fun a -> not (Hashtbl.mem prefetched a)) addrs)
  in
  let bs = block_size t in
  let read_run first len =
    Metrics.incr ~by:len t.acct.cleaner_read;
    let buf = Vdev.read_blocks t.dev first len in
    for i = 0 to len - 1 do
      Hashtbl.replace prefetched (first + i) (Bytes.sub buf (i * bs) bs)
    done
  in
  let rec go = function
    | [] -> ()
    | first :: rest ->
        let rec run last = function
          | a :: more when a = last + 1 -> run a more
          | tail ->
              read_run first (last - first + 1);
              go tail
        in
        run first rest
  in
  go addrs

(* Every log write a victim's summary chain describes, as (entry,
   address, payload thunk) triples; [read] fetches the block at an
   address.  The cleaner applies no sequence rule: a stale summary from a
   previous life of the segment, sitting where the chain continues, is
   walked too, and the entries it describes simply fail the liveness
   checks. *)
let victim_entries t ~seg ~read ~payload =
  let first = Layout.seg_first_block t.layout seg in
  let results = ref [] in
  Summary.walk_segment ~seg_blocks:t.layout.Layout.seg_blocks ~seg
    ~read:(fun slot -> read (first + slot))
    (fun s ->
      List.iteri
        (fun i e ->
          let addr = first + s.Summary.slot + 1 + i in
          results := (e, addr, payload addr) :: !results)
        s.Summary.entries;
      true);
  List.rev !results

(* A victim's entries under the mount's read policy: the whole segment
   in one read, or only what liveness checks and relocation need
   (Section 3.4's untried idea). *)
let read_victim t ~prefetched seg =
  match t.config.Config.cleaner_read with
  | Config.Whole_segment ->
      let first = Layout.seg_first_block t.layout seg in
      let buf = Vdev.read_blocks t.dev first t.layout.Layout.seg_blocks in
      Metrics.incr ~by:t.layout.Layout.seg_blocks t.acct.cleaner_read;
      let bs = block_size t in
      let block addr = Bytes.sub buf ((addr - first) * bs) bs in
      victim_entries t ~seg ~read:block ~payload:(fun addr () -> block addr)
  | Config.Live_blocks ->
      (* Payload thunks serve from [prefetched] when a coalescing pass
         already pulled the block in, and fall back to a single cached
         read otherwise — the device is only ever charged for blocks
         actually needed. *)
      let read addr =
        Metrics.incr t.acct.cleaner_read;
        Vdev.read_block t.dev addr
      in
      let entries =
        victim_entries t ~seg ~read ~payload:(fun addr () ->
            match Hashtbl.find_opt prefetched addr with
            | Some b -> b
            | None -> read addr)
      in
      (* Classification decodes inode blocks immediately; pull them in
         as coalesced runs before it starts. *)
      prefetch_runs t ~prefetched
        (List.filter_map
           (fun ((e : Summary.entry), addr, _) ->
             match e.Summary.kind with
             | Types.Inode_block -> Some addr
             | _ -> None)
           entries);
      entries

(* {1 Liveness and relocation} *)

type live_item =
  | Live_data of {
      ino : Types.ino;
      blockno : int;
      version : int;
      payload : unit -> bytes;
          (** whole-segment cleaning hands out a slice of the segment
              image; live-blocks cleaning reads the block on demand *)
      mtime : float;
    }
  | Live_indirect of { ino : Types.ino; sblockno : int }
  | Live_inode of Types.ino
  | Live_table_block of table * int

(* Liveness tests of Section 3.3: version (uid) first — a stale version
   discards the block with no further IO — then the block pointer. *)
let classify_live t (e : Summary.entry) addr payload =
  let current_version () =
    Inode_map.is_allocated t.imap e.Summary.ino
    && Inode_map.version t.imap e.Summary.ino = e.Summary.version
  in
  match e.Summary.kind with
  | Types.Summary | Types.Dir_log -> []
  | Types.Data ->
      if
        current_version ()
        && Filemap.get (get_handle t e.Summary.ino).fmap e.Summary.blockno = addr
      then
        [
          Live_data
            {
              ino = e.Summary.ino;
              blockno = e.Summary.blockno;
              version = e.Summary.version;
              payload;
              mtime = e.Summary.mtime;
            };
        ]
      else []
  | Types.Indirect | Types.Dindirect ->
      if
        current_version ()
        && Filemap.indirect_addr (get_handle t e.Summary.ino).fmap
             ~sblockno:e.Summary.blockno
           = addr
      then [ Live_indirect { ino = e.Summary.ino; sblockno = e.Summary.blockno } ]
      else []
  | Types.Inode_block ->
      let payload = payload () in
      let acc = ref [] in
      for slot = 0 to t.layout.Layout.inodes_per_block - 1 do
        match Inode.decode payload ~slot with
        | None -> ()
        | Some inode ->
            let ino = inode.Inode.ino in
            if
              ino >= 0
              && ino < Inode_map.max_inodes t.imap
              && Types.Iaddr.equal
                   (Inode_map.location t.imap ino)
                   (Types.Iaddr.make ~block:addr ~slot)
            then acc := Live_inode ino :: !acc
      done;
      List.rev !acc
  | Types.Imap | Types.Seg_usage ->
      let tb = List.find (fun tb -> tb.kind = e.Summary.kind) t.tables in
      let i = e.Summary.blockno in
      if i >= 0 && i < tb.nblocks && tb.addr i = addr then
        [ Live_table_block (tb, i) ]
      else []

let relocate_item t item =
  match item with
  | Live_data { ino; blockno; version; payload; mtime } ->
      let h = get_handle t ino in
      let old = Filemap.get h.fmap blockno in
      let addr =
        append_block t ~kind:Types.Data ~ino ~blockno ~version ~mtime
          (Log_writer.Bytes (payload ()))
      in
      Filemap.set h.fmap blockno addr;
      h.inode_dirty <- true;
      if old <> Types.nil_addr then kill t old ~bytes:(block_size t)
  | Live_indirect { ino; sblockno } ->
      let h = get_handle t ino in
      Filemap.mark_indirect_dirty h.fmap ~sblockno;
      h.inode_dirty <- true
  | Live_inode ino ->
      let h = get_handle t ino in
      h.inode_dirty <- true
  | Live_table_block (tb, i) -> rewrite_table_block t tb i

let clean_victims t ~bg victims =
  (* Read the victims and identify live data across all of them, then
     write the survivors out grouped by the mount-time policy. *)
  Seg_pool.cleaning t.pool victims @@ fun () ->
  Metrics.incr (if bg then t.obs.bg_passes else t.obs.fg_passes);
  Metrics.incr
    ~by:(List.length victims)
    (if bg then t.obs.bg_segments else t.obs.fg_segments);
  let prefetched = Hashtbl.create 64 in
  let live = ref [] in
  let data_addrs = ref [] in
  List.iter
    (fun seg ->
      let u = Seg_usage.utilization t.usage seg in
      Metrics.dist_add t.obs.victim_u u;
      Metrics.observe t.obs.victim_fill u;
      Metrics.observe t.obs.victim_age
        (Float.max 0.0 (t.clock -. Seg_usage.mtime t.usage seg));
      if Seg_usage.live_bytes t.usage seg > 0 then
        List.iter
          (fun (e, addr, payload) ->
            List.iter
              (fun item ->
                (match item with
                | Live_data _ -> data_addrs := addr :: !data_addrs
                | _ -> ());
                live := (item, e.Summary.mtime) :: !live)
              (classify_live t e addr payload))
          (read_victim t ~prefetched seg))
    victims;
  (* Live data payloads are only read at relocation time; now that the
     live set is known, fetch it as coalesced runs across all victims so
     the thunks hit [prefetched] instead of seeking block by block. *)
  (match t.config.Config.cleaner_read with
  | Config.Live_blocks -> prefetch_runs t ~prefetched !data_addrs
  | Config.Whole_segment -> ());
  let ordered =
    Cleaner.order_for_grouping ~grouping:t.config.Config.grouping_policy
      (List.rev !live)
  in
  attributed t ~cleaner:true (fun () ->
      List.iter (relocate_item t) ordered;
      flush t ~cleaner:true);
  (* Everything live has been relocated; the victims must be empty. *)
  List.iter
    (fun seg ->
      let left = Seg_usage.live_bytes t.usage seg in
      if left <> 0 then
        Types.corrupt "segment %d still has %d live bytes after cleaning" seg
          left;
      Seg_usage.set_clean t.usage seg)
    victims

(* {1 Passes} *)

(* A background pass must compact, not merely copy: relocating a
   (nearly) fully-live segment consumes as much clean space as it frees,
   so an idle loop at a pool it cannot raise would churn the disk
   forever.  The emergency path keeps no such floor — under
   [clean_start] any yield matters. *)
let bg_max_u = 0.95

(* One budgeted victim batch.  [candidates] holds the dirty-segment ids
   scanned once by [drive]; cleaned victims are subtracted so later
   passes never re-walk the whole usage table.  Utilisation and age are
   still re-read per pass (relocation changes both).  Returns
   [(cleaned, freed)]: how many victims the pass consumed and the net
   change in clean segments — a pass can clean a victim yet free nothing
   this step (the relocation rolled the log into a fresh segment) while
   still compacting. *)
let clean_pass t ~bg ~max_victims ~candidates =
  op_span t (if bg then t.obs.bg_busy else t.obs.fg_busy) @@ fun () ->
  let before = clean_segment_count t in
  let scored =
    Fs_state.candidates t ~keep:(fun _ -> true) !candidates
    |> List.filter (fun c -> (not bg) || c.Cleaner.u <= bg_max_u)
  in
  (* Below the critical threshold (the pool can no longer absorb even
     one buffer flush), yield is all that matters: fall back to greedy
     so a cost-benefit (or ablation) policy that favours old nearly-full
     segments cannot starve the writer of clean segments. *)
  let policy =
    if Seg_pool.length t.pool < flush_need t then Config.Greedy
    else t.config.Config.cleaning_policy
  in
  let victims =
    Cleaner.select ~policy
      ~rand:(fun n -> Prng.int t.rng n)
      ~candidates:scored ~count:max_victims ()
  in
  (* Relocation writes into clean segments before any victim is freed,
     so bound the pass by what the reusable pool can absorb, keeping one
     segment of slack for the checkpoint and 30% headroom for the inode
     and indirect blocks rewritten alongside the relocated data. *)
  let budget = Float.max 0.7 (float_of_int (Seg_pool.length t.pool - 1)) in
  let victims =
    let acc = ref 0.0 in
    List.filter
      (fun s ->
        let cost = (Seg_usage.utilization t.usage s *. 1.3) +. 0.05 in
        if !acc +. cost <= budget then begin
          acc := !acc +. cost;
          true
        end
        else false)
      victims
  in
  if victims = [] then (0, 0)
  else begin
    clean_victims t ~bg victims;
    (* Persist the pass: victims only become reusable once the
       checkpoint no longer references their old contents. *)
    checkpoint t;
    candidates := List.filter (fun s -> not (List.mem s victims)) !candidates;
    (List.length victims, clean_segment_count t - before)
  end

(* {1 Running the cleaner} *)

(* Both regimes run [body] here: marked as the cleaner (so appends,
   promotion and re-entry know), on a flushed file cache, over one scan
   of the usage table's dirty segments that its passes subtract from. *)
let drive t body =
  t.in_cleaner <- true;
  Fun.protect
    ~finally:(fun () -> t.in_cleaner <- false)
    (fun () ->
      flush t ~cleaner:false;
      body (ref (Seg_usage.dirty_segments t.usage)))

(* Foreground cleaning: passes until the pool reaches the stop
   watermark.  The whole invocation — flush, passes, checkpoints —
   stalls the caller that triggered it. *)
let clean t =
  if not t.in_cleaner then
    op_span t t.obs.cleaner_stall (fun () ->
        drive t (fun candidates ->
            let continue_cleaning = ref true in
            while
              !continue_cleaning && clean_segment_count t < clean_stop_effective t
            do
              let _, freed =
                clean_pass t ~bg:false
                  ~max_victims:t.config.Config.segs_per_pass ~candidates
              in
              if freed <= 0 then continue_cleaning := false
            done;
            (* Segments that emptied by themselves since the last
               checkpoint also only become reusable once a checkpoint
               stops referencing their contents — so always finish with
               one, even when no pass ran. *)
            checkpoint t))

(* The foreground trigger: the pool can no longer absorb what the next
   buffer flushes may need. *)
let maybe_clean t =
  if (not t.in_cleaner) && Seg_pool.length t.pool < clean_start_effective t
  then clean t

(* {1 Idle-time background cleaning}

   The paper suggests cleaning "at night or during idle periods"
   (Section 4): an idle caller pulls the clean pool up to a high
   watermark well above the emergency threshold, so foreground writers
   (almost) never hit the stall in [clean].  The effective watermarks sit
   strictly above the foreground trigger, [clean_start_effective]. *)

let bg_clean_start_effective t =
  max t.config.Config.bg_clean_start (clean_start_effective t + 1)

let bg_clean_stop_effective t =
  max t.config.Config.bg_clean_stop (bg_clean_start_effective t + 2)

(* Hysteresis latch: engage when the pool falls below the low watermark,
   stay engaged until it refills to the high one.  Returns the segments
   still owed (0 = nothing to do right now). *)
let bg_pending t =
  let n = clean_segment_count t in
  if t.bg_active then
    if n >= bg_clean_stop_effective t then begin
      t.bg_active <- false;
      0
    end
    else bg_clean_stop_effective t - n
  else if n < bg_clean_start_effective t then begin
    t.bg_active <- true;
    bg_clean_stop_effective t - n
  end
  else 0

let bg_clean_step t ~max_victims =
  if t.in_cleaner || bg_pending t = 0 then 0
  else
    drive t (fun candidates ->
        let cleaned, _freed = clean_pass t ~bg:true ~max_victims ~candidates in
        if cleaned = 0 then begin
          (* Nothing worth cleaning: every remaining dirty segment is
             pinned, nearly fully live, or over budget.  Disengage so an
             idle caller stops spinning — the watermarks may simply be
             unreachable at this utilisation; the latch re-arms when the
             pool next drains below the low watermark.  (A pass that
             cleaned a victim but freed nothing net still compacted — the
             log just rolled into a fresh segment — so it keeps the latch
             engaged.) *)
          t.bg_active <- false;
          0
        end
        else bg_pending t)

(* An idle step first serves the compaction watermarks (clean space is
   the scarcer resource), then spends leftover idleness demoting cold
   segments off the fast tier.  It also restocks the reusable pool:
   segments that emptied since the last checkpoint only become reusable
   once a checkpoint stops referencing their contents, and when the
   clean pool is already above the bg watermarks no pass runs to
   provide one — left alone, the pool drains until a foreground write
   hits the emergency [clean] stall.  Paying for the checkpoint here
   keeps it in the idle window. *)
let clean_step ?max_segments t =
  (* The gap must clear 2 per write head because the pool's refresh
     always excludes every head's current and reserved segment — a
     smaller gap means a checkpoint would recover nothing, and firing on
     it would checkpoint on every idle step, forever. *)
  if
    (not t.in_cleaner)
    && Seg_pool.length t.pool < bg_clean_stop_effective t
    && clean_segment_count t - Seg_pool.length t.pool > 2 * t.config.Config.log_heads
  then checkpoint t;
  let max_victims = pass_size t max_segments in
  let owed = bg_clean_step t ~max_victims in
  if owed > 0 then owed else Tier_policy.demote_step t ~max_victims
