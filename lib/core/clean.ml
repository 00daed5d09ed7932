(* The segment cleaner's mechanism (Sections 3.3-3.6): read victims,
   identify their live data, relocate it, and the watermarks that decide
   when.  The foreground [clean] and the idle-time [clean_step] both run
   through [drive]; {!Cleaner} holds the pure victim policies. *)

open Fs_state

(* Victims a budgeted pass may take: [max_segments], default
   [segs_per_pass]. *)
let pass_size t max_segments =
  match max_segments with
  | Some n -> max 1 n
  | None -> t.config.Config.segs_per_pass

(* {1 Reading victims}

   A pass reads each victim into a one-segment buffer of its own from
   the mount's pool [t.victim_bufs], every block at its slot's offset.
   Relocation copies payloads out of them into the log writer's
   batches, and the pass ends with a flush that writes every head's
   batch, so no reference into the buffers outlives the pass, which
   then gives them back. *)

(* Read [len] blocks from [first] into [buf] at byte [pos]: resident
   blocks come from the block cache, missed runs from the device, and
   nothing enters the cache — the pass reads victims into its own
   memory (Section 3.3), so they push no client block out. *)
let read_into t first len buf ~pos =
  Metrics.incr ~by:len t.acct.cleaner_read;
  Vdev_cache.submit_read_no_fill t.cache first len buf ~pos

(* Liveness tests of Section 3.3 for a data block: version (uid) first —
   a stale version discards the block with no further IO — then the
   block pointer. *)
let current_version t (e : Summary.entry) =
  Inode_map.is_allocated t.imap e.Summary.ino
  && Inode_map.version t.imap e.Summary.ino = e.Summary.version

let data_live t (e : Summary.entry) addr =
  current_version t e
  && Filemap.get (get_handle t e.Summary.ino).fmap e.Summary.blockno = addr

(* {1 Liveness and relocation} *)

type live_item =
  | Live_data of {
      from : Types.baddr;  (** the victim block being relocated *)
      ino : Types.ino;
      blockno : int;
      version : int;
      payload : unit -> bytes * int;
          (** the block as the victim's buffer and its byte offset
              there *)
      mtime : float;
    }
  | Live_indirect of { ino : Types.ino; sblockno : int }
  | Live_inode of Types.ino
  | Live_table_block of table * int

(* The live items an entry of a victim stands for (Section 3.3). *)
let classify_live t (e : Summary.entry) addr payload =
  match e.Summary.kind with
  | Types.Summary | Types.Dir_log -> []
  | Types.Data ->
      if data_live t e addr then
        [
          Live_data
            {
              from = addr;
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
        current_version t e
        && Filemap.indirect_addr (get_handle t e.Summary.ino).fmap
             ~sblockno:e.Summary.blockno
           = addr
      then [ Live_indirect { ino = e.Summary.ino; sblockno = e.Summary.blockno } ]
      else []
  | Types.Inode_block ->
      let b, pos = payload () in
      let acc = ref [] in
      for slot = 0 to t.layout.Layout.inodes_per_block - 1 do
        match Inode.decode_ino b ~pos ~slot with
        | None -> ()
        | Some ino ->
            if inode_at t ino (Types.Iaddr.make ~block:addr ~slot) then
              acc := Live_inode ino :: !acc
      done;
      List.rev !acc
  | Types.Imap | Types.Seg_usage ->
      let tb = List.find (fun tb -> tb.kind = e.Summary.kind) t.tables in
      let i = e.Summary.blockno in
      if i >= 0 && i < tb.nblocks && tb.addr i = addr then
        [ Live_table_block (tb, i) ]
      else []

(* A victim's live items (Section 3.3), each with the mtime its
   relocation is grouped by.  The mount's read policy decides what is
   read: the whole segment in one transfer, or (Section 3.4's untried
   idea) one ascending sweep of the summary chain that reads, write by
   write, only each inode block and each still-live data block, by
   {!Summary.walk_segment}'s read rule.  Either way every block lands
   at its slot's offset of the victim's buffer.  An inline inode is
   classified from the summary the walk already holds, at the
   summary's own address.  The cleaner applies no sequence rule: a
   stale summary from a previous life of the segment, sitting where the
   chain continues, is walked too, and the entries it describes simply
   fail the liveness checks.  A victim read ahead ({!read_ahead})
   comes with its buffer, and only blocks it lacks are read.  Returns
   the read and the live items. *)
let read_victim t seg =
  let first = Layout.seg_first_block t.layout seg and bs = block_size t in
  let a =
    match List.partition (fun a -> a.seg = seg) t.ahead with
    | a :: _, rest ->
        t.ahead <- rest;
        (* A pass relocates from the buffer, so its reads come first: a
           background pass finds them done, a foreground one forces
           them. *)
        List.iter (fun tk -> ignore (Lfs_disk.Io_queue.await tk : float)) a.reads;
        a
    | [], _ ->
        {
          seg;
          buf = Buf_pool.take t.victim_bufs;
          have = Array.make t.layout.Layout.seg_blocks false;
          reads = [];
        }
  in
  let read slot len =
    let held = ref true in
    for i = slot to slot + len - 1 do
      held := !held && a.have.(i)
    done;
    if not !held then begin
      a.reads <- read_into t (first + slot) len a.buf ~pos:(slot * bs) :: a.reads;
      Array.fill a.have slot len true
    end;
    (a.buf, slot * bs)
  in
  let whole = t.config.Config.cleaner_read = Config.Whole_segment in
  if whole then ignore (read 0 t.layout.Layout.seg_blocks);
  let need s i (e : Summary.entry) =
    (not whole)
    &&
    match e.Summary.kind with
    | Types.Inode_block -> true
    | Types.Data -> data_live t e (Summary.entry_addr s t.layout i)
    | _ -> false
  in
  let walked = ref [] in
  ignore
    (Summary.walk_segment t.layout ~seg
       ~read:(fun slot -> read slot 1)
       ~need
       ~read_run:(fun s run ->
         read (s.Summary.slot + 1 + run.Summary.first) run.Summary.blocks)
       (fun s ->
         walked := s :: !walked;
         true)
      : bool);
  (* Classified once the walk is done, so the handles liveness loads
     are read after the victim. *)
  let items =
    List.concat_map
      (fun s ->
        List.concat
          (List.mapi
             (fun i (e : Summary.entry) ->
               let addr = Summary.entry_addr s t.layout i in
               classify_live t e addr (fun () -> (a.buf, (addr - first) * bs))
               |> List.map (fun item -> (item, e.Summary.mtime)))
             s.Summary.entries)
        @ List.filter_map
            (fun (iaddr, (inode : Inode.t)) ->
              if inode_at t inode.Inode.ino iaddr then
                Some (Live_inode inode.Inode.ino, inode.Inode.mtime)
              else None)
            (Summary.inline_inodes s t.layout))
      (List.rev !walked)
  in
  (a, items)

let relocate_item t item =
  match item with
  | Live_data { from; ino; blockno; version; payload; mtime } ->
      let h = get_handle t ino in
      let old = Filemap.get h.fmap blockno in
      let b, pos = payload () in
      let addr =
        append_block t ~from ~kind:Types.Data ~ino ~blockno ~version ~mtime
          (Log_writer.Bytes (b, pos))
      in
      Filemap.set h.fmap blockno addr;
      mark_dirty t ino;
      if old <> Types.nil_addr then kill t old ~bytes:(block_size t)
  | Live_indirect { ino; sblockno } ->
      let h = get_handle t ino in
      Filemap.mark_indirect_dirty h.fmap ~sblockno;
      mark_dirty t ino
  | Live_inode ino ->
      (* Cached first: the flush writes the dirty set from the handles. *)
      ignore (get_handle t ino : handle);
      mark_dirty t ino
  | Live_table_block (tb, i) -> rewrite_table_block t tb i

let clean_victims t ~bg victims =
  (* Read the victims and identify live data across all of them, then
     write the survivors out grouped by the mount-time policy. *)
  Seg_pool.cleaning t.pool victims @@ fun () ->
  Metrics.incr (if bg then t.obs.bg_passes else t.obs.fg_passes);
  Metrics.incr
    ~by:(List.length victims)
    (if bg then t.obs.bg_segments else t.obs.fg_segments);
  t.pass_bufs <- [];
  let live = ref [] in
  List.iter
    (fun seg ->
      let u = Seg_usage.utilization t.usage seg in
      Metrics.dist_add t.obs.victim_u u;
      Metrics.observe t.obs.victim_fill u;
      Metrics.observe t.obs.victim_age
        (Float.max 0.0 (t.clock -. Seg_usage.mtime t.usage seg));
      if Seg_usage.live_bytes t.usage seg > 0 then begin
        let a, items = read_victim t seg in
        t.pass_bufs <- a.buf :: t.pass_bufs;
        live := List.rev_append items !live
      end)
    victims;
  let ordered =
    Cleaner.order_for_grouping ~grouping:t.config.Config.grouping_policy
      (List.rev !live)
  in
  attributed t ~cleaner:true (fun () ->
      List.iter (relocate_item t) ordered;
      flush t ~cleaner:true);
  List.iter (Buf_pool.give t.victim_bufs) t.pass_bufs;
  t.pass_bufs <- [];
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

(* The victims of one budgeted batch, from the dirty-segment ids in
   [candidates]: the policy's pick — or, for a background pass, the
   victims read ahead for it that are still worth cleaning — bounded
   by what the reusable pool can absorb. *)
let choose_victims t ~bg ~max_victims ~candidates =
  let scored =
    Fs_state.candidates t ~keep:(fun _ -> true) !candidates
    |> List.filter (fun c -> (not bg) || c.Cleaner.u <= bg_max_u)
  in
  let victims =
    if bg && t.ahead <> [] then
      List.filter
        (fun seg -> List.exists (fun c -> c.Cleaner.seg = seg) scored)
        (List.rev_map (fun a -> a.seg) t.ahead)
    else
      (* Below the critical threshold (the pool can no longer absorb
         even one buffer flush), yield is all that matters: fall back to
         greedy so a cost-benefit (or ablation) policy that favours old
         nearly-full segments cannot starve the writer of clean
         segments. *)
      let policy =
        if Seg_pool.length t.pool < t.budget.greedy_below then Config.Greedy
        else t.config.Config.cleaning_policy
      in
      Cleaner.select ~policy
        ~rand:(fun n -> Prng.int t.rng n)
        ~candidates:scored ~count:max_victims ()
  in
  Seg_pool.affordable t.pool t.usage victims

(* One budgeted victim batch.  [candidates] holds the dirty-segment ids
   scanned once by [drive]; cleaned victims are subtracted so later
   passes never re-walk the whole usage table.  Utilisation and age are
   still re-read per pass (relocation changes both).  Returns
   [(cleaned, freed, slack)]: how many victims the pass consumed, the
   net change in clean segments — a pass can clean a victim yet free
   nothing this step (the relocation rolled the log into a fresh
   segment) while still compacting — and the victims' free space, in
   segments, as the usage table gave it. *)
let clean_pass t ~bg ~max_victims ~candidates =
  op_span t (if bg then t.obs.bg_busy else t.obs.fg_busy) @@ fun () ->
  let before = clean_segment_count t in
  let victims = choose_victims t ~bg ~max_victims ~candidates in
  if victims = [] then (0, 0, 0.0)
  else begin
    let slack =
      List.fold_left
        (fun acc s -> acc +. 1.0 -. Seg_usage.utilization t.usage s)
        0.0 victims
    in
    clean_victims t ~bg victims;
    (* Persist the pass once the pool needs its victims: they only
       become reusable when a checkpoint no longer references their old
       contents (Section 4.1).  While the pool sits more than one flush
       above the foreground trigger, a background pass leaves its
       victims clean but not handed out, and one later checkpoint (an
       idle step's restock, or a pass nearer the line) writes the
       tables for several passes.  The old contents stay untouched until
       then, so a crash still rolls forward from the last checkpoint. *)
    if (not bg) || Seg_pool.length t.pool < t.budget.checkpoint_below then
      checkpoint t;
    candidates := List.filter (fun s -> not (List.mem s victims)) !candidates;
    (List.length victims, clean_segment_count t - before, slack)
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
              !continue_cleaning && clean_segment_count t < t.budget.fg_stop
            do
              let _, freed, _ =
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
  if (not t.in_cleaner) && Seg_pool.length t.pool < t.budget.fg_start then
    clean t

(* {1 Idle-time background cleaning}

   The paper suggests cleaning "at night or during idle periods"
   (Section 4): an idle caller pulls the clean pool up to a high
   watermark well above the emergency threshold, so foreground writers
   (almost) never hit the stall in [clean]. *)

(* Hysteresis latch: engage when the pool falls below the low watermark,
   stay engaged until it refills to the high one.  Returns the segments
   still owed (0 = nothing to do right now). *)
let bg_pending t =
  let n = clean_segment_count t in
  if t.bg_active then
    if n >= t.budget.bg_stop then begin
      t.bg_active <- false;
      0
    end
    else t.budget.bg_stop - n
  else if n < t.budget.bg_start then begin
    t.bg_active <- true;
    t.budget.bg_stop - n
  end
  else 0

(* Background passes that free nothing net, one after another with no
   file-system change in between, whose victims held this much free
   space between them, in segments, are churning: the log space each
   relocation (and any checkpoint) takes eats what its victim held
   free, and with nothing else changing the pool would never rise. *)
let bg_churn_slack = 2.0

(* Under {!Lfs_disk.Io_queue.background} on a queued device, a
   background pass's victim reads are background: they complete only as
   foreground IO leaves the disk idle, and the survivors must not reach
   the log before they are read — a client flush would carry them, or
   queue behind them, ahead of the read.  So such a pass reads its
   victims ahead and stops; the next step's pass relocates them, once
   every read has completed.  A victim's blocks cannot change meanwhile
   (a dirty segment is never rewritten, and the checkpoint that could
   hand it out again drops the read-ahead), and liveness is judged when
   the pass runs.  Returns whether the pass must wait for outstanding
   reads (a victim served whole from the block cache need not). *)
let read_ahead t ~max_victims ~candidates =
  if not (Lfs_disk.Io_queue.reads_background (Vdev.get_mode t.disk)) then false
  else begin
    (* Read-aheads no longer worth cleaning give way to fresh victims. *)
    if t.ahead <> [] && choose_victims t ~bg:true ~max_victims ~candidates = []
    then drop_ahead t;
    if t.ahead = [] then
      List.iter
        (fun seg ->
          if Seg_usage.live_bytes t.usage seg > 0 then
            t.ahead <- fst (read_victim t seg) :: t.ahead)
        (choose_victims t ~bg:true ~max_victims ~candidates);
    not
      (List.for_all
         (fun a -> List.for_all Lfs_disk.Io_queue.completed a.reads)
         t.ahead)
  end

let bg_clean_step t ~max_victims =
  if t.in_cleaner || bg_pending t = 0 then 0
  else
    drive t (fun candidates ->
        if read_ahead t ~max_victims ~candidates then bg_pending t
        else
          let cleaned, freed, slack =
            clean_pass t ~bg:true ~max_victims ~candidates
          in
          (* Every change ticks the clock: a pass after one starts anew. *)
          if freed > 0 || t.clock <> t.bg_clock then t.bg_slack <- 0.0;
          if freed <= 0 then t.bg_slack <- t.bg_slack +. slack;
          t.bg_clock <- t.clock;
          if cleaned = 0 || t.bg_slack >= bg_churn_slack then begin
            (* Nothing worth cleaning: every remaining dirty segment is
               pinned, nearly fully live, or over budget; or the passes
               only churn.  Disengage so an idle caller stops spinning —
               the watermarks may simply be unreachable at this
               utilisation; the latch re-arms when the pool next drains
               below the low watermark.  (A pass that cleaned a victim but
               freed nothing net may still have compacted — the log just
               rolled into a fresh segment — so one such pass keeps the
               latch engaged.) *)
            t.bg_active <- false;
            t.bg_slack <- 0.0;
            0
          end
          else bg_pending t)

(* An idle step first serves the compaction watermarks (clean space is
   the scarcer resource), then spends leftover idleness demoting cold
   segments off the fast tier.  It also restocks the reusable pool:
   segments that emptied since the last checkpoint (by themselves, or
   as victims of passes with headroom) only become reusable once a
   checkpoint stops referencing their contents, and no pass may come
   along to write one — left alone, the pool drains until a foreground
   write hits the emergency [clean] stall.  Paying for the checkpoint
   here keeps it in the idle window. *)
let clean_step ?max_segments t =
  (* The gap must clear the heads' pinned segments, or firing would
     checkpoint on every idle step, forever.  A restocking step runs no
     pass, so no one step pays for both. *)
  if
    (not t.in_cleaner)
    && Seg_pool.length t.pool < t.budget.bg_stop
    && clean_segment_count t - Seg_pool.length t.pool > t.budget.restock_gap
  then begin
    checkpoint t;
    bg_pending t
  end
  else
    let max_victims = pass_size t max_segments in
    let owed = bg_clean_step t ~max_victims in
    if owed > 0 then owed else Tier_policy.demote_step t ~max_victims
