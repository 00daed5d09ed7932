(* Tier policy for tiered volumes: promotion on read and the demotion
   pass.  Both only re-place a segment's chunk ({!Seg_pool.move}): block
   addresses are tier-logical, so no FS metadata moves and no checkpoint
   is needed. *)

open Fs_state

(* Promotion-on-read: count disk reads landing in slow-tier segments and
   migrate a segment back under the fast tier once [promote_reads] of
   them accumulate.  Metadata traffic from the cleaner and checkpoint
   machinery is excluded — only demand reads prove a segment hot. *)
let note_read t addr =
  match t.tier with
  | None -> ()
  | Some ti ->
      let threshold = t.config.Config.promote_reads in
      if threshold > 0 && (not t.in_cleaner) && not t.in_checkpoint then begin
        let seg = Layout.seg_of_block t.layout addr in
        let active = Log_writer.active_segments t.log in
        if
          seg >= 0
          && seg < Vdev_tier.nchunks ti
          && (not (Seg_pool.pinned t.pool ~active seg))
          && Vdev_tier.chunk_tier ti seg = Vdev_tier.Slow
        then begin
          let n =
            1 + Option.value ~default:0 (Hashtbl.find_opt t.tier_reads seg)
          in
          (* A swap keeps one fast clean segment in reserve for the write
             head — promotion must not starve {!Seg_pool.pick}. *)
          if
            n >= threshold
            && Seg_pool.move t.pool ~active ~reserve:1 seg ~target:Vdev_tier.Fast
          then begin
            Hashtbl.remove t.tier_reads seg;
            Metrics.incr t.obs.promote_segments
          end
          else Hashtbl.replace t.tier_reads seg n
        end
      end

(* {1 Demotion passes}

   The cleaner's third regime: instead of compacting, pick cold
   fast-tier segments that are nearly full — cost-benefit {e inverted},
   old age and high u — and copy them wholesale to the slow tier.  One
   sequential chunk copy frees a whole fast-tier segment for the write
   head; compacting the same segment would copy as much data for almost
   no space.

   Capacity is the slow tier's free chunks plus its clean donors, whose
   dead contents can absorb a demoted chunk by a swap (the donor surfaces
   on the fast tier as a clean segment for the write head — demotion and
   head placement in one move).  Returns the candidates still waiting,
   and only while capacity is left, so an idle loop drains candidates
   and then stops: a slow tier with no free chunk and no clean donor is
   a legitimate resting state, refilled when the cleaner frees slow
   segments. *)
let demote_step t ~max_victims =
  match t.tier with
  | None -> 0
  | Some _ when t.in_cleaner -> 0
  | Some ti ->
      let on_fast s = Vdev_tier.chunk_tier ti s = Vdev_tier.Fast in
      let candidates =
        Fs_state.candidates t ~keep:on_fast (Seg_usage.dirty_segments t.usage)
      in
      let active = Log_writer.active_segments t.log in
      let room () = Seg_pool.room t.pool ~active Vdev_tier.Slow in
      let min_age = t.config.Config.demote_age_s in
      let victims =
        if room () = 0 then []
        else
          Cleaner.select_demotion ~candidates ~min_age
            ~count:(min max_victims (room ()))
      in
      if victims = [] then 0
      else begin
        op_span t t.obs.demote_busy (fun () ->
            Metrics.incr t.obs.demote_passes;
            List.iter
              (fun s ->
                if Seg_pool.move t.pool ~active ~reserve:0 s ~target:Vdev_tier.Slow
                then Metrics.incr t.obs.demote_segments)
              victims);
        (* A pass moves chunks only, so the other candidates stay live
           and unpinned; those still on the fast tier wait. *)
        if room () = 0 then 0
        else
          List.length
            (List.filter
               (fun (c : Cleaner.candidate) ->
                 on_fast c.Cleaner.seg && c.Cleaner.age >= min_age)
               candidates)
      end
