module Prng = Lfs_util.Prng
module Histogram = Lfs_util.Histogram
module Config = Lfs_core.Config
module Cleaner = Lfs_core.Cleaner

type policy = {
  selection : Config.cleaning_policy;
  grouping : Config.grouping_policy;
}

type params = {
  nsegs : int;
  blocks_per_seg : int;
  utilization : float;
  pattern : Access.t;
  policy : policy;
  clean_low : int;
  clean_high : int;
  segs_per_pass : int;
  warmup_writes : int;
  measured_writes : int;
  seed : int;
}

(* Calibrated to reproduce Figures 4-7: segments the size of the paper's
   (1 MB / 4 KB files = 256 blocks), and a clean-segment reserve that is
   a small fraction of the disk — a large reserve inflates the effective
   utilisation and distorts write cost at the high end. *)
let default_params =
  {
    nsegs = 256;
    blocks_per_seg = 256;
    utilization = 0.75;
    pattern = Access.Uniform;
    policy = { selection = Config.Greedy; grouping = Config.In_order };
    clean_low = 2;
    clean_high = 6;
    segs_per_pass = 4;
    warmup_writes = 3_000_000;
    measured_writes = 1_000_000;
    seed = 0xCAFE;
  }

type result = {
  write_cost : float;
  avg_cleaned_u : float;
  segments_cleaned : int;
  cleaner_histogram : Histogram.t;
  final_histogram : Histogram.t;
}

type state = {
  p : params;
  file_slot : int array;
  slot_file : int array;
  slot_time : float array;
  seg_live : int array;
  seg_youngest : float array;
  mutable free : int list;
  mutable free_count : int;
  is_free : bool array;
  mutable cur_seg : int;
  mutable cur_off : int;
  mutable out_seg : int;   (* cleaner output segment; -1 when none *)
  mutable out_off : int;
  mutable now : float;
  mutable measuring : bool;
  mutable new_writes : int;
  mutable cleaner_reads : int;   (* blocks *)
  mutable cleaner_writes : int;  (* blocks *)
  mutable cleaned_u_sum : float;
  mutable cleaned_count : int;
  cleaner_histogram : Histogram.t;
  sample : unit -> int;
}

let spseg st = st.p.blocks_per_seg

let seg_of_slot st slot = slot / spseg st

let pop_free st =
  match st.free with
  | [] -> failwith "simulator: free pool exhausted (cleaning cannot keep up)"
  | s :: rest ->
      st.free <- rest;
      st.free_count <- st.free_count - 1;
      st.is_free.(s) <- false;
      st.seg_youngest.(s) <- 0.0;
      s

let push_free st s =
  st.free <- s :: st.free;
  st.free_count <- st.free_count + 1;
  st.is_free.(s) <- true

let invalidate st file =
  let slot = st.file_slot.(file) in
  if slot >= 0 then begin
    st.slot_file.(slot) <- -1;
    let seg = seg_of_slot st slot in
    st.seg_live.(seg) <- st.seg_live.(seg) - 1
  end

(* Place a block into a (segment, offset) slot.  [time] is the block's
   modify time (preserved across cleaning so age-sorting stays
   meaningful); [stamp] is the segment-usage-table timestamp, which is
   set when the segment is written (Section 3.6) — for cleaner output
   that is the time of cleaning, which is what keeps a freshly compacted
   cold segment from being re-selected immediately. *)
let place st file seg off ~time ~stamp =
  let slot = (seg * spseg st) + off in
  st.slot_file.(slot) <- file;
  st.slot_time.(slot) <- time;
  st.file_slot.(file) <- slot;
  st.seg_live.(seg) <- st.seg_live.(seg) + 1;
  if stamp > st.seg_youngest.(seg) then st.seg_youngest.(seg) <- stamp

let seg_u st seg = float_of_int st.seg_live.(seg) /. float_of_int (spseg st)

let candidates st =
  let acc = ref [] in
  for seg = st.p.nsegs - 1 downto 0 do
    if seg <> st.cur_seg && seg <> st.out_seg && not st.is_free.(seg) then
      acc := seg :: !acc
  done;
  !acc

(* The file system's policies, over the simulator's segments: a
   segment's age is the time since its usage-table stamp. *)
let select_victims st cands =
  let candidates =
    List.map
      (fun seg ->
        {
          Cleaner.seg;
          u = seg_u st seg;
          age = Float.max 0.0 (st.now -. st.seg_youngest.(seg));
        })
      cands
  in
  Cleaner.select ~policy:st.p.policy.selection ~candidates
    ~count:st.p.segs_per_pass ()

let cleaner_emit st (file, time) =
  if st.out_seg = -1 || st.out_off >= spseg st then begin
    st.out_seg <- pop_free st;
    st.out_off <- 0
  end;
  (* The file may have been overwritten between gather and emit — it
     cannot here (no interleaving), but guard stays cheap. *)
  place st file st.out_seg st.out_off ~time ~stamp:st.now;
  st.out_off <- st.out_off + 1;
  if st.measuring then st.cleaner_writes <- st.cleaner_writes + 1

let clean st =
  (* Figures 5-6 sample the utilisation of every segment available to
     the cleaner each time cleaning is initiated. *)
  List.iter
    (fun seg -> if st.measuring then Histogram.add st.cleaner_histogram (seg_u st seg))
    (candidates st);
  while st.free_count < st.p.clean_high do
    let cands = candidates st in
    if cands = [] then failwith "simulator: nothing left to clean";
    let victims = select_victims st cands in
    let live = ref [] in
    List.iter
      (fun seg ->
        let u = seg_u st seg in
        if st.measuring then begin
          st.cleaned_u_sum <- st.cleaned_u_sum +. u;
          st.cleaned_count <- st.cleaned_count + 1
        end;
        if st.seg_live.(seg) > 0 then begin
          (* Read the whole segment to recover its live blocks. *)
          if st.measuring then
            st.cleaner_reads <- st.cleaner_reads + spseg st;
          for off = 0 to spseg st - 1 do
            let slot = (seg * spseg st) + off in
            let file = st.slot_file.(slot) in
            if file >= 0 then begin
              live := (file, st.slot_time.(slot)) :: !live;
              st.slot_file.(slot) <- -1;
              st.file_slot.(file) <- -1
            end
          done;
          st.seg_live.(seg) <- 0
        end;
        push_free st seg)
      victims;
    let ordered =
      Cleaner.order_for_grouping ~grouping:st.p.policy.grouping
        (List.rev_map (fun ((_, time) as blk) -> (blk, st.now -. time)) !live)
    in
    List.iter (cleaner_emit st) ordered
  done

let write_step st =
  if st.cur_off >= spseg st then begin
    if st.free_count <= st.p.clean_low then clean st;
    st.cur_seg <- pop_free st;
    st.cur_off <- 0
  end;
  let file = st.sample () in
  invalidate st file;
  st.now <- st.now +. 1.0;
  place st file st.cur_seg st.cur_off ~time:st.now ~stamp:st.now;
  st.cur_off <- st.cur_off + 1;
  if st.measuring then st.new_writes <- st.new_writes + 1

let init p =
  let nslots = p.nsegs * p.blocks_per_seg in
  let nfiles =
    max 1 (int_of_float (Float.round (p.utilization *. float_of_int nslots)))
  in
  if nfiles > nslots - (p.clean_high + 2) * p.blocks_per_seg then
    invalid_arg "Simulator: utilization too high for the cleaning thresholds";
  let prng = Prng.create ~seed:p.seed in
  let st =
    {
      p;
      file_slot = Array.make nfiles (-1);
      slot_file = Array.make nslots (-1);
      slot_time = Array.make nslots 0.0;
      seg_live = Array.make p.nsegs 0;
      seg_youngest = Array.make p.nsegs 0.0;
      free = List.init (p.nsegs - 1) (fun i -> i + 1);
      free_count = p.nsegs - 1;
      is_free = Array.init p.nsegs (fun i -> i <> 0);
      cur_seg = 0;
      cur_off = 0;
      out_seg = -1;
      out_off = 0;
      now = 0.0;
      measuring = false;
      new_writes = 0;
      cleaner_reads = 0;
      cleaner_writes = 0;
      cleaned_u_sum = 0.0;
      cleaned_count = 0;
      cleaner_histogram = Histogram.create ~bins:50;
      sample = Access.sampler p.pattern ~nfiles prng;
    }
  in
  (* Initial population: write every file once. *)
  for file = 0 to nfiles - 1 do
    if st.cur_off >= p.blocks_per_seg then begin
      st.cur_seg <- pop_free st;
      st.cur_off <- 0
    end;
    st.now <- st.now +. 1.0;
    place st file st.cur_seg st.cur_off ~time:st.now ~stamp:st.now;
    st.cur_off <- st.cur_off + 1
  done;
  st

let run p =
  let st = init p in
  for _ = 1 to p.warmup_writes do
    write_step st
  done;
  st.measuring <- true;
  for _ = 1 to p.measured_writes do
    write_step st
  done;
  let final_histogram = Histogram.create ~bins:50 in
  for seg = 0 to p.nsegs - 1 do
    if seg <> st.cur_seg && seg <> st.out_seg then
      Histogram.add final_histogram (seg_u st seg)
  done;
  {
    write_cost =
      (if st.new_writes = 0 then 1.0
       else
         float_of_int (st.new_writes + st.cleaner_reads + st.cleaner_writes)
         /. float_of_int st.new_writes);
    avg_cleaned_u =
      (if st.cleaned_count = 0 then 0.0
       else st.cleaned_u_sum /. float_of_int st.cleaned_count);
    segments_cleaned = st.cleaned_count;
    cleaner_histogram = st.cleaner_histogram;
    final_histogram;
  }

let sweep_utilization ?(points = 10) ?(lo = 0.1) ?(hi = 0.9) p =
  List.init points (fun i ->
      let u =
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1))
      in
      (u, run { p with utilization = u }))
