(** File-system geometry and policy configuration, fixed at [mkfs] time
    (geometry) or adjustable at mount time (policies). *)

(** Which segments the cleaner picks (Section 3.4, policy question 3). *)
type cleaning_policy =
  | Greedy        (** always the least-utilised segments *)
  | Cost_benefit  (** highest (1-u)*age / (1+u), the paper's winner *)
  | Age_only      (** oldest first — ablation *)
  | Random_victim (** uniform random dirty segment — ablation *)

(** How live blocks are regrouped when written out (policy question 4). *)
type grouping_policy =
  | In_order  (** same order they appeared in the cleaned segments *)
  | Age_sort  (** sorted by age, oldest first — segregates cold data *)

(** How a victim segment's live data is brought into memory.  The paper
    (Section 3.4) assumes whole-segment reads in the write-cost formula
    but notes "it may be faster to read just the live blocks,
    particularly if the utilization is very low (we haven't tried this
    in Sprite LFS)" — [Live_blocks] tries it. *)
type cleaner_read_policy =
  | Whole_segment  (** one big sequential read per victim *)
  | Live_blocks    (** summary chain, then only the live blocks *)

type t = {
  block_size : int;        (** bytes; must match the disk geometry *)
  seg_blocks : int;        (** blocks per segment (paper: 512 KB - 1 MB) *)
  max_inodes : int;        (** capacity of the inode map *)
  clean_start : int;       (** start cleaning below this many clean segs *)
  clean_stop : int;        (** stop cleaning at this many clean segs *)
  bg_clean_start : int;
      (** background watermark: an idle-time cleaner ({!Fs.clean_step})
          starts working when the clean pool drops below this.  Sits
          above [clean_start] so background passes absorb the cleaning
          load before any foreground writer ever stalls on it (the
          paper's "clean at night or during idle periods", Section 4). *)
  bg_clean_stop : int;
      (** background watermark: idle-time cleaning pauses once the pool
          recovers to this many clean segments (hysteresis, so the
          background cleaner does not thrash around one threshold). *)
  segs_per_pass : int;     (** victims examined per cleaning pass *)
  write_buffer_blocks : int;  (** dirty blocks buffered before a log flush *)
  cache_blocks : int;      (** LRU buffer-cache capacity for reads *)
  checkpoint_interval_ops : int;
      (** automatic checkpoint every N operations; 0 disables (the paper
          uses a 30 s timer; ours is a deterministic operation count) *)
  checkpoint_interval_blocks : int;
      (** automatic checkpoint after N blocks of new log data; 0
          disables.  The paper's suggested alternative (Section 4.1):
          "perform checkpoints after a given amount of new data has been
          written to the log; this would set a limit on recovery time". *)
  cleaning_policy : cleaning_policy;
  grouping_policy : grouping_policy;
  cleaner_read : cleaner_read_policy;
  demote_age_s : float;
      (** tiered volumes only: a dirty fast-tier segment becomes a
          demotion candidate once its youngest block is at least this
          old in modelled time (Section 3.5's cold data — utilisation
          decays slowest, so moving it to the slow tier is cheap
          capacity).  Inert when the volume has no slow tier. *)
  promote_reads : int;
      (** tiered volumes only: migrate a slow-tier segment back to the
          fast tier after this many distinct block reads hit it on disk;
          0 disables promotion ("never").  Inert without a slow tier. *)
  log_heads : int;
      (** independent log write heads (1..8).  With 1 the log is the
          classic single thread; with more, fresh foreground data goes
          to head 0 and cleaner/demotion survivors to higher heads
          binned by age (Section 3.5's hot/cold segregation).  Each
          head pins two segments (current + reservation). *)
}

val default : t
(** 4 KB blocks, 256-block (1 MB) segments, thresholds after Section 3.4
    ("a few tens" to start, 50-100 to stop, scaled down to the small
    disks the benches use), cost-benefit cleaning with age-sorting. *)

val small : t
(** Small geometry for unit tests: 1 KB blocks, 16-block segments. *)

val with_policy :
  ?cleaning:cleaning_policy -> ?grouping:grouping_policy -> t -> t

val validate : t -> unit
(** Raises [Invalid_argument] when the configuration is inconsistent
    (segments under 4 blocks, zero inodes, thresholds inverted...).
    Whether it fits a disk is {!Layout.compute}'s check. *)

val cleaning_policy_name : cleaning_policy -> string
val grouping_policy_name : grouping_policy -> string
val cleaner_read_policy_name : cleaner_read_policy -> string
