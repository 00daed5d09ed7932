(** Volume recipes: the one description of a volume shape shared by the
    CLI tools, the benches and both crash harnesses.

    A recipe is either the FFS baseline or an LFS configuration —
    log heads, optional fast/slow tiering — optionally sharded N ways
    over identical members.  The features compose freely:

    {v
    ffs                     the FFS baseline
    lfs                     the log-structured file system
    shard[:N]               N-way sharded LFS (default 4), by_hash placement
    shard:N:by_subtree      first-path-component placement (by_hash: parent)
    ...:heads=N             N log write heads per LFS (hot/cold segregation;
                            fresh data to head 0, cleaner survivors colder)
    ...:tier[:P]            each LFS on a fast + slow pair, P% fast (25)
    ...:tier:P:promote=N    promote a slow segment after N demand reads
    v}

    e.g. [lfs:heads=2:tier:25:promote=2] or [shard:2:heads=2:tier].
    {!fresh} builds a serving volume from a recipe and {!subject} builds
    a crash-harness subject from the same recipe, so every shape — and
    every composition of shapes — reaches every tool through one
    function each. *)

type tier = {
  fast_pct : int;  (** share of a member's capacity on the fast child *)
  promote_reads : int;  (** demand reads that promote a slow segment; 0 = never *)
}

type shard = { shards : int; policy : Lfs_shard.Shard_router.policy }

type recipe = {
  heads : int;  (** log write heads, 1..8 *)
  tier : tier option;
  shard : shard option;  (** [None]: one LFS; [Some]: N identical members *)
}

type t = Ffs | Lfs of recipe

val parse : string -> (t, string) result
(** Parse the grammar above; [Error] carries a usage message. *)

val of_string : string -> t
(** {!parse}, raising [Invalid_argument] on a bad spec. *)

val to_string : t -> string
(** The canonical spelling; round-trips through {!parse}. *)

val grammar_doc : string
(** One-line description of the grammar for [--help] output. *)

val with_shards : int -> t -> t
(** Override a sharded recipe's shard count (the [--shards] CLI
    passthrough); other recipes are returned unchanged. *)

val tier_volume :
  config:Lfs_core.Config.t ->
  fast:Lfs_disk.Vdev.t ->
  slow:Lfs_disk.Vdev.t ->
  Lfs_disk.Vdev_tier.t
(** Format a tiered volume whose chunks line up 1:1 with the segments of
    an LFS built from [config]: solves the fixpoint between the layout's
    metadata reservation and the exported size, then
    {!Lfs_disk.Vdev_tier.format}s.  Mount with
    [Fs.mount ~tier (Vdev_tier.vdev t)] after [Fs.format]. *)

val fresh : blocks:int -> t -> Lfs_workload.Fsops.t
(** A freshly formatted, mounted volume of [blocks] 4 KB blocks in
    total, on {!Lfs_core.Config.default}: Wren IV disks, except that a
    tiered member puts [fast_pct]% of its share on a flash-class child.
    A sharded recipe splits the capacity evenly across its members
    (floored at 16 segments each), so shard counts compare at equal
    total capacity.  The driver record's [metrics], [on_log_batch] and
    [clean_step] hooks are populated for every LFS recipe. *)

(** {1 Crash-harness subjects} *)

module type SUBJECT = sig
  include Lfs_core.Fs_intf.DURABLE
  (** [format]/[mount]/[recover] take the full device list with a
      small harness config baked in; [recover] is roll-forward for LFS,
      a plain mount for FFS. *)

  val subject_name : string
  val async_writes : bool

  val ndevices : int
  (** How many devices the subject mounts across.  The harnesses create
      exactly this many and fault device 0. *)

  val fsck_errors : t -> string list
  (** Structural-consistency errors; [[]] means clean.  Subjects with no
      checker return [[]]. *)

  val idle : t -> bool
  (** An idle window: the recipe's [clean_step ~max_segments:1] (every
      member's, on a sharded recipe); [true] when it ran a cleaning
      pass.  FFS has no cleaner: a no-op, [false]. *)
end

val small_config : Lfs_core.Config.t
(** The tight LFS config subjects are built on: 32-block segments and
    16-block write buffers, so even a short workload crosses many flush
    and checkpoint boundaries — the interesting crash points; and
    background watermarks above the segment count, so an idle step
    cleans whenever a victim qualifies. *)

val subject : t -> (module SUBJECT)
(** The recipe as a harness subject named {!to_string}, on
    {!small_config} (tiered members also get a 4 s demotion age, and
    every [sync] runs one demotion step first so sweeps cut
    mid-demotion).  Devices come in member order: a tiered member takes
    a fast then a slow device, a sharded recipe takes shard 0's group
    first.  Device 0 — the one the harnesses fault — is therefore shard
    0's (fast) disk, and every other device must keep its durable state
    across that device's power cut.  The harness sizes the devices, so
    a tier's [fast_pct] only shapes {!fresh} volumes. *)
