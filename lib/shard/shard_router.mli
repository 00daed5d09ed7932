(** N independent LFS instances behind one namespace.

    The paper's single append-only log is also its single serialization
    point: one log, one cleaner, one inode map.  The router scales that
    out by mounting N complete {!Lfs_core.Fs} instances — each with its
    own device (or tiered pair), log, cleaner, checkpoint cadence and
    [shard<i>.]-scoped metrics — and placing every file and directory on
    exactly one of them.  Because the router itself satisfies {!Lfs_core.Fs_intf.S},
    everything written against that surface (workloads, the serving
    engine, the crashtest harness, [lfs_tool]) drives a sharded volume
    unchanged.

    {2 Placement}

    An object's {e home} shard is chosen by rendezvous hashing a
    placement key derived from its canonical path:

    - {!By_hash}: the key is the {e parent} directory's path, so all
      children of one directory colocate (a directory's entries live on
      one shard, and [readdir] needs no cross-shard merge);
    - {!By_subtree}: the key is the first path component, so an entire
      top-level subtree pins to one shard (locality for whole projects;
      children of the root hash by their own name).

    The hash is a plain FNV-1a/mix pipeline over the key bytes —
    deterministic across processes and OCaml versions, so the same
    volume always places the same paths on the same shards.

    {2 Namespace}

    Every object's canonical directory entry lives on its home shard.
    So that a home shard can hold an entry deep in the tree, the router
    lazily {e mirrors} the ancestor directory chain onto that shard
    (plain [Fs.mkdir] calls) the first time a descendant is placed
    there; mirrors are empty shells, and [readdir] keeps exactly the
    entries whose own placement says "this shard", so a mirror never
    shadows a canonical entry.  Files are never mirrored.  [rmdir]
    removes a directory's mirror shells along with the canonical entry,
    and {!recover} re-validates every mirror against its home shard —
    per-shard crash recovery can roll the canonical entry back while
    mirror shells of it survive in other shards' logs, and such
    unaccounted subtrees must not resurface.

    Router inode numbers pack the shard id into the high bits of
    {!Lfs_core.Types.ino} ([(shard + 1) lsl 24 lor local]); the root
    keeps {!Lfs_core.Types.root_ino}.  File IO decodes the shard from
    the ino and goes straight to it — no cross-shard traffic.

    [sync]/[checkpoint] fan out as barriers over every shard;
    [clean_step] gives each shard one budgeted pass per call, so no
    shard's cleaner starves while another's pool is healthy. *)

type t

type policy = By_hash | By_subtree

val policy_name : policy -> string
val policy_of_string : string -> policy option

(** {1 Lifecycle} *)

val mount :
  ?policy:policy -> (Lfs_obs.Metrics.t -> Lfs_core.Fs.t) list -> t
(** Mount one shard per opener, in list order.  Opener [i] mounts shard
    [i]'s LFS (one disk or a tiered pair — the router does not care)
    into the registry view it is given, scoped [shard<i>.], so every
    shard shares one registry.  [policy] (default {!By_hash}) is a
    mount-time choice and must be the same on every mount of a volume —
    it is not persisted.  Raises [Invalid_argument] on an empty list or
    a shard whose [max_inodes] overflows the 24-bit local-ino space. *)

val recover :
  ?policy:policy ->
  (Lfs_obs.Metrics.t -> Lfs_core.Fs.t * Lfs_core.Fs.recovery_report) list ->
  t * Lfs_core.Fs.recovery_report list
(** Post-crash mount: every opener rolls its own shard's log forward
    independently ({!Lfs_core.Fs.recover}); the reports come back in
    shard order.  After the per-shard replays, mirror dirents are
    re-validated against their home shards and stale ones dropped (count
    in the [router.mirrors_dropped] gauge); if any were, the repairs are
    synced before the volume is handed out. *)

val checkpoint : t -> unit

(** {1 The shared surface} *)

val root : Lfs_core.Types.ino

val create : t -> dir:Lfs_core.Types.ino -> string -> Lfs_core.Types.ino
val mkdir : t -> dir:Lfs_core.Types.ino -> string -> Lfs_core.Types.ino
val lookup : t -> dir:Lfs_core.Types.ino -> string -> Lfs_core.Types.ino option

val readdir : t -> Lfs_core.Types.ino -> (string * Lfs_core.Types.ino) list
(** Entries of the directory's canonical copies across shards, mirror
    shells filtered out, sorted by name (a deterministic order
    independent of shard count). *)

val unlink : t -> dir:Lfs_core.Types.ino -> string -> unit
(** Remove a regular file's name.  Refuses directories (use {!rmdir}). *)

val rmdir : t -> dir:Lfs_core.Types.ino -> string -> unit
(** Remove an empty directory — empty on {e every} shard — together
    with its mirror shells. *)

val rename :
  t ->
  odir:Lfs_core.Types.ino ->
  string ->
  ndir:Lfs_core.Types.ino ->
  string ->
  unit
(** Move a regular file's name.  Atomic when both names place on the
    same shard (one [Fs.rename]); otherwise copy-then-unlink across two
    logs, so a crash in between can expose both names (never neither).
    Directory renames raise {!Lfs_core.Types.Fs_error}: placement keys
    are path-derived, so moving a directory would re-home every
    descendant. *)

val write : t -> Lfs_core.Types.ino -> off:int -> bytes -> unit
val read : t -> Lfs_core.Types.ino -> off:int -> len:int -> bytes
val truncate : t -> Lfs_core.Types.ino -> len:int -> unit
val file_size : t -> Lfs_core.Types.ino -> int

include Lfs_core.Fs_intf.PATHS with type t := t
(** The shared path layer ({!Lfs_core.Fs_intf.Paths}) over the routed
    [lookup]/[create]/[mkdir] and file IO above. *)

val sync : t -> unit
(** Fan-out barrier: every shard's acknowledged operations are durable
    when this returns. *)

val drop_caches : t -> unit
val devices : t -> Lfs_disk.Vdev.t list

(** {1 Maintenance and introspection} *)

val clean_step : ?max_segments:int -> t -> int
(** One budgeted background cleaning step on {e every} shard whose
    watermark latch is engaged ({!Lfs_core.Fs.clean_step}); returns the
    total segments still owed.  Polling all shards each idle window is
    what keeps per-shard cleaners independent — a disengaged shard
    returns 0 without touching its device. *)

val on_log_batch : t -> (blocks:int -> unit) -> unit
(** Register [f] on every shard: it sees the merged stream of per-shard
    log batch writes. *)

val metrics : t -> Lfs_obs.Metrics.t
(** The shared registry: per-shard instruments under [shard<i>.*]
    (e.g. [shard0.fs.cleaner.bg.segments]) plus router-level placement
    counters [router.placed.shard<i>] and the [router.shards] gauge. *)

val shard_count : t -> int
val policy : t -> policy

val shard_fs : t -> int -> Lfs_core.Fs.t
(** Direct access to shard [i]'s mount (tests, fsck sweeps). *)

val place_path : t -> string -> int
(** The home shard the router would pick for the object at [path] —
    placement is a pure function of (path, policy, shard count), so
    tests can assert determinism without mutating anything. *)

val ino_shard : Lfs_core.Types.ino -> int option
(** The shard id packed in a router ino; [None] for the root. *)
