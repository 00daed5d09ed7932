(** The file-system surface shared by every implementation in the tree.

    {!Fs} (the log-structured file system), {!Lfs_ffs.Ffs} (the FFS
    baseline) and [Lfs_shard.Shard_router] (N LFS instances behind one
    namespace) all satisfy {!S} as-is, so workload generators, the
    benchmarks and the crash sweep can be written once over this
    signature and run against any of them unchanged ([lib/workload]'s
    {!Lfs_workload.Fsops.Make}, [lib/model]'s [Refine.Make] over
    [Lfs_spec.Spec.SUBJECT]).

    Each implementation supplies the {!PRIMITIVES}; the path helpers are
    written once, in {!Paths}, over those primitives, so every file
    system resolves and replaces paths the same way.

    The signature deliberately covers only the common namespace / IO /
    lifecycle operations.  Mount-time construction and crash recovery
    live in the {!DURABLE} extension; pieces that are genuinely
    implementation-specific (LFS cleaning knobs, FFS's [fsck_scan])
    stay on the concrete modules.

    Error conventions follow {!Types}: absence of a name is an expected
    outcome and is reported as [None] ([lookup], [resolve], [read_path]);
    {!Types.Fs_error} means the request itself was unsatisfiable (name
    already exists, directory not empty, disk full, negative offset);
    {!Types.Corrupt} means an on-disk structure failed validation. *)

(** What the path helpers need from a file system. *)
module type PRIMITIVES = sig
  type t
  (** A mounted file system. *)

  val root : Types.ino
  (** Inode number of the root directory. *)

  val lookup : t -> dir:Types.ino -> string -> Types.ino option
  val create : t -> dir:Types.ino -> string -> Types.ino
  val mkdir : t -> dir:Types.ino -> string -> Types.ino

  val truncate : t -> Types.ino -> len:int -> unit
  (** Shrink or extend to [len] bytes; bytes past the old end read as
      zeros. *)

  val write : t -> Types.ino -> off:int -> bytes -> unit
  val read : t -> Types.ino -> off:int -> len:int -> bytes
  val file_size : t -> Types.ino -> int
end

(** Paths are ["/a/b/c"]-style, resolved from the root; empty
    components are ignored. *)
module type PATHS = sig
  type t

  val resolve : t -> string -> Types.ino option
  val create_path : t -> string -> Types.ino
  val mkdir_path : t -> string -> Types.ino

  val write_path : t -> string -> bytes -> unit
  (** Create-or-replace the file's entire contents. *)

  val read_path : t -> string -> bytes option
  (** Whole-file read; [None] when no file lives at the path. *)
end

let split_path path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

module Paths (F : PRIMITIVES) : PATHS with type t := F.t = struct
  let walk t dir names =
    List.fold_left
      (fun acc name ->
        match acc with None -> None | Some dir -> F.lookup t ~dir name)
      (Some dir) names

  let resolve t path = walk t F.root (split_path path)

  let parent_and_leaf t path =
    match List.rev (split_path path) with
    | [] -> Types.fs_error "path %S has no leaf" path
    | leaf :: rev_dirs -> (
        match walk t F.root (List.rev rev_dirs) with
        | None -> Types.fs_error "path %S: missing directory" path
        | Some dir -> (dir, leaf))

  let create_path t path =
    let dir, leaf = parent_and_leaf t path in
    F.create t ~dir leaf

  let mkdir_path t path =
    let dir, leaf = parent_and_leaf t path in
    F.mkdir t ~dir leaf

  let write_path t path data =
    let dir, leaf = parent_and_leaf t path in
    let ino =
      match F.lookup t ~dir leaf with
      | Some ino -> ino
      | None -> F.create t ~dir leaf
    in
    F.truncate t ino ~len:0;
    F.write t ino ~off:0 data

  let read_path t path =
    match resolve t path with
    | None -> None
    | Some ino -> Some (F.read t ino ~off:0 ~len:(F.file_size t ino))
end

module type S = sig
  include PRIMITIVES

  (** {1 Namespace} *)

  val readdir : t -> Types.ino -> (string * Types.ino) list
  val unlink : t -> dir:Types.ino -> string -> unit
  (** Remove a regular file's name.  Refuses directories (use {!rmdir}). *)

  val rmdir : t -> dir:Types.ino -> string -> unit
  (** Remove an empty directory. *)

  val rename : t -> odir:Types.ino -> string -> ndir:Types.ino -> string -> unit
  (** Move a name; an existing (non-directory) target is replaced.
      Implementations that cannot move a particular source atomically
      (the shard router and directories) raise {!Types.Fs_error}. *)

  (** {1 Path helpers} *)

  include PATHS with type t := t

  (** {1 Lifecycle} *)

  val sync : t -> unit
  (** Make every acknowledged operation durable.  For multi-device
      implementations this is a fan-out barrier: it returns only once
      every underlying device has made its share durable. *)

  val drop_caches : t -> unit
  (** Forget volatile caches so subsequent reads hit the device. *)

  val devices : t -> Lfs_disk.Vdev.t list
  (** The devices the file system is mounted on, in a stable order.
      Singleton for {!Fs} and [Ffs]; one per shard for the router.
      Never empty. *)
end

(** Durability lifecycle: construction, crash recovery and checkpoint.

    {!S} describes a file system that is already mounted; [DURABLE]
    additionally knows how to make one (and bring one back after a
    crash) from a list of devices.  Concrete modules keep their richer
    constructors (configs, recovery reports); a [DURABLE] instance is
    an adapter that bakes those choices in, so the crash sweep
    ([Refine.Make], whose subjects [Spec.subject] builds) composes over
    any implementation, including the shard router, without ad-hoc
    module plumbing.

    [format]/[mount]/[recover] take the device list in the same stable
    order that {!S.devices} reports.  Single-device implementations
    require a singleton list and raise [Invalid_argument] otherwise. *)
module type DURABLE = sig
  include S

  val format : Lfs_disk.Vdev.t list -> unit
  (** Write a fresh, empty file system across [devices]. *)

  val mount : Lfs_disk.Vdev.t list -> t
  (** Mount a cleanly formatted (or cleanly unmounted) system. *)

  val recover : Lfs_disk.Vdev.t list -> t
  (** Mount after a crash, replaying whatever the implementation can
      roll forward.  For implementations without a recovery protocol
      this is [mount]. *)

  val checkpoint : t -> unit
  (** Force a durable consistency point stronger than {!S.sync} if the
      implementation distinguishes the two (LFS checkpoint regions);
      otherwise equivalent to [sync]. *)
end
