(** A common driver interface over {!Lfs_core.Fs} and {!Lfs_ffs.Ffs} so
    every benchmark runs identically against both systems. *)

type t = {
  name : string;
  async_writes : bool;
      (** writes are buffered and overlap with the CPU (LFS); false
          means metadata IO serialises with the caller (FFS) *)
  devices : Lfs_disk.Vdev.t list;
      (** the devices the system is mounted on, in a stable order
          ({!Lfs_core.Fs_intf.S.devices}); singleton for LFS/FFS, one
          per shard for sharded volumes — never empty *)
  create_path : string -> Lfs_core.Types.ino;
  mkdir_path : string -> Lfs_core.Types.ino;
  resolve : string -> Lfs_core.Types.ino option;
  unlink : dir:Lfs_core.Types.ino -> string -> unit;
  rmdir : dir:Lfs_core.Types.ino -> string -> unit;
  rename :
    odir:Lfs_core.Types.ino -> string -> ndir:Lfs_core.Types.ino -> string -> unit;
  write : Lfs_core.Types.ino -> off:int -> bytes -> unit;
  truncate : Lfs_core.Types.ino -> len:int -> unit;
  read : Lfs_core.Types.ino -> off:int -> len:int -> bytes;
  file_size : Lfs_core.Types.ino -> int;
  sync : unit -> unit;
  drop_caches : unit -> unit;
  metrics : unit -> Lfs_obs.Metrics.t option;
      (** the backing file system's observability registry, when it has
          one ({!of_lfs}); [None] for systems without instrumentation *)
  on_log_batch : ((blocks:int -> unit) -> unit) option;
      (** register a per-log-batch callback ({!Lfs_core.Fs.on_log_batch});
          [None] for systems without a log — the serving layer then
          counts each durable request as its own flush *)
  clean_step : (max_segments:int -> int) option;
      (** one budgeted background cleaning pass
          ({!Lfs_core.Fs.clean_step}), returning the segments still owed;
          [None] for systems without a cleaner — a serving layer's
          [--bg-clean] knob is then a no-op *)
}

module Make (F : Lfs_core.Fs_intf.S) : sig
  val make : name:string -> async_writes:bool -> F.t -> t
end
(** Build the driver record from any module satisfying the shared
    {!Lfs_core.Fs_intf.S} surface, so every workload in this library
    runs against a new file system the moment it implements the
    interface.  The optional hooks ([metrics], [on_log_batch],
    [clean_step]) start as [None]; builders that know more fill them in
    with record update, as {!of_lfs} below and the shard recipes in
    [Lfs_spec.Spec.fresh] do. *)

val io_stats : t -> Lfs_disk.Io_stats.t
(** A merged snapshot of {!Lfs_disk.Vdev.stats} across [devices]
    (per-field sums via {!Lfs_disk.Io_stats.merge}) — capture before and
    after a phase and {!Lfs_disk.Io_stats.diff} the two. *)

val of_lfs : Lfs_core.Fs.t -> t

val fresh_lfs :
  ?config:Lfs_core.Config.t -> Lfs_disk.Geometry.t -> t
(** Create a disk with the given geometry, format it as LFS, mount. *)

val fresh_ffs : ?config:Lfs_ffs.Ffs.config -> Lfs_disk.Geometry.t -> t
