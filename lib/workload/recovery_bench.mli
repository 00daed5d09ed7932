(** The crash-recovery timing experiment of Table 3: write one, ten or
    fifty megabytes of fixed-size files with checkpoints disabled, crash,
    and time the roll-forward. *)

type params = {
  file_kb : int;       (** 1, 10 or 100 in the paper *)
  data_mb : int;       (** 1, 10 or 50 *)
  disk_mb : int;
  cpu : Cpu_model.t;
}

type result = {
  params : params;
  recovery_s : float;       (** [disk_s +. cpu_s] *)
  disk_s : float;  (** modelled device busy time of the recovery *)
  cpu_s : float;
      (** modelled CPU time: half an operation per inode recovered,
          plus one block's handling per payload block verified *)
  files_recovered : int;
  writes_replayed : int;
  segments_scanned : int;
  phases : Lfs_core.Fs.recovery_phase list;
      (** the roll-forward's disk time and reads, phase by phase *)
}

val run : params -> result

val run_crashed :
  ?mode:Lfs_disk.Vdev_fault.mode -> ?seed:int -> params -> result
(** Like {!run}, but the crash is injected for real: the final flush is
    cut by a {!Lfs_disk.Vdev_fault} power failure (torn by default), so
    recovery also pays for detecting and discarding the incomplete log
    tail. *)

val table3 : ?disk_mb:int -> unit -> (int * int * result) list
(** The full 3x3 grid: [(file_kb, data_mb, result)]. *)
