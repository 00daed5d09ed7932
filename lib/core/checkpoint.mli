(** Checkpoint regions (Section 4.1).

    A checkpoint is a position in the log at which all file system
    structures are consistent and complete.  The region at a fixed disk
    address records the addresses of all inode map and segment usage
    table blocks plus every write head's log position (segment, offset,
    reservation) and the shared sequence number.  Two regions alternate
    so a crash during a checkpoint leaves the previous one intact; on
    reboot the valid region with the latest timestamp wins.  A
    whole-region checksum stands in for the paper's "time in the last
    block" trick — a torn region write simply fails validation. *)

type t = {
  timestamp : float;  (** logical clock at checkpoint time *)
  log_seq : int;      (** next log-write sequence number (shared) *)
  heads : Log_writer.position array;  (** one per write head, by index *)
  imap_addrs : Types.baddr array;
  usage_addrs : Types.baddr array;
}

val write : Layout.t -> Lfs_disk.Vdev.t -> region:int -> t -> unit
(** Serialise to region 0 (at [layout.ckpt_a]) or 1 ([ckpt_b]). *)

val read : Layout.t -> Lfs_disk.Vdev.t -> region:int -> t option
(** [None] if the region is invalid (never written, or torn). *)

val read_latest : Layout.t -> Lfs_disk.Vdev.t -> (int * t) option
(** The valid region with the most recent timestamp, with its index.
    [None] when neither region is valid (not a formatted LFS). *)
