(** LFS with an NVRAM write buffer: zero data loss across crashes.

    Wraps {!Fs} so every mutation is journalled to battery-backed
    {!Nvram} before it enters the volatile file cache.  After a crash,
    {!recover} first runs the ordinary checkpoint + roll-forward
    recovery, then replays the journal in order — ensure-style, so
    operations that already reached the disk are no-ops and the final
    state reflects every operation ever acknowledged, not just those
    that reached the log.

    The journal is cleared at each {!checkpoint} (when everything it
    describes is durable) and a checkpoint is forced automatically when
    the NVRAM fills. *)

type t

val wrap : Fs.t -> Nvram.t -> t
(** Journal subsequent mutations of [fs] into the NVRAM.  Mutations must
    go through this interface to be protected.  Registers a checkpoint
    hook on [fs] so the journal is discarded whenever its contents
    become durable — including the file system's own automatic
    checkpoints. *)

val fs : t -> Fs.t
(** The underlying file system (safe for read-only access). *)

val create : t -> dir:Types.ino -> string -> Types.ino
val mkdir : t -> dir:Types.ino -> string -> Types.ino
val link : t -> dir:Types.ino -> string -> Types.ino -> unit
val unlink : t -> dir:Types.ino -> string -> unit
val rmdir : t -> dir:Types.ino -> string -> unit
val rename : t -> odir:Types.ino -> string -> ndir:Types.ino -> string -> unit
val write : t -> Types.ino -> off:int -> bytes -> unit
val truncate : t -> Types.ino -> len:int -> unit
val read : t -> Types.ino -> off:int -> len:int -> bytes

include Fs_intf.PATHS with type t := t
(** {!Fs_intf.Paths} over the journalled operations above. *)

val checkpoint : t -> unit
(** Make everything durable on disk and clear the journal. *)

type replay_report = { replayed : int; remapped_inodes : int }

val recover : Lfs_disk.Vdev.t -> Nvram.t -> t * replay_report
(** Crash recovery: mount the last checkpoint and replay the journal on
    top of it.  Because the journal holds exactly the operations since
    that checkpoint (see {!wrap}) and carries full data payloads, this
    restores every acknowledged operation — roll-forward over the log
    tail is unnecessary and skipped.  Inode numbers may differ after
    replay (a re-executed create can allocate a different inode);
    records referring to journalled inodes are remapped. *)
