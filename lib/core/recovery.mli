(** Crash recovery: the log scan behind roll-forward (Section 4.2).

    Starting from the checkpoint's per-head log positions, the scan walks
    each head's summary chain — within a segment with
    {!Summary.walk_segment}, and across segments by following the
    [next_seg] pointer every summary records.  On top of the walker's
    checks (intact, self-identifying, fits its segment) a write is
    accepted only if its sequence number strictly increases along its
    chain.  The chains are then merged back into one log order by the
    shared sequence number.

    Only inode-block and directory-log payloads are read (data blocks
    are referenced in place), which is what makes recovery time scale
    with the number of files recovered rather than bytes written
    (Table 3).  Every post-checkpoint write additionally verifies its
    payload checksum: under queued submission the device commits blocks
    out of submission order, so a crash can persist a later summary
    while an earlier write's payload never made it.  The first torn
    write truncates the log {e globally} — the fsync barrier spans every
    head, so nothing at or beyond its sequence number (in any chain) was
    acknowledged durable, and a later write in one chain may reference
    torn payloads in another.  Every chain is cut at that sequence
    number and each head's tail points at its first discarded summary.

    The scan is read-only; {!Fs.recover} applies the results. *)

type decoded =
  | Inodes of (int * Types.ino) list
      (** an inode block: the ino in each occupied slot, as
          [(slot, ino)] in slot order *)
  | Records of Dir_log.record list  (** a dir-log block's records *)

type write = {
  summary : Summary.t;
  decoded : (int * decoded) list;
      (** what roll-forward needs of the inode-block and dir-log
          payloads, keyed by entry index within the summary, in entry
          order; the scan keeps no payload block *)
}

type result = {
  writes : write list;
      (** valid log writes with [seq >= ] the checkpoint's [log_seq] and
          below the torn-write cutoff, merged across chains into
          ascending sequence order — the data roll-forward must
          reprocess *)
  tails : Log_writer.position array;
      (** where each head resumes, with the reservation in force there,
          indexed by head *)
  next_seq : int;       (** sequence number for the next write *)
  segments_scanned : int;
}

val scan : Layout.t -> Lfs_disk.Vdev.t -> ckpt:Checkpoint.t -> result
(** Follow every head's chain from [ckpt]'s positions until each ends. *)

(** {1 The payload verifier}

    The scan and [Fsck]'s integrity pass read summaries and verify
    payloads the same way: through {!Lfs_disk.Vdev.submit_read_into}
    into buffers a [reader] owns, so a scan allocates no block per
    summary or per write. *)

type reader

val reader : Layout.t -> Lfs_disk.Vdev.t -> reader

val read_block : reader -> Types.baddr -> bytes
(** The block at an address, in the reader's one-block buffer: valid
    until the reader's next [read_block]. *)

val payload_intact : reader -> Summary.t -> bool
(** Whether the payload blocks of the summary's write, read into the
    reader's payload buffer (grown to the largest write checked), match
    its [payload_sum]. *)

(** {1 The roll-forward digest}

    What roll-forward needs from the scanned writes, computed from the
    log alone (no disk, no mounted state). *)

type dirop = {
  op : Dir_log.record;
  stale_add : bool;
      (** an [Add] with [fresh] whose ino an earlier [Remove] freed, and
          whose latest recovered copy predates it (or none exists): the
          copy is the dead incarnation, and the create never reached the
          log *)
  survives_reuse : bool;
      (** a [Remove] whose ino a later fresh [Add] re-creates, with a
          recovered copy at or after that [Add]: the ino belongs to the
          new file, which the [Remove] must not touch *)
}

type digest = {
  inodes : (Types.ino * Types.Iaddr.t) list;
      (** the latest copy of each inode in the writes, in on-disk
          order *)
  dirops : dirop list;  (** every directory-log record, in log order *)
  data_blocks : int;  (** data blocks the writes carry *)
  versions : (Types.baddr, int) Hashtbl.t;
      (** the version each data and indirect block in the writes was
          written under, by address *)
}

val digest : Layout.t -> write list -> digest
(** Pure: the inode copies, dir-log records and facts above, from
    [writes] in log order (as {!scan} returns them). *)

