(** Crash recovery: the log scan behind roll-forward (Section 4.2).

    The scan walks each head's summary chain once, forward, from the
    checkpoint's position for that head: the checkpoint's segment from
    the checkpoint's offset ({!Summary.walk_segment}'s [from]), or the
    reserved [next_seg] from slot 0 when the walk finds that segment
    exhausted there, since the writer's next batch went there; and
    across segments by following the [next_seg] pointer of the last
    summary accepted in a segment the walk exhausts.  So it reads no
    summary written before the checkpoint.  On top of
    the walker's checks (intact, self-identifying, fits its segment) a
    summary is accepted only if its sequence number is at least the
    checkpoint's [log_seq] and strictly increases along its chain: a
    stale summary from a segment's previous life ends the walk.

    When the walk accepts a summary it reads that write's inode,
    dir-log and indirect blocks and no data block, as
    {!Summary.walk_segment} reads the entries a caller needs; the
    records and inodes the summary carries inline come with the summary
    itself.  A flush appends dir-log, data, indirect and inode blocks in
    that order, so these runs sit right behind the summary (read
    without a seek) or end the write.  The runs are kept per write,
    undecoded, in buffers of their own.

    The chains' summaries give the durability watermark [W]: the
    largest [durable_below] any of them claims, and at least the
    checkpoint's [log_seq].  Every write below [W] completed on the
    device before some summary on the medium was written, so it cannot
    be torn: the roll decodes its runs and reads nothing for it, and
    references its data blocks in place — recovery time then scales
    with the files recovered, not the bytes written (Table 3).  Writes
    at or above [W] were in flight at the crash: under queued
    submission the device commits blocks out of submission order, so a
    later summary can persist while an earlier write's payload never
    made it.  Each of them verifies its payload checksum, in log order,
    taking every block the walk already read from its runs and reading
    only the others, each once: the last block first when the summary
    carries a [tail_sum], which alone proves most torn writes torn (a
    torn write seldom lands its tail), then the rest with the tail's
    sum folded in, so a write is accepted only on its whole payload's
    checksum.  Its runs are decoded only once it verifies, so a torn
    write's garbage is never decoded.  No block is read twice in one
    scan.  The first write that fails is the torn write and truncates
    the log {e globally} — the fsync barrier spans every head, so
    nothing at or beyond its sequence number (in any chain) was
    acknowledged durable, and a later write in one chain may reference
    torn payloads in another.  Every chain is cut at that sequence
    number and each head's tail points at its first discarded summary.
    Every write takes the next sequence number, so a number that no
    chain holds (counting from the checkpoint's [log_seq]) is a write
    that never landed, summary and all; it cuts the chains the same
    way.

    A block that rots on the medium below [W] is therefore not a torn
    write: its write is rolled forward, and {!Fsck}'s integrity pass,
    which verifies every write, reports the block; a rotted dir-log
    block makes {!Fs.recover} raise [Types.Corrupt].  Summaries written
    before the watermark existed read [durable_below = 0], so [W] is
    [log_seq] and every write is verified.

    Every inode the scan decodes replaces its ino's entry in
    [latest_inodes], so the scan ends holding the latest copy of each
    recovered inode, decoded, and the indirect blocks of the writes it
    rolls forward: {!Fs.recover} builds each recovered inode's handle
    from these without reading its block or its indirect blocks again.
    Its closing orphan sweep walks the namespace by the inode map's type
    words ({!Inode_map.ftype}), loading only directories' inodes, so
    roll-forward reads no inode of a file the log since the checkpoint
    does not name.

    The scan is read-only; {!Fs.recover} applies the results. *)

type decoded =
  | Inodes of (int * Types.ino) list
      (** an inode block, or the inodes a summary carries: the ino in
          each occupied slot, as [(slot, ino)] in slot order *)
  | Records of Dir_log.record list
      (** a dir-log block's records, or those a summary carries *)

type write = {
  summary : Summary.t;
  decoded : (Types.baddr * decoded) list;
      (** what roll-forward needs of the inode-block and dir-log
          payloads and of the summary's inline records and inodes,
          keyed by block address (the summary's own for what it
          carries), in log order: the summary's records, the entries',
          then the summary's inodes.  The scan keeps no payload block *)
}

type result = {
  writes : write list;
      (** valid log writes with [seq >= ] the checkpoint's [log_seq] and
          below the torn-write cutoff, merged across chains into
          ascending sequence order — the data roll-forward must
          reprocess *)
  latest_inodes : (Types.ino, Inode.t) Hashtbl.t;
      (** the latest copy in [writes] of each inode they carry (the one
          {!digest} lists): one entry per ino, whatever the number of
          copies *)
  indirect_blocks : (Types.baddr, bytes) Hashtbl.t;
      (** every indirect and double-indirect block of [writes], one
          block each, by address, as the scan read it *)
  tails : Log_writer.position array;
      (** where each head resumes, with the reservation in force there,
          indexed by head *)
  next_seq : int;       (** sequence number for the next write *)
  segments_scanned : int;
  watermark : int;
      (** [W]: writes from here on had their payloads verified *)
  blocks_verified : int;
      (** payload blocks actually read and checksummed, of the writes at
          or above [watermark] up to and including a torn one, whether
          the walk or the check read them: a torn write whose last block
          fails its [tail_sum] counts that one block *)
}

val scan : Layout.t -> Lfs_disk.Vdev.t -> ckpt:Checkpoint.t -> result
(** Follow every head's chain from [ckpt]'s positions until each ends. *)

(** {1 The roll-forward digest}

    What roll-forward needs from the scanned writes, computed from the
    log alone (no disk, no mounted state). *)

type dirop = {
  op : Dir_log.record;
  stale : bool;
      (** an [Add] with [fresh] whose ino an earlier [Remove] freed, and
          whose latest recovered copy predates it (or none exists): the
          copy is the dead incarnation, and the create never reached the
          log; or a later record of that lost incarnation (up to the
          [Remove] that frees it), which must leave the ino's inode alone *)
  survives_reuse : bool;
      (** a [Remove] whose ino a later fresh [Add] re-creates, with a
          recovered copy at or after that [Add]: the ino belongs to the
          new file, which the [Remove] must not touch *)
  freed_later : bool;
      (** a [Rename] whose inode a later [Remove] frees: a missing copy
          of it says the file died, not that the rename was lost *)
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

