(** Offline consistency checker.

    Walks the mounted file system and validates every cross-structure
    invariant; used heavily by the test suite (after random operation
    sequences, cleaning and crash recovery) to prove that the accounting
    the cleaner depends on is exact.

    Checks:
    - every allocated inode decodes and carries its own number;
    - the directory tree is acyclic from the root, every allocated inode
      is reachable, and reference counts equal the number of directory
      entries naming the inode;
    - directory payloads parse;
    - file sizes bound their block maps;
    - no two live blocks share a disk address, and live blocks lie inside
      the log area;
    - the segment usage table's live-byte counts exactly match a
      recomputation from the reachable structures. *)

type report = {
  errors : string list;
  files : int;
  directories : int;
  live_data_blocks : int;
  live_indirect_blocks : int;
}

val check : Fs.t -> report
(** Flushes, then validates.  [report.errors = []] means consistent. *)

val live_blocks : Fs.t -> (Types.baddr * string) list
(** Every block {!check}'s reachability walk finds live, each with what
    it is, ascending by address: whole blocks (["data 7.15"], ino 7's
    block 15; ["indirect 7.-2"]; ["imap block 0"]; ["usage block 1"])
    and the blocks that hold a live inode (["inode 7"]: an inode block
    or a summary, once per inode).  The mount's state is taken as it
    stands: nothing is flushed, so a buffered write has not yet
    replaced the block it overwrites. *)

val is_clean : report -> bool
val pp_report : Format.formatter -> report -> unit
