(** The directory operation log (Section 4.2).

    Each directory mutation is recorded here and the record is guaranteed
    to reach the log before the corresponding directory block or inode.
    Roll-forward uses the records to restore consistency between
    directory entries and inode reference counts, and they make rename
    atomic across crashes. *)

type record =
  | Add of {
      dir : Types.ino;
      name : string;
      ino : Types.ino;
      nlink : int;
      fresh : bool;
    }
      (** create or link: entry [name -> ino] added to [dir]; the
          inode's reference count after the operation is [nlink].
          [fresh] marks a newly allocated inode (create/mkdir) as
          opposed to a link to an existing one — roll-forward needs the
          distinction to tell incarnations of a reused inode number
          apart *)
  | Remove of { dir : Types.ino; name : string; ino : Types.ino; nlink : int }
      (** unlink: entry removed; [nlink = 0] means the file dies *)
  | Rename of {
      odir : Types.ino;
      oname : string;
      ndir : Types.ino;
      nname : string;
      ino : Types.ino;
    }  (** atomic move of [ino] from [odir/oname] to [ndir/nname] *)

val group_blocks : block_size:int -> record list -> record list list
(** Split records, in order, into as many groups as there are dir-log
    blocks to hold them: each group fills one block. *)

val encode_block_into : block_size:int -> record list -> bytes -> pos:int -> unit
(** Render one group of {!group_blocks} as the dir-log block at byte
    [pos] of the buffer, writing every byte of the block: the log
    writer renders dir-log blocks this way, straight into its transfer
    buffer. *)

val decode_block : ?pos:int -> bytes -> record list
(** The records of the dir-log block at byte [pos] (default 0) of the
    buffer.  Total: raises {!Types.Corrupt} on malformed content,
    a read past the buffer included, and nothing else. *)

val records_size : record list -> int
(** Bytes the records take in their encoding, with no count field. *)

val encode_records_into : bytes -> pos:int -> record list -> unit
(** Render the records back to back from byte [pos] of the buffer: the
    encoding a summary carries its inline records in. *)

val decode_records : bytes -> pos:int -> len:int -> record list
(** The records {!encode_records_into} rendered into the [len] bytes
    from [pos].  Raises {!Types.Corrupt} unless they parse to exactly
    [len] bytes (a read past the buffer raises
    {!Lfs_util.Bytes_codec.Overflow}). *)

val pp_record : Format.formatter -> record -> unit
