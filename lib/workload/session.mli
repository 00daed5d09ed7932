(** Per-client op streams for the serving engine.

    A session models one client of the office-workload file server of
    Section 5.1: a stream of small-file creates, whole-file overwrites,
    reads and deletes confined to the client's own directory, drawn from
    a seeded PRNG so the stream is a pure function of [(client, seed)].
    The stream is generated independently of file-system state — ops may
    name files that do not exist yet (a read before the create won) and
    the engine treats those as cheap no-ops, which keeps replays
    deterministic under any interleaving. *)

type op_class = Create | Write | Read | Delete

type op = {
  cls : op_class;
  name : string;  (** leaf name inside the session directory *)
  path : string;  (** full path, [dir ^ "/" ^ name] *)
  size : int;  (** bytes written (Write) or read at most (Read) *)
}

type t

val create : client:int -> seed:int -> ?files:int -> ?write_size:int -> unit -> t
(** [files] is the size of the per-client working set (default [32]
    distinct names); [write_size] bounds the bytes of one write
    (default [8192]; each write draws uniformly in [\[1, write_size\]]). *)

val client : t -> int

val dir : t -> string
(** The session's private directory, ["/c<client>"] — the engine
    creates it before serving starts. *)

val next : t -> op
(** The next op of the stream (advances the session's PRNG). *)
