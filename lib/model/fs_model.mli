(** The executable reference model of the file-system surface.

    One pure definition of "what the namespace should contain" shared by
    every crash harness in the tree: a map of canonical paths to nodes,
    a {!step} function giving each operation's post-state and its
    {e events} (the per-path effects a crash window may partially
    persist), and the refinement oracle {!check} that decides whether a
    recovered namespace is some state between the durability frontier
    and the crash operation.

    Two drivers feed it: the op-sequence driver ({!Refine}) shadows
    scripted operations with {!step} directly, and the {!Recorder}
    wraps a live {!Lfs_workload.Fsops.t} so unscripted workloads (the
    serving engine, the legacy crashtest workloads) produce the same
    event vocabulary. *)

type node = Dir | File of bytes
type state

val empty : state
(** Just the root directory (path [""]). *)

val parent : string -> string
(** ["/a/b" -> "/a"], ["/a" -> ""] (the root). *)

val leaf : string -> string

val files : state -> (string * bytes) list
val dirs : state -> string list
(** Current files (path, content) / directory paths, root [""] included. *)

(** {1 Operations} *)

type op =
  | Mkdir of string
  | Create of string
  | Write of { path : string; off : int; data : bytes }
  | Truncate of { path : string; len : int }
  | Rename of { src : string; dst : string }
  | Remove of string
  | Rmdir of string
  | Sync
  | Idle
      (** an idle window: the backend may run one budgeted cleaning
          step; no effect on the namespace *)

val pp_op : Format.formatter -> op -> unit
val op_to_string : op -> string

(** {1 Events and transitions} *)

type event =
  | Efile of string * bytes option
      (** full logical content after the op; [None] = removed *)
  | Edir of string * bool  (** directory present after the op? *)
  | Erename of { src : string; dst : string }
      (** namespace move: the oracle splices [src]'s pre-rename version
          chain into [dst]'s, because the directory entry can persist
          across a crash while the moved inode's data rolls back to an
          older version it held under the old name *)

val step : state -> op -> (state * event list, string) result
(** The transition relation.  [Ok (state', events)] when the backends
    must accept the op; [Error reason] when they must refuse it with
    {!Lfs_core.Types.Fs_error}.  Mirrors the verified backend
    semantics: no implicit ancestor creation, create/mkdir refuse
    existing names, truncate extends with zeros, rename is
    regular-file-only (directory renames are not modelled — the shard
    router cannot move them), same-path rename and empty writes are
    accepted no-ops. *)

(** {1 The refinement oracle} *)

val chain :
  (int * event) list ->
  string ->
  durable:int ->
  upto:int ->
  bytes option * bytes option list
(** Version chain of a file path at a cut: newest content with
    op <= [durable] plus every version in the ([durable], [upto]]
    window. *)

val content_acceptable : bs:int -> bytes list -> bytes -> bool
(** Whether recovered content is block-wise assembled from the given
    versions; see the implementation comment for the zero-frontier
    rule. *)

val explain_mismatch : bs:int -> bytes list -> bytes -> string

val dirs_of_events : (int * event) list -> upto:int -> (string, unit) Hashtbl.t
(** Every path any [Edir] event up to [upto] mentions — the set of
    paths a recovered-tree walk should descend into. *)

val walk :
  root:'ino ->
  readdir:('ino -> (string * 'ino) list) ->
  file_size:('ino -> int) ->
  read:('ino -> off:int -> len:int -> bytes) ->
  model_dirs:(string, unit) Hashtbl.t ->
  (string, bytes) Hashtbl.t * (string, unit) Hashtbl.t
(** Read a recovered namespace into (files by path, dir-path set),
    entering only paths [model_dirs] knows as directories. *)

val check :
  bs:int ->
  events:(int * event) list ->
  durable:int ->
  upto:int ->
  files:(string, bytes) Hashtbl.t ->
  dirs:(string, unit) Hashtbl.t ->
  string list
(** The refinement check: given the event log, the durability frontier
    ([durable], last completed sync barrier) and the crash op ([upto]),
    decide whether the recovered namespace ([files], [dirs]) is some
    state in the ([durable], [upto]] window.  Returns human-readable
    divergences; [[]] means the recovery refines the model. *)

(** {1 Recording a live Fsops driver} *)

module Recorder : sig
  type t

  val create : root:Lfs_core.Types.ino -> t

  val instrument : t -> Lfs_workload.Fsops.t -> Lfs_workload.Fsops.t
  (** Shadow every mutating call with its intended events, numbered by
      operation.  Events are recorded {e before} the real call (a crash
      mid-op may persist part of the effect) and popped again when the
      call is refused with [Fs_error].  The durability frontier
      advances only when an inner [sync] {e returns} — an op
      acknowledged into a group-commit batch whose shared sync has not
      completed at the crash is still in the in-flight window. *)

  val op : t -> int
  (** Operations recorded so far (the [upto] of a crash here). *)

  val durable : t -> int
  (** Index of the last completed sync barrier. *)

  val events : t -> (int * event) list
end
