module Vdev = Lfs_disk.Vdev
module Fs = Lfs_core.Fs
module Config = Lfs_core.Config
module Types = Lfs_core.Types
module Fs_intf = Lfs_core.Fs_intf
module Metrics = Lfs_obs.Metrics

type policy = By_hash | By_subtree

let policy_name = function By_hash -> "by_hash" | By_subtree -> "by_subtree"

let policy_of_string = function
  | "by_hash" -> Some By_hash
  | "by_subtree" -> Some By_subtree
  | _ -> None

type t = {
  shards : Fs.t array;
  policy : policy;
  (* Router ino -> canonical path.  Volatile: rebuilt as handles are
     handed out (the root is preseeded), which recovery's walk-from-root
     does naturally. *)
  paths : (Types.ino, string) Hashtbl.t;
  metrics : Metrics.t;
  placed : Metrics.counter array;
}

let root = Types.root_ino

(* ------------------------------------------------------------------ *)
(* Ino encoding: shard id in the high bits, shard-local ino below.     *)
(* ------------------------------------------------------------------ *)

let shard_shift = 24
let local_mask = (1 lsl shard_shift) - 1
let encode ~shard local = ((shard + 1) lsl shard_shift) lor local

let ino_shard ino =
  let s = (ino lsr shard_shift) - 1 in
  if s < 0 then None else Some s

let decode t ino =
  match ino_shard ino with
  | Some s when s < Array.length t.shards -> (s, ino land local_mask)
  | Some _ | None ->
      Types.fs_error
        "shard router: inode %d carries no valid shard id (root directory, \
         or a handle from another volume?)"
        ino

(* ------------------------------------------------------------------ *)
(* Placement: rendezvous hash of a path-derived key.                   *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the key bytes with a splitmix-style finisher per shard.
   Plain integer arithmetic, no [Hashtbl.hash]: placement must be a
   stable contract across runs and compiler versions, because a volume
   remounted tomorrow must look for its files on the same shards. *)
let fnv1a s =
  let h = ref 0xcbf29ce4842223 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h

let mix h i =
  let z = h + ((i + 1) * 0x9e3779b97f4a7) in
  let z = (z lxor (z lsr 30)) * 0xbf58476d1ce4e5 in
  let z = (z lxor (z lsr 27)) * 0x94d049bb1331 in
  (z lxor (z lsr 31)) land max_int

(* Highest-random-weight choice: every key ranks all shards; adding a
   shard only moves the keys whose new rank wins, nothing else. *)
let rendezvous t key =
  let n = Array.length t.shards in
  if n = 1 then 0
  else begin
    let h = fnv1a key in
    let best = ref 0 and best_score = ref (mix h 0) in
    for i = 1 to n - 1 do
      let s = mix h i in
      if s > !best_score then begin
        best := i;
        best_score := s
      end
    done;
    !best
  end

let first_component path =
  match Fs_intf.split_path path with [] -> "" | c :: _ -> c

(* Home shard of the object [name] under the directory at
   [parent_path] ("" is the root). *)
let place t ~parent_path ~name =
  let key =
    match t.policy with
    | By_hash -> if parent_path = "" then "/" else parent_path
    | By_subtree -> (
        (* The subtree root: the first component of the object's own
           path — for a child of the root that is the child itself. *)
        match first_component parent_path with "" -> name | c -> c)
  in
  rendezvous t key

let place_path t path =
  match List.rev (Fs_intf.split_path path) with
  | [] -> invalid_arg "Shard_router.place_path: the root is not placed"
  | name :: rev_parents ->
      place t ~parent_path:(String.concat "/" (List.rev rev_parents)) ~name

(* ------------------------------------------------------------------ *)
(* Canonical paths and per-shard navigation                            *)
(* ------------------------------------------------------------------ *)

(* Canonical form: "" for the root, "a/b/c" (no leading slash) below it;
   the placement key code above is the only consumer that re-adds "/". *)
let child_path parent name = if parent = "" then name else parent ^ "/" ^ name

let path_of t ino =
  if ino = root then ""
  else
    match Hashtbl.find_opt t.paths ino with
    | Some p -> p
    | None ->
        Types.fs_error
          "shard router: unknown inode %d (stale handle from before a \
           remount?)"
          ino

let remember t ino path = Hashtbl.replace t.paths ino path

(* Make sure the directory chain for [path] exists on [fs], creating
   mirror shells as needed, and return its shard-local ino.  Ancestors
   are always directories here: a file and a directory of the same path
   share a placement key, so the canonical shard would have rejected
   whichever came second. *)
let ensure_dir_on fs path =
  List.fold_left
    (fun dir name ->
      match Fs.lookup fs ~dir name with
      | Some ino -> ino
      | None -> Fs.mkdir fs ~dir name)
    Fs.root (Fs_intf.split_path path)

(* ------------------------------------------------------------------ *)
(* Namespace                                                           *)
(* ------------------------------------------------------------------ *)

let add_child t ~dir name ~op =
  let parent = path_of t dir in
  let s = place t ~parent_path:parent ~name in
  let fs = t.shards.(s) in
  let pdir = ensure_dir_on fs parent in
  let local = op fs ~dir:pdir name in
  Metrics.incr t.placed.(s);
  let ino = encode ~shard:s local in
  remember t ino (child_path parent name);
  ino

let create t ~dir name = add_child t ~dir name ~op:(fun fs ~dir n -> Fs.create fs ~dir n)
let mkdir t ~dir name = add_child t ~dir name ~op:(fun fs ~dir n -> Fs.mkdir fs ~dir n)

let lookup t ~dir name =
  let parent = path_of t dir in
  let s = place t ~parent_path:parent ~name in
  let fs = t.shards.(s) in
  match Fs.resolve fs parent with
  | None -> None
  | Some pdir -> (
      match Fs.lookup fs ~dir:pdir name with
      | None -> None
      | Some local ->
          let ino = encode ~shard:s local in
          remember t ino (child_path parent name);
          Some ino)

let readdir t ino =
  let path = path_of t ino in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iteri
    (fun s fs ->
      match Fs.resolve fs path with
      | None -> ()
      | Some d ->
          List.iter
            (fun (name, local) ->
              (* Keep the entry iff this shard is the child's home:
                 copies on other shards are mirror shells of the same
                 name, not the object. *)
              if
                place t ~parent_path:path ~name = s
                && not (Hashtbl.mem seen name)
              then begin
                Hashtbl.add seen name ();
                let cino = encode ~shard:s local in
                remember t cino (child_path path name);
                out := (name, cino) :: !out
              end)
            (Fs.readdir fs d))
    t.shards;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let unlink t ~dir name =
  let parent = path_of t dir in
  let s = place t ~parent_path:parent ~name in
  let fs = t.shards.(s) in
  match Fs.resolve fs parent with
  | None -> Types.fs_error "no such entry %S" name
  | Some pdir -> Fs.unlink fs ~dir:pdir name

(* Removing a directory must also remove its mirror shells: the union
   [readdir] would otherwise keep resurrecting the name, and a later
   directory of the same name would inherit stale children. *)
let rmdir t ~dir name =
  let parent = path_of t dir in
  let path = child_path parent name in
  let s = place t ~parent_path:parent ~name in
  let fs = t.shards.(s) in
  match Fs.resolve fs parent with
  | None -> Types.fs_error "no such entry %S" name
  | Some pdir -> (
      match Fs.lookup fs ~dir:pdir name with
      | None -> Types.fs_error "no such entry %S" name
      | Some local ->
          if (Fs.stat fs local).Fs.st_ftype <> Types.Directory then
            Types.fs_error "%S is not a directory" name;
          (* Empty means empty on every shard holding the directory:
             canonical children live on their own home shards. *)
          Array.iter
            (fun sfs ->
              match Fs.resolve sfs path with
              | None -> ()
              | Some d ->
                  if Fs.readdir sfs d <> [] then
                    Types.fs_error "directory %S is not empty" name)
            t.shards;
          Fs.rmdir fs ~dir:pdir name;
          Array.iteri
            (fun i sfs ->
              if i <> s then
                match Fs.resolve sfs parent with
                | None -> ()
                | Some pd -> (
                    match Fs.lookup sfs ~dir:pd name with
                    | Some _ -> Fs.rmdir sfs ~dir:pd name
                    | None -> ()))
            t.shards;
          Hashtbl.remove t.paths (encode ~shard:s local))

(* Renaming a file between placement keys cannot be atomic across two
   logs; the move is copy-then-unlink, so a crash can briefly expose
   both names (never neither: the source is unlinked last).  Directory
   renames would re-key every descendant's placement and are refused. *)
let rename t ~odir oname ~ndir nname =
  let oparent = path_of t odir and nparent = path_of t ndir in
  let os = place t ~parent_path:oparent ~name:oname in
  let ns = place t ~parent_path:nparent ~name:nname in
  let ofs = t.shards.(os) in
  match Fs.resolve ofs oparent with
  | None -> Types.fs_error "no such entry %S" oname
  | Some opd -> (
      match Fs.lookup ofs ~dir:opd oname with
      | None -> Types.fs_error "no such entry %S" oname
      | Some olocal ->
          if (Fs.stat ofs olocal).Fs.st_ftype = Types.Directory then
            Types.fs_error
              "shard router: cannot rename directory %S (placement is \
               path-keyed)"
              oname;
          if os = ns then begin
            let npd = ensure_dir_on ofs nparent in
            Fs.rename ofs ~odir:opd oname ~ndir:npd nname;
            remember t (encode ~shard:os olocal) (child_path nparent nname)
          end
          else begin
            let nfs = t.shards.(ns) in
            let npd = ensure_dir_on nfs nparent in
            let data =
              Fs.read ofs olocal ~off:0 ~len:(Fs.file_size ofs olocal)
            in
            let nlocal =
              match Fs.lookup nfs ~dir:npd nname with
              | Some nlocal
                when (Fs.stat nfs nlocal).Fs.st_ftype = Types.Directory ->
                  Types.fs_error "%S is a directory" nname
              | Some nlocal ->
                  (* Overwrite the existing destination in place.
                     Unlink-then-create would let a crash destroy the
                     durable destination of an unacknowledged rename:
                     the unlink's journal record can persist while the
                     replacement inode never reaches the log.  Keeping
                     the inode means recovery rolls the content back to
                     a consistent point state instead. *)
                  Fs.truncate nfs nlocal ~len:0;
                  nlocal
              | None -> Fs.create nfs ~dir:npd nname
            in
            if Bytes.length data > 0 then Fs.write nfs nlocal ~off:0 data;
            Fs.unlink ofs ~dir:opd oname;
            Metrics.incr t.placed.(ns);
            remember t (encode ~shard:ns nlocal) (child_path nparent nname)
          end)

(* ------------------------------------------------------------------ *)
(* File IO: decode the shard, delegate.                                *)
(* ------------------------------------------------------------------ *)

let write t ino ~off b =
  let s, local = decode t ino in
  Fs.write t.shards.(s) local ~off b

let read t ino ~off ~len =
  let s, local = decode t ino in
  Fs.read t.shards.(s) local ~off ~len

let truncate t ino ~len =
  let s, local = decode t ino in
  Fs.truncate t.shards.(s) local ~len

let file_size t ino =
  let s, local = decode t ino in
  Fs.file_size t.shards.(s) local

include Fs_intf.Paths (struct
  type nonrec t = t

  let root = root and lookup = lookup and create = create and mkdir = mkdir
  let truncate = truncate and write = write and read = read
  let file_size = file_size
end)

(* ------------------------------------------------------------------ *)
(* Lifecycle and maintenance                                           *)
(* ------------------------------------------------------------------ *)

let sync t = Array.iter Fs.sync t.shards
let drop_caches t = Array.iter Fs.drop_caches t.shards
let devices t = List.concat_map Fs.devices (Array.to_list t.shards)
let checkpoint t = Array.iter Fs.checkpoint t.shards

let clean_step ?max_segments t =
  Array.fold_left
    (fun owed fs -> owed + Fs.clean_step ?max_segments fs)
    0 t.shards

let on_log_batch t f = Array.iter (fun fs -> Fs.on_log_batch fs f) t.shards

let metrics t = t.metrics
let shard_count t = Array.length t.shards
let policy t = t.policy
let shard_fs t i = t.shards.(i)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let check_members = function
  | [] -> invalid_arg "Shard_router: need at least one shard"
  | members -> Array.of_list members

let scope i = Printf.sprintf "shard%d." i

let check_local_space fs =
  let mi = (Fs.config fs).Config.max_inodes in
  if mi > local_mask then
    invalid_arg
      (Printf.sprintf
         "Shard_router: max_inodes %d overflows the %d-bit local-ino space"
         mi shard_shift)

let make ~policy shards metrics =
  Array.iter check_local_space shards;
  let n = Array.length shards in
  Metrics.set (Metrics.gauge metrics "router.shards") (float_of_int n);
  let placed =
    Array.init n (fun i ->
        Metrics.counter metrics (Printf.sprintf "router.placed.shard%d" i))
  in
  let t =
    { shards; policy; paths = Hashtbl.create 256; metrics; placed }
  in
  Hashtbl.replace t.paths root "";
  t

let mount ?(policy = By_hash) members =
  let metrics = Metrics.create () in
  let shards =
    Array.mapi
      (fun i open_shard -> open_shard (Metrics.scoped metrics (scope i)))
      (check_members members)
  in
  make ~policy shards metrics

(* Post-crash mirror hygiene.  A mirror dirent is a name on a shard
   that is not its home; it only exists to carry the path down to
   canonical children.  Per-shard recovery can roll one shard back past
   the canonical entry's creation while mirror shells of it (created
   lazily, on other shards, in other logs) survive — leaving subtrees
   that the canonical namespace no longer accounts for.  Walk every
   shard's local tree and drop any entry whose canonical name did not
   survive on its home shard. *)
let revalidate_mirrors t =
  let dropped = ref 0 in
  let rec prune fs ~dir name local =
    (match (Fs.stat fs local).Fs.st_ftype with
    | Types.Directory ->
        List.iter
          (fun (n, l) -> prune fs ~dir:local n l)
          (Fs.readdir fs local);
        Fs.rmdir fs ~dir name
    | Types.Regular -> Fs.unlink fs ~dir name);
    incr dropped
  in
  let canonical_survives t ~home ~parent_path ~name =
    match Fs.resolve t.shards.(home) parent_path with
    | None -> false
    | Some pd -> Fs.lookup t.shards.(home) ~dir:pd name <> None
  in
  let rec walk s fs ~dir path =
    List.iter
      (fun (name, local) ->
        let home = place t ~parent_path:path ~name in
        if
          home <> s
          && not (canonical_survives t ~home ~parent_path:path ~name)
        then prune fs ~dir name local
        else if (Fs.stat fs local).Fs.st_ftype = Types.Directory then
          walk s fs ~dir:local (child_path path name))
      (Fs.readdir fs dir)
  in
  Array.iteri (fun s fs -> walk s fs ~dir:Fs.root "") t.shards;
  !dropped

let recover ?(policy = By_hash) members =
  let metrics = Metrics.create () in
  let pairs =
    Array.mapi
      (fun i recover_shard -> recover_shard (Metrics.scoped metrics (scope i)))
      (check_members members)
  in
  let shards = Array.map fst pairs in
  let reports = Array.to_list (Array.map snd pairs) in
  let t = make ~policy shards metrics in
  let dropped = revalidate_mirrors t in
  Metrics.set
    (Metrics.gauge metrics "router.mirrors_dropped")
    (float_of_int dropped);
  (* Make the repairs durable before handing the volume out: a second
     crash must not resurrect what re-validation just removed. *)
  if dropped > 0 then sync t;
  (t, reports)
