module Smap = Map.Make (String)
module Fsops = Lfs_workload.Fsops
module Types = Lfs_core.Types

(* ------------------------------------------------------------------ *)
(* The pure reference state                                            *)
(* ------------------------------------------------------------------ *)

type node = Dir | File of bytes

type state = node Smap.t

(* "" is the root; every other path is canonical "/a/b". *)
let empty = Smap.add "" Dir Smap.empty

let parent path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> ""
  | Some i -> String.sub path 0 i

let leaf path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let node_at st p = Smap.find_opt p st
let dir_exists st p = match node_at st p with Some Dir -> true | _ -> false

let has_children st p =
  let prefix = p ^ "/" in
  Smap.exists (fun q _ -> String.starts_with ~prefix q) st

let files st =
  Smap.fold (fun p n acc -> match n with File b -> (p, b) :: acc | Dir -> acc) st []
  |> List.rev

let dirs st =
  Smap.fold (fun p n acc -> match n with Dir -> p :: acc | File _ -> acc) st []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

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

let pp_op ppf = function
  | Mkdir p -> Format.fprintf ppf "mkdir %s" p
  | Create p -> Format.fprintf ppf "create %s" p
  | Write { path; off; data } ->
      Format.fprintf ppf "write %s @%d +%d" path off (Bytes.length data)
  | Truncate { path; len } -> Format.fprintf ppf "truncate %s to %d" path len
  | Rename { src; dst } -> Format.fprintf ppf "rename %s -> %s" src dst
  | Remove p -> Format.fprintf ppf "remove %s" p
  | Rmdir p -> Format.fprintf ppf "rmdir %s" p
  | Sync -> Format.fprintf ppf "sync"
  | Idle -> Format.fprintf ppf "idle"

let op_to_string op = Format.asprintf "%a" pp_op op

(* ------------------------------------------------------------------ *)
(* Events: what a crash window may partially persist                   *)
(* ------------------------------------------------------------------ *)

type event =
  | Efile of string * bytes option  (* full logical content; None = removed *)
  | Edir of string * bool  (* present after this op? *)
  | Erename of { src : string; dst : string }
      (* namespace move: dst's acceptable contents include src's
         pre-rename versions (the dirent can persist while the moved
         inode's data rolls back) *)

(* The overwrite/extend result of [write old ~off data]. *)
let splice old ~off data =
  let len = max (Bytes.length old) (off + Bytes.length data) in
  let m = Bytes.make len '\000' in
  Bytes.blit old 0 m 0 (Bytes.length old);
  Bytes.blit data 0 m off (Bytes.length data);
  m

let resize old len =
  if len <= Bytes.length old then Bytes.sub old 0 len
  else splice old ~off:(Bytes.length old) (Bytes.make (len - Bytes.length old) '\000')

(* One transition: the post-state plus the events describing the op's
   intended effect, or [Error] when the backends must refuse it with
   {!Lfs_core.Types.Fs_error}.  The model covers the regular-file op
   surface the drivers generate: directory renames are always an error
   here even though the single-volume backends could move them (the
   shard router cannot — placement keys are path-derived — and no
   driver emits them). *)
let step st op =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  match op with
  | Mkdir p ->
      if p = "" then err "mkdir of root"
      else if not (dir_exists st (parent p)) then err "mkdir %s: missing parent" p
      else if Smap.mem p st then err "mkdir %s: exists" p
      else Ok (Smap.add p Dir st, [ Edir (p, true) ])
  | Create p ->
      if p = "" then err "create of root"
      else if not (dir_exists st (parent p)) then err "create %s: missing parent" p
      else if Smap.mem p st then err "create %s: exists" p
      else Ok (Smap.add p (File Bytes.empty) st, [ Efile (p, Some Bytes.empty) ])
  | Write { path; off; data } -> (
      match node_at st path with
      | Some (File old) ->
          if off < 0 then err "write %s: negative offset" path
          else if Bytes.length data = 0 then Ok (st, [])
          else
            let m = splice old ~off data in
            Ok (Smap.add path (File m) st, [ Efile (path, Some m) ])
      | Some Dir -> err "write %s: is a directory" path
      | None -> err "write %s: no such file" path)
  | Truncate { path; len } -> (
      match node_at st path with
      | Some (File old) ->
          if len < 0 then err "truncate %s: negative length" path
          else
            let m = resize old len in
            Ok (Smap.add path (File m) st, [ Efile (path, Some m) ])
      | Some Dir -> err "truncate %s: is a directory" path
      | None -> err "truncate %s: no such file" path)
  | Rename { src; dst } -> (
      match node_at st src with
      | None -> err "rename %s: no such file" src
      | Some Dir -> err "rename %s: directory renames are not modelled" src
      | Some (File c) ->
          if src = dst then Ok (st, [])
          else if not (dir_exists st (parent dst)) then
            err "rename to %s: missing parent" dst
          else if dir_exists st dst then err "rename to %s: target is a directory" dst
          else
            (* Copy-then-unlink backends may expose both names mid-crash;
               per-path, each intermediate matches one of these events. *)
            Ok
              ( Smap.add dst (File c) (Smap.remove src st),
                [
                  Erename { src; dst };
                  Efile (dst, Some c);
                  Efile (src, None);
                ] ))
  | Remove p -> (
      match node_at st p with
      | Some (File _) -> Ok (Smap.remove p st, [ Efile (p, None) ])
      | Some Dir -> err "remove %s: is a directory" p
      | None -> err "remove %s: no such file" p)
  | Rmdir p -> (
      match node_at st p with
      | _ when p = "" -> err "rmdir of root"
      | Some Dir ->
          if has_children st p then err "rmdir %s: not empty" p
          else Ok (Smap.remove p st, [ Edir (p, false) ])
      | Some (File _) -> err "rmdir %s: not a directory" p
      | None -> err "rmdir %s: no such directory" p)
  | Sync | Idle -> Ok (st, [])

(* ------------------------------------------------------------------ *)
(* The refinement oracle                                               *)
(* ------------------------------------------------------------------ *)

(* Version chain of [path] at a cut: the newest content with op <=
   durable (None if the path did not exist then), plus every version in
   the in-flight window (durable, upto].

   A window rename into [path] splices in the source's own pre-rename
   chain: the directory entry can persist while the moved inode's data
   rolls back, so any content [src] held before the rename may surface
   under [dst].  Absence markers do not transfer — data rollback
   exposes old content, never a missing file.  The recursion shrinks
   [upto] to the op before the rename, so rename cycles terminate. *)
let rec chain events path ~durable ~upto =
  let durable_v = ref None and window = ref [] in
  List.iter
    (fun (op, ev) ->
      match ev with
      | Efile (p, v) when String.equal p path ->
          if op <= durable then durable_v := v
          else if op <= upto then window := v :: !window
      | Erename { src; dst }
        when String.equal dst path && op > durable && op <= upto ->
          let sdur, swin = chain events src ~durable ~upto:(op - 1) in
          let contents = List.filter_map Fun.id (sdur :: swin) in
          window :=
            List.rev_append (List.map Option.some contents) !window
      | _ -> ())
    events;
  (!durable_v, List.rev !window)

(* Directory presence chain: durable presence (absent before any event)
   plus the presence value of every window event. *)
let dir_chain events path ~durable ~upto =
  let durable_p = ref false and window = ref [] in
  List.iter
    (fun (op, ev) ->
      match ev with
      | Edir (p, present) when String.equal p path ->
          if op <= durable then durable_p := present
          else if op <= upto then window := present :: !window
      | _ -> ())
    events;
  (!durable_p, List.rev !window)

(* Recovered content is legal if it equals some version outright, or if
   every [bs]-sized block of it matches the corresponding block of some
   version.  The device persists flushed data at block granularity, so
   a crash can mix blocks of adjacent versions but can never fabricate a
   block no version contained.  A zero block is additionally accepted
   only on a growth frontier (some version ends before it): a partially
   persisted extension may leave an unwritten hole, but a file whose
   every version covers the block must really hold its data. *)
let content_acceptable ~bs versions c =
  List.exists (fun v -> Bytes.equal v c) versions
  ||
  let len = Bytes.length c in
  List.exists (fun v -> Bytes.length v >= len) versions
  &&
  let nblocks = (len + bs - 1) / bs in
  let block_ok i =
    let lo = i * bs in
    let hi = min len (lo + bs) in
    let matches v =
      Bytes.length v >= hi
      && Bytes.equal (Bytes.sub c lo (hi - lo)) (Bytes.sub v lo (hi - lo))
    in
    let zero_frontier () =
      List.exists (fun v -> Bytes.length v < hi) versions
      &&
      let rec z j = j >= hi || (Bytes.get c j = '\000' && z (j + 1)) in
      z lo
    in
    List.exists matches versions || zero_frontier ()
  in
  let rec all i = i >= nblocks || (block_ok i && all (i + 1)) in
  all 0

(* First offending region of [c], for failure reports. *)
let explain_mismatch ~bs versions c =
  let len = Bytes.length c in
  if not (List.exists (fun v -> Bytes.length v >= len) versions) then
    Printf.sprintf "len %d exceeds every version (lens %s)" len
      (String.concat ","
         (List.map (fun v -> string_of_int (Bytes.length v)) versions))
  else
    let nblocks = (len + bs - 1) / bs in
    let rec find i =
      if i >= nblocks then "?"
      else
        let lo = i * bs in
        let hi = min len (lo + bs) in
        let matches v =
          Bytes.length v >= hi
          && Bytes.equal (Bytes.sub c lo (hi - lo)) (Bytes.sub v lo (hi - lo))
        in
        if List.exists matches versions then find (i + 1)
        else
          Printf.sprintf "block %d of %d (len %d, %d versions: %s)" i nblocks len
            (List.length versions)
            (String.concat ","
               (List.map (fun v -> string_of_int (Bytes.length v)) versions))
    in
    find 0

let dirs_of_events events ~upto =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (op, ev) ->
      match ev with Edir (p, _) when op <= upto -> Hashtbl.replace t p () | _ -> ())
    events;
  t

(* Walk a recovered tree.  Only paths the event log knows as directories
   are entered; everything else is read as a file.  Polymorphic in the
   inode type so any {!Lfs_core.Fs_intf.S} instance fits. *)
let walk ~root ~readdir ~file_size ~read ~model_dirs =
  let files = Hashtbl.create 64 and dirs = Hashtbl.create 16 in
  let rec go dpath ino =
    Hashtbl.replace dirs dpath ();
    List.iter
      (fun (name, child) ->
        let cpath = dpath ^ "/" ^ name in
        if Hashtbl.mem model_dirs cpath then go cpath child
        else
          let sz = file_size child in
          Hashtbl.replace files cpath (read child ~off:0 ~len:sz))
      (readdir ino)
  in
  go "" root;
  (files, dirs)

(* The refinement check: the recovered namespace must be *some* state
   between the durable frontier and the crash op.  Per path:

   - a file's recovered content must be block-wise assembled from the
     versions in its (durable, upto] chain, and may be absent only if
     the durable version is absent or some window version removes it;
   - a directory may be present only if it was present durably or some
     window event creates it, and absent only if it was absent durably
     or some window event removes it;
   - nothing the event log never mentions may appear. *)
let check ~bs ~events ~durable ~upto ~files:recovered_files ~dirs:recovered_dirs =
  let model_files = Hashtbl.create 64 and model_dirs = Hashtbl.create 16 in
  List.iter
    (fun (op, ev) ->
      if op <= upto then
        match ev with
        | Efile (p, _) -> Hashtbl.replace model_files p ()
        | Edir (p, _) -> Hashtbl.replace model_dirs p ()
        | Erename _ -> ())
    events;
  let divs = ref [] in
  let div fmt = Printf.ksprintf (fun s -> divs := s :: !divs) fmt in
  Hashtbl.iter
    (fun path () ->
      let durable_p, window = dir_chain events path ~durable ~upto in
      let recovered = Hashtbl.mem recovered_dirs path in
      if recovered && not (durable_p || List.exists Fun.id window) then
        div "%s: removed directory resurrected" path
      else if
        (not recovered) && durable_p && not (List.exists (fun p -> not p) window)
      then div "%s: durable directory missing" path)
    model_dirs;
  Hashtbl.iter
    (fun path () ->
      let durable_v, window = chain events path ~durable ~upto in
      match Hashtbl.find_opt recovered_files path with
      | None ->
          let absent_ok =
            durable_v = None || List.exists (fun v -> v = None) window
          in
          if not absent_ok then div "%s: durable content lost" path
      | Some c ->
          let versions = List.filter_map Fun.id (durable_v :: window) in
          if not (content_acceptable ~bs versions c) then
            div
              "%s: recovered content matches no state the workload passed \
               through (%s)"
              path
              (explain_mismatch ~bs versions c))
    model_files;
  Hashtbl.iter
    (fun path _ ->
      if not (Hashtbl.mem model_files path) then
        div "%s: path never written by the workload" path)
    recovered_files;
  List.rev !divs

(* ------------------------------------------------------------------ *)
(* The recorder: shadow an Fsops driver with model events              *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  type t = {
    mutable op : int;
    mutable durable : int;
    mutable events_rev : (int * event) list;
    ino_path : (Types.ino, string) Hashtbl.t;
  }

  let create ~root =
    let t =
      { op = 0; durable = 0; events_rev = []; ino_path = Hashtbl.create 64 }
    in
    Hashtbl.replace t.ino_path root "";
    t

  let op t = t.op
  let durable t = t.durable
  let events t = List.rev t.events_rev

  let latest_content t path =
    let rec find = function
      | (_, Efile (p, v)) :: _ when String.equal p path -> v
      | _ :: rest -> find rest
      | [] -> None
    in
    find t.events_rev

  (* Record the intended effect {e before} invoking the real operation:
     a crash mid-operation may have persisted part of it.  If the
     operation instead fails logically (Fs_error), pop the events. *)
  let step t evs f =
    t.op <- t.op + 1;
    let op = t.op in
    List.iter (fun e -> t.events_rev <- (op, e) :: t.events_rev) evs;
    try f ()
    with Types.Fs_error _ as exn ->
      let rec pop = function
        | (o, _) :: rest when o = op -> pop rest
        | rest -> rest
      in
      t.events_rev <- pop t.events_rev;
      raise exn

  let path_of_dir t dir name =
    let dpath =
      match Hashtbl.find_opt t.ino_path dir with Some p -> p | None -> "?"
    in
    dpath ^ "/" ^ name

  let instrument t (inner : Fsops.t) =
    {
      inner with
      Fsops.create_path =
        (fun path ->
          let ino =
            step t
              [ Efile (path, Some Bytes.empty) ]
              (fun () -> inner.Fsops.create_path path)
          in
          Hashtbl.replace t.ino_path ino path;
          ino);
      mkdir_path =
        (fun path ->
          let ino =
            step t [ Edir (path, true) ] (fun () -> inner.Fsops.mkdir_path path)
          in
          Hashtbl.replace t.ino_path ino path;
          ino);
      resolve =
        (fun path ->
          let r = step t [] (fun () -> inner.Fsops.resolve path) in
          (match r with
          | Some ino -> Hashtbl.replace t.ino_path ino path
          | None -> ());
          r);
      unlink =
        (fun ~dir name ->
          let path = path_of_dir t dir name in
          step t [ Efile (path, None) ] (fun () -> inner.Fsops.unlink ~dir name));
      rmdir =
        (fun ~dir name ->
          let path = path_of_dir t dir name in
          step t [ Edir (path, false) ] (fun () -> inner.Fsops.rmdir ~dir name));
      rename =
        (fun ~odir oname ~ndir nname ->
          let src = path_of_dir t odir oname in
          let dst = path_of_dir t ndir nname in
          let evs =
            if String.equal src dst then []
            else
              let c =
                match latest_content t src with
                | Some c -> c
                | None -> Bytes.empty
              in
              [
                Erename { src; dst };
                Efile (dst, Some c);
                Efile (src, None);
              ]
          in
          step t evs (fun () -> inner.Fsops.rename ~odir oname ~ndir nname));
      write =
        (fun ino ~off b ->
          let evs =
            match Hashtbl.find_opt t.ino_path ino with
            | None -> []
            | Some path ->
                let old =
                  match latest_content t path with
                  | Some c -> c
                  | None -> Bytes.empty
                in
                [ Efile (path, Some (splice old ~off b)) ]
          in
          step t evs (fun () -> inner.Fsops.write ino ~off b));
      truncate =
        (fun ino ~len ->
          let evs =
            match Hashtbl.find_opt t.ino_path ino with
            | None -> []
            | Some path ->
                let old =
                  match latest_content t path with
                  | Some c -> c
                  | None -> Bytes.empty
                in
                [ Efile (path, Some (resize old len)) ]
          in
          step t evs (fun () -> inner.Fsops.truncate ino ~len));
      read =
        (fun ino ~off ~len -> step t [] (fun () -> inner.Fsops.read ino ~off ~len));
      file_size = (fun ino -> step t [] (fun () -> inner.Fsops.file_size ino));
      (* The durability frontier advances only when the barrier
         completes: a crash inside [sync] (its IO tags not yet all
         committed) leaves every op since the previous sync in the
         in-flight window, even if it was already acknowledged into a
         group-commit batch. *)
      sync =
        (fun () ->
          step t [] (fun () -> inner.Fsops.sync ());
          t.durable <- t.op);
      drop_caches = (fun () -> step t [] (fun () -> inner.Fsops.drop_caches ()));
    }
end
