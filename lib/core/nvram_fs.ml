type t = { fs : Fs.t; nvram : Nvram.t }

type replay_report = { replayed : int; remapped_inodes : int }

let wrap fs nvram =
  Fs.on_checkpoint fs (fun () -> Nvram.clear nvram);
  { fs; nvram }

let fs t = t.fs

let checkpoint t =
  Fs.checkpoint t.fs;
  Nvram.clear t.nvram

let journal t r =
  if Nvram.is_full t.nvram then checkpoint t;
  Nvram.append t.nvram r

let create t ~dir name =
  let ino = Fs.create t.fs ~dir name in
  journal t (Nvram.Create { dir; name; ino });
  ino

let mkdir t ~dir name =
  let ino = Fs.mkdir t.fs ~dir name in
  journal t (Nvram.Mkdir { dir; name; ino });
  ino

let link t ~dir name ino =
  Fs.link t.fs ~dir name ino;
  journal t (Nvram.Link { dir; name; ino })

let entry t ~dir name =
  match Fs.lookup t.fs ~dir name with
  | Some ino -> ino
  | None -> Types.fs_error "nvram_fs: no such entry %S" name

let unlink t ~dir name =
  let ino = entry t ~dir name in
  Fs.unlink t.fs ~dir name;
  journal t (Nvram.Unlink { dir; name; ino })

let rmdir t ~dir name =
  let ino = entry t ~dir name in
  Fs.rmdir t.fs ~dir name;
  journal t (Nvram.Rmdir { dir; name; ino })

let rename t ~odir oname ~ndir nname =
  let ino = entry t ~dir:odir oname in
  Fs.rename t.fs ~odir oname ~ndir nname;
  journal t (Nvram.Rename { odir; oname; ndir; nname; ino })

let write t ino ~off data =
  Fs.write t.fs ino ~off data;
  journal t (Nvram.Write { ino; off; data = Bytes.copy data })

let truncate t ino ~len =
  Fs.truncate t.fs ino ~len;
  journal t (Nvram.Truncate { ino; len })

let read t ino ~off ~len = Fs.read t.fs ino ~off ~len

(* The path helpers over the journalled primitives, so a path's create
   is journalled too. *)
include Fs_intf.Paths (struct
  type nonrec t = t

  let root = Fs.root
  let lookup t ~dir name = Fs.lookup t.fs ~dir name
  let create = create and mkdir = mkdir and write = write and read = read
  let file_size t ino = Fs.file_size t.fs ino

  (* [write_path] empties the file it finds or creates: a file it just
     created is empty already, and its truncate is neither run nor
     journalled. *)
  let truncate t ino ~len = if len <> file_size t ino then truncate t ino ~len
end)

(* Replay applies each record, in order, to the state it originally
   executed against: the journal is cleared at every checkpoint, so
   mounting the checkpoint (discarding the un-checkpointed log tail)
   leaves exactly the journal's starting state.  At most one record can
   overlap durable state (an operation whose own epilogue checkpointed
   before it was journalled); every case of that overlap is idempotent
   under the guards below. *)
let recover disk nvram =
  let fs = Fs.mount disk in
  let remap : (Types.ino, Types.ino) Hashtbl.t = Hashtbl.create 16 in
  let remapped = ref 0 in
  let resolve_ino ino = Option.value ~default:ino (Hashtbl.find_opt remap ino) in
  let note_remap journalled actual =
    if journalled <> actual then incr remapped;
    (* Always record, even the identity: a journalled number can pass
       through several incarnations, and a stale mapping from an earlier
       one must not shadow the current file. *)
    Hashtbl.replace remap journalled actual
  in
  let ensure_entry ~dir ~name ~journalled_ino ~make =
    let dir = resolve_ino dir in
    match Fs.lookup fs ~dir name with
    | Some existing -> note_remap journalled_ino existing
    | None ->
        let fresh = make ~dir name in
        note_remap journalled_ino fresh
  in
  let replayed = ref 0 in
  let apply r =
    incr replayed;
    match r with
    | Nvram.Create { dir; name; ino } ->
        ensure_entry ~dir ~name ~journalled_ino:ino ~make:(fun ~dir n ->
            Fs.create fs ~dir n)
    | Nvram.Mkdir { dir; name; ino } ->
        ensure_entry ~dir ~name ~journalled_ino:ino ~make:(fun ~dir n ->
            Fs.mkdir fs ~dir n)
    | Nvram.Link { dir; name; ino } ->
        let dir = resolve_ino dir in
        let ino = resolve_ino ino in
        if Fs.lookup fs ~dir name = None then (
          try Fs.link fs ~dir name ino with Types.Fs_error _ -> ())
    | Nvram.Unlink { dir; name; ino } ->
        (* Only the journalled incarnation: a file re-created under this
           name later in the journal must not be unlinked here. *)
        let dir = resolve_ino dir in
        if Fs.lookup fs ~dir name = Some (resolve_ino ino) then
          Fs.unlink fs ~dir name
    | Nvram.Rmdir { dir; name; ino } ->
        let dir = resolve_ino dir in
        if Fs.lookup fs ~dir name = Some (resolve_ino ino) then
          Fs.rmdir fs ~dir name
    | Nvram.Rename { odir; oname; ndir; nname; ino } ->
        let odir = resolve_ino odir and ndir = resolve_ino ndir in
        if Fs.lookup fs ~dir:odir oname = Some (resolve_ino ino) then
          Fs.rename fs ~odir oname ~ndir nname
    | Nvram.Write { ino; off; data } -> (
        (* The file may be unlinked later in the journal and already gone
           from the recovered state; the skipped bytes are dead anyway. *)
        try Fs.write fs (resolve_ino ino) ~off data
        with Types.Fs_error _ -> ())
    | Nvram.Truncate { ino; len } -> (
        try Fs.truncate fs (resolve_ino ino) ~len with Types.Fs_error _ -> ())
  in
  List.iter apply (Nvram.records nvram);
  let t = wrap fs nvram in
  checkpoint t;
  (t, { replayed = !replayed; remapped_inodes = !remapped })
