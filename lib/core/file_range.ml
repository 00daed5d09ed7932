let check ~off ~len =
  if off < 0 || len < 0 then Types.fs_error "negative file range"

(* Call [f blockno ~pos ~at ~n] for each block overlapping
   [off, off + len): the [n] bytes at [at] within the block are bytes
   [pos, pos + n) of the range. *)
let iter ~block_size ~off ~len f =
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let at = abs mod block_size in
    let n = min (block_size - at) (len - !pos) in
    f (abs / block_size) ~pos:!pos ~at ~n;
    pos := !pos + n
  done

type block = Buffered of bytes | Hole | Mapped of Types.baddr

let locate dirty fmap ino blockno =
  match Hashtbl.find_opt dirty (ino, blockno) with
  | Some b -> Buffered b
  | None ->
      let addr = Filemap.get fmap blockno in
      if addr = Types.nil_addr then Hole else Mapped addr

let read ~block_size ~size ~locate ~read_run ~off ~len =
  check ~off ~len;
  let out = Bytes.create (max 0 (min len (size - off))) in
  (* The pending run: [run_n] blocks from disk address [run_addr], whose
     [run_len] bytes from byte [run_skip] of the first land at byte
     [run_pos] of [out].  Only the range's first block can start past
     byte 0 and only its last can end short, so a run is one slice of
     [out]. *)
  let run_addr = ref Types.nil_addr and run_n = ref 0 in
  let run_skip = ref 0 and run_pos = ref 0 and run_len = ref 0 in
  let flush () =
    if !run_n > 0 then begin
      read_run !run_addr !run_n ~skip:!run_skip out ~pos:!run_pos ~len:!run_len;
      run_n := 0
    end
  in
  iter ~block_size ~off ~len:(Bytes.length out) (fun blockno ~pos ~at ~n ->
      match locate blockno with
      | Mapped addr ->
          if !run_n = 0 || addr <> !run_addr + !run_n then begin
            flush ();
            run_addr := addr;
            run_skip := at;
            run_pos := pos;
            run_len := 0
          end;
          incr run_n;
          run_len := !run_len + n
      | Buffered b ->
          flush ();
          Bytes.blit b at out pos n
      | Hole ->
          flush ();
          Bytes.fill out pos n '\000');
  flush ();
  out

let write ~block_size ~read_block ~blank_block ~off data put =
  check ~off ~len:(Bytes.length data);
  iter ~block_size ~off ~len:(Bytes.length data) (fun blockno ~pos ~at ~n ->
      let b =
        if n = block_size then blank_block blockno
        else read_block blockno
      in
      Bytes.blit data pos b at n;
      put blockno b ~hi:(off + pos + n))

let blocks ~block_size size = (size + block_size - 1) / block_size

let drop_dirty dirty ino ~first ~size ~block_size ~release =
  for blockno = first to blocks ~block_size size - 1 do
    match Hashtbl.find_opt dirty (ino, blockno) with
    | Some b ->
        Hashtbl.remove dirty (ino, blockno);
        release b
    | None -> ()
  done

let update_dir ~dirty ~ino (inode : Inode.t) fmap dir changed ~blank_block ~put
    ~release ~free =
  List.iter
    (fun blockno ->
      let b = blank_block blockno in
      Directory.block_into dir blockno b;
      put blockno b)
    changed;
  let block_size = Directory.block_size dir and len = Directory.length dir in
  if len < inode.Inode.size then begin
    let first = blocks ~block_size len in
    drop_dirty dirty ino ~first ~size:inode.Inode.size ~block_size ~release;
    Filemap.truncate fmap ~blocks:first ~free
  end;
  inode.Inode.size <- len
