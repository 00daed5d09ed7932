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

let read ~block_size ~size ~read_block ~off ~len =
  check ~off ~len;
  let out = Bytes.create (max 0 (min len (size - off))) in
  iter ~block_size ~off ~len:(Bytes.length out) (fun blockno ~pos ~at ~n ->
      Bytes.blit (read_block blockno) at out pos n);
  out

let write ~block_size ~read_block ~off data put =
  check ~off ~len:(Bytes.length data);
  iter ~block_size ~off ~len:(Bytes.length data) (fun blockno ~pos ~at ~n ->
      let b =
        if n = block_size then Bytes.sub data pos block_size
        else begin
          let b = read_block blockno in
          Bytes.blit data pos b at n;
          b
        end
      in
      put blockno b ~hi:(off + pos + n))

let changed_blocks ~block_size ~old fresh put =
  let len = Bytes.length fresh in
  for blockno = 0 to ((len + block_size - 1) / block_size) - 1 do
    let lo = blockno * block_size in
    let n = min len (lo + block_size) - lo in
    if
      lo + n > Bytes.length old
      || not (Bytes.equal (Bytes.sub fresh lo n) (Bytes.sub old lo n))
    then begin
      let b = Bytes.make block_size '\000' in
      Bytes.blit fresh lo b 0 n;
      put blockno b
    end
  done

let drop_dirty dirty ino ~first =
  let doomed =
    Hashtbl.fold
      (fun (i, blockno) _ acc ->
        if i = ino && blockno >= first then blockno :: acc else acc)
      dirty []
  in
  List.iter (fun blockno -> Hashtbl.remove dirty (ino, blockno)) doomed
