module Codec = Lfs_util.Bytes_codec

type record =
  | Add of {
      dir : Types.ino;
      name : string;
      ino : Types.ino;
      nlink : int;
      fresh : bool;
    }
  | Remove of { dir : Types.ino; name : string; ino : Types.ino; nlink : int }
  | Rename of {
      odir : Types.ino;
      oname : string;
      ndir : Types.ino;
      nname : string;
      ino : Types.ino;
    }

let record_size = function
  | Add { name; _ } -> 1 + 4 + 2 + String.length name + 4 + 4 + 1
  | Remove { name; _ } -> 1 + 4 + 2 + String.length name + 4 + 4
  | Rename { oname; nname; _ } ->
      1 + 4 + 2 + String.length oname + 4 + 2 + String.length nname + 4

let encode_record c = function
  | Add { dir; name; ino; nlink; fresh } ->
      Codec.put_u8 c 1;
      Codec.put_u32 c dir;
      Codec.put_string c name;
      Codec.put_u32 c ino;
      Codec.put_u32 c nlink;
      Codec.put_u8 c (if fresh then 1 else 0)
  | Remove { dir; name; ino; nlink } ->
      Codec.put_u8 c 2;
      Codec.put_u32 c dir;
      Codec.put_string c name;
      Codec.put_u32 c ino;
      Codec.put_u32 c nlink
  | Rename { odir; oname; ndir; nname; ino } ->
      Codec.put_u8 c 3;
      Codec.put_u32 c odir;
      Codec.put_string c oname;
      Codec.put_u32 c ndir;
      Codec.put_string c nname;
      Codec.put_u32 c ino

let decode_record c =
  match Codec.get_u8 c with
  | 1 ->
      let dir = Codec.get_u32 c in
      let name = Codec.get_string c in
      let ino = Codec.get_u32 c in
      let nlink = Codec.get_u32 c in
      let fresh = Codec.get_u8 c = 1 in
      Add { dir; name; ino; nlink; fresh }
  | 2 ->
      let dir = Codec.get_u32 c in
      let name = Codec.get_string c in
      let ino = Codec.get_u32 c in
      let nlink = Codec.get_u32 c in
      Remove { dir; name; ino; nlink }
  | 3 ->
      let odir = Codec.get_u32 c in
      let oname = Codec.get_string c in
      let ndir = Codec.get_u32 c in
      let nname = Codec.get_string c in
      let ino = Codec.get_u32 c in
      Rename { odir; oname; ndir; nname; ino }
  | n -> Types.corrupt "dir-log: unknown record tag %d" n

let group_blocks ~block_size records =
  let groups = ref [] in
  let current = ref [] in
  let used = ref 4 (* count field *) in
  let seal () =
    if !current <> [] then begin
      groups := List.rev !current :: !groups;
      current := [];
      used := 4
    end
  in
  List.iter
    (fun r ->
      let sz = record_size r in
      if !used + sz > block_size then seal ();
      current := r :: !current;
      used := !used + sz)
    records;
  seal ();
  List.rev !groups

let encode_block_into ~block_size group b ~pos =
  Bytes.fill b pos block_size '\000';
  let c = Codec.at b pos in
  Codec.put_u32 c (List.length group);
  List.iter (encode_record c) group

let records_size records =
  List.fold_left (fun acc r -> acc + record_size r) 0 records

let encode_records_into b ~pos records =
  let c = Codec.at b pos in
  List.iter (encode_record c) records

let decode_records b ~pos ~len =
  let c = Codec.at b pos in
  let stop = pos + len in
  let rec go acc =
    if Codec.pos c = stop then List.rev acc
    else if Codec.pos c > stop then
      Types.corrupt "dir-log: records overrun their %d bytes" len
    else go (decode_record c :: acc)
  in
  go []

(* A block read back from the log may hold anything, so a read past the
   buffer (a count, tag or name length gone wrong) is a [Types.Corrupt]
   here, as in [Summary.decode]. *)
let decode_block ?(pos = 0) b =
  let c = Codec.at b pos in
  match
    let n = Codec.get_u32 c in
    if n > Bytes.length b - pos then
      Types.corrupt "dir-log: impossible record count %d" n;
    List.init n (fun _ -> decode_record c)
  with
  | records -> records
  | exception (Codec.Overflow m | Invalid_argument m) ->
      Types.corrupt "dir-log: malformed block: %s" m

let pp_record ppf = function
  | Add { dir; name; ino; nlink; fresh } ->
      Format.fprintf ppf "add %d/%s -> ino %d (nlink %d%s)" dir name ino nlink
        (if fresh then ", fresh" else "")
  | Remove { dir; name; ino; nlink } ->
      Format.fprintf ppf "remove %d/%s (ino %d, nlink %d)" dir name ino nlink
  | Rename { odir; oname; ndir; nname; ino } ->
      Format.fprintf ppf "rename %d/%s -> %d/%s (ino %d)" odir oname ndir nname ino
