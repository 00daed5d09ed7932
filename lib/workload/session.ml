module Prng = Lfs_util.Prng

type op_class = Create | Write | Read | Delete

type op = { cls : op_class; name : string; path : string; size : int }

type t = {
  client : int;
  dir : string;
  prng : Prng.t;
  files : int;
  write_size : int;
}

let create ~client ~seed ?(files = 32) ?(write_size = 8192) () =
  if files <= 0 then invalid_arg "Session.create: files must be positive";
  if write_size <= 0 then invalid_arg "Session.create: write_size must be positive";
  let dir = Printf.sprintf "/c%d" client in
  (* Mix the client id into the seed so equal-seeded clients still run
     distinct streams. *)
  let prng = Prng.create ~seed:(seed lxor (client * 0x9E3779B9)) in
  { client; dir; prng; files; write_size }

let client t = t.client
let dir t = t.dir

(* The office mix: writes dominate (small files are written whole), a
   steady trickle of creates keeps the working set populated, deletes
   are rare — Section 5.1's many-clients-small-files traffic. *)
let pick_class prng =
  let r = Prng.int prng 100 in
  if r < 20 then Create
  else if r < 55 then Write
  else if r < 90 then Read
  else Delete

let next t =
  let cls = pick_class t.prng in
  let slot = Prng.int t.prng t.files in
  let name = Printf.sprintf "f%d" slot in
  let size =
    match cls with
    | Create | Delete -> 0
    | Write | Read -> 1 + Prng.int t.prng t.write_size
  in
  { cls; name; path = t.dir ^ "/" ^ name; size }
