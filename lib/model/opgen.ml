(* Deterministic random operation sequences for the refinement checker.

   The generator tracks the model state as it goes so most emitted ops
   are valid (a sequence of rejected ops would never move the log), but
   it deliberately keeps a small invalid-op rate: the checker asserts
   that model and backend agree on *rejections* too.

   Name pools are disjoint by kind — d* names only ever directories,
   f* names only ever files — so a path's type never flip-flops across
   a sequence and the oracle's per-path chains stay single-kinded. *)

module Prng = Lfs_util.Prng

let dir_names = [| "d0"; "d1"; "d2"; "d3" |]
let file_names = [| "f0"; "f1"; "f2"; "f3"; "f4"; "f5" |]

let sequence ~seed ~seq ~nops =
  let prng = Prng.create ~seed:(seed lxor ((seq + 1) * 0x9E3779B9)) in
  let st = ref Fs_model.empty in
  let dirs () = Fs_model.dirs !st in
  let files () = Fs_model.files !st in
  let pick arr = arr.(Prng.int prng (Array.length arr)) in
  let pick_list l = List.nth l (Prng.int prng (List.length l)) in
  let fresh_bytes len =
    Bytes.init len (fun _ -> Char.chr (Char.code 'a' + Prng.int prng 26))
  in
  (* A mostly-valid candidate path for a new child: an existing
     directory plus a pooled name. *)
  let child_path names = pick_list (dirs ()) ^ "/" ^ pick names in
  let gen_op () =
    match Prng.int prng 100 with
    | n when n < 14 -> Fs_model.Create (child_path file_names)
    | n when n < 30 -> (
        (* overwrite from offset 0 *)
        match files () with
        | [] -> Fs_model.Create (child_path file_names)
        | fs ->
            let p, _ = pick_list fs in
            Fs_model.Write
              { path = p; off = 0; data = fresh_bytes (1 + Prng.int prng 12_000) })
    | n when n < 42 -> (
        (* append, or a write starting inside the file *)
        match files () with
        | [] -> Fs_model.Create (child_path file_names)
        | fs ->
            let p, c = pick_list fs in
            let off =
              if Prng.bool prng then Bytes.length c
              else Prng.int prng (Bytes.length c + 1)
            in
            Fs_model.Write
              { path = p; off; data = fresh_bytes (1 + Prng.int prng 4_000) })
    | n when n < 50 -> (
        match files () with
        | [] -> Fs_model.Create (child_path file_names)
        | fs ->
            let p, c = pick_list fs in
            let len =
              if Prng.bool prng then Prng.int prng (Bytes.length c + 1)
              else Bytes.length c + Prng.int prng 4_000
            in
            Fs_model.Truncate { path = p; len })
    | n when n < 58 -> Fs_model.Mkdir (child_path dir_names)
    | n when n < 66 -> (
        match files () with
        | [] -> Fs_model.Create (child_path file_names)
        | fs ->
            let src, _ = pick_list fs in
            Fs_model.Rename { src; dst = child_path file_names })
    | n when n < 76 -> (
        match files () with
        | [] -> Fs_model.Create (child_path file_names)
        | fs -> Fs_model.Remove (fst (pick_list fs)))
    | n when n < 82 -> (
        match List.filter (fun d -> d <> "") (dirs ()) with
        | [] -> Fs_model.Mkdir (child_path dir_names)
        | ds -> Fs_model.Rmdir (pick_list ds))
    | n when n < 87 ->
        (* deliberately dubious: a path under a pooled dir name that may
           not exist — model and backend must agree on the rejection *)
        Fs_model.Create ("/" ^ pick dir_names ^ "/" ^ pick file_names)
    | n when n < 92 -> Fs_model.Idle
    | _ -> Fs_model.Sync
  in
  let ops = ref [] in
  for _ = 1 to nops do
    let op = gen_op () in
    (match Fs_model.step !st op with
    | Ok (st', _) -> st := st'
    | Error _ -> ());
    ops := op :: !ops
  done;
  List.rev !ops
