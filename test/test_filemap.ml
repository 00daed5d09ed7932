(* Tests for the file block map: direct/indirect translation, dirty
   tracking, flushing, truncation and the on-disk round trip. *)

module Types = Lfs_core.Types
module Layout = Lfs_core.Layout
module Inode = Lfs_core.Inode
module Filemap = Lfs_core.Filemap

(* A tiny layout so double-indirect ranges are reachable: 512-byte
   blocks hold 64 addresses. *)
let layout =
  Layout.compute
    {
      Helpers.test_config with
      Lfs_core.Config.block_size = 512;
      seg_blocks = 16;
      max_inodes = 64;
    }
    ~disk_blocks:2048

let k = layout.Layout.addrs_per_block

let mk_inode () = Inode.create ~ino:9 ~ftype:Types.Regular ~mtime:1.0

(* An in-memory "disk" for alloc/read callbacks. *)
let mk_store () =
  let store : (Types.baddr, bytes) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 5000 in
  let alloc ~kind:_ ~blockno:_ render =
    let payload = Bytes.create layout.Layout.block_size in
    render payload ~pos:0;
    incr next;
    Hashtbl.replace store !next payload;
    !next
  in
  let read addr = Hashtbl.find store addr in
  (store, alloc, read)

let flush_map fm inode alloc =
  Filemap.flush fm inode ~alloc ~free:(fun _ -> ())

let test_empty_map () =
  let fm = Filemap.create_empty layout (mk_inode ()) in
  Alcotest.(check int) "hole" Types.nil_addr (Filemap.get fm 0);
  Alcotest.(check int) "far hole" Types.nil_addr (Filemap.get fm 10_000);
  Alcotest.(check bool) "not dirty" false (Filemap.dirty fm)

let test_direct_range () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  Filemap.set fm 0 111;
  Filemap.set fm 9 999;
  Alcotest.(check int) "get 0" 111 (Filemap.get fm 0);
  Alcotest.(check int) "get 9" 999 (Filemap.get fm 9);
  (* Direct pointers live in the inode: no indirect dirt. *)
  Alcotest.(check bool) "no indirect dirt" false (Filemap.dirty fm);
  let _, alloc, _ = mk_store () in
  flush_map fm inode alloc;
  Alcotest.(check int) "inode direct updated" 111 inode.Inode.direct.(0);
  Alcotest.(check int) "inode direct 9" 999 inode.Inode.direct.(9);
  Alcotest.(check int) "no indirect" Types.nil_addr inode.Inode.indirect

let test_single_indirect () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  Filemap.set fm 10 1010;
  Filemap.set fm (10 + k - 1) 2020;
  Alcotest.(check bool) "dirty" true (Filemap.dirty fm);
  let _, alloc, read = mk_store () in
  flush_map fm inode alloc;
  Alcotest.(check bool) "indirect allocated" true (inode.Inode.indirect <> Types.nil_addr);
  Alcotest.(check bool) "clean after flush" false (Filemap.dirty fm);
  (* Reload from "disk" and verify translation survives. *)
  let fm' = Filemap.load ~with_block:(fun a f -> f (read a)) layout inode in
  Alcotest.(check int) "reloaded 10" 1010 (Filemap.get fm' 10);
  Alcotest.(check int) "reloaded last" 2020 (Filemap.get fm' (10 + k - 1))

let test_double_indirect () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  let first_dbl = 10 + k in
  Filemap.set fm first_dbl 3030;
  Filemap.set fm (first_dbl + k) 4040;        (* second L1 chunk *)
  Filemap.set fm (first_dbl + (3 * k) + 7) 5050;  (* fourth L1 chunk *)
  let _, alloc, read = mk_store () in
  flush_map fm inode alloc;
  Alcotest.(check bool) "dindirect allocated" true
    (inode.Inode.dindirect <> Types.nil_addr);
  let fm' = Filemap.load ~with_block:(fun a f -> f (read a)) layout inode in
  Alcotest.(check int) "chunk0" 3030 (Filemap.get fm' first_dbl);
  Alcotest.(check int) "chunk1" 4040 (Filemap.get fm' (first_dbl + k));
  Alcotest.(check int) "chunk3" 5050 (Filemap.get fm' (first_dbl + (3 * k) + 7));
  Alcotest.(check int) "hole between" Types.nil_addr
    (Filemap.get fm' (first_dbl + 1))

let test_indirect_blocks_listed () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  Filemap.set fm 10 1;
  Filemap.set fm (10 + k) 2;
  let _, alloc, _ = mk_store () in
  flush_map fm inode alloc;
  let blocks = Filemap.indirect_blocks fm in
  (* single + L2 + one L1 chunk *)
  Alcotest.(check int) "three indirect blocks" 3 (List.length blocks);
  List.iter
    (fun (sb, addr) ->
      Alcotest.(check int) "addr matches accessor" addr
        (Filemap.indirect_addr fm ~sblockno:sb))
    blocks

let test_truncate_frees () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  for i = 0 to 19 do
    Filemap.set fm i (6000 + i)
  done;
  let freed = ref [] in
  Filemap.truncate fm ~blocks:5 ~free:(fun a -> freed := a :: !freed);
  Alcotest.(check int) "freed 15 blocks" 15 (List.length !freed);
  Alcotest.(check int) "kept block" 6004 (Filemap.get fm 4);
  Alcotest.(check int) "dropped block" Types.nil_addr (Filemap.get fm 5);
  (* After flushing, the now-empty indirect block disappears. *)
  let _, alloc, _ = mk_store () in
  let freed_indirect = ref 0 in
  Filemap.flush fm inode ~alloc ~free:(fun _ -> incr freed_indirect);
  Alcotest.(check int) "no single indirect left" Types.nil_addr inode.Inode.indirect

let test_truncate_to_zero () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  Filemap.set fm 0 77;
  Filemap.set fm 12 88;
  Filemap.truncate fm ~blocks:0 ~free:(fun _ -> ());
  Alcotest.(check int) "mapped_blocks" 0 (Filemap.mapped_blocks fm);
  Filemap.iter_mapped fm (fun _ _ -> Alcotest.fail "nothing should remain")

let test_flush_replaces_old_indirect () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  Filemap.set fm 10 1;
  let _, alloc, _ = mk_store () in
  flush_map fm inode alloc;
  let first = inode.Inode.indirect in
  Filemap.set fm 11 2;
  let freed = ref [] in
  Filemap.flush fm inode ~alloc ~free:(fun a -> freed := a :: !freed);
  Alcotest.(check bool) "new copy" true (inode.Inode.indirect <> first);
  Alcotest.(check (list int)) "old copy freed" [ first ] !freed

let test_mark_indirect_dirty_forces_rewrite () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  Filemap.set fm 10 1;
  let _, alloc, _ = mk_store () in
  flush_map fm inode alloc;
  Alcotest.(check bool) "clean" false (Filemap.dirty fm);
  Filemap.mark_indirect_dirty fm ~sblockno:Filemap.sblockno_single;
  Alcotest.(check bool) "dirty again" true (Filemap.dirty fm)

let test_iter_mapped_complete () =
  let inode = mk_inode () in
  let fm = Filemap.create_empty layout inode in
  let expected = [ (0, 100); (9, 109); (10, 110); (10 + k + 2, 200) ] in
  List.iter (fun (i, a) -> Filemap.set fm i a) expected;
  let seen = ref [] in
  Filemap.iter_mapped fm (fun i a -> seen := (i, a) :: !seen);
  Alcotest.(check bool) "all mappings visited" true
    (List.sort compare !seen = List.sort compare expected)

let test_classify_sblockno () =
  Alcotest.(check bool) "data" true (Filemap.classify_sblockno 5 = `Data 5);
  Alcotest.(check bool) "single" true
    (Filemap.classify_sblockno Filemap.sblockno_single = `Single);
  Alcotest.(check bool) "l2" true (Filemap.classify_sblockno Filemap.sblockno_l2 = `L2);
  Alcotest.(check bool) "l1 7" true
    (Filemap.classify_sblockno (Filemap.sblockno_l1 7) = `L1 7)

let test_too_large_rejected () =
  let fm = Filemap.create_empty layout (mk_inode ()) in
  match Filemap.set fm (Layout.max_file_blocks layout + 1) 1 with
  | () -> Alcotest.fail "should reject"
  | exception Types.Fs_error _ -> ()

let prop_set_get =
  QCheck.Test.make ~count:100 ~name:"filemap set/get agree with a model"
    QCheck.(small_list (pair (int_bound 500) (int_range 1 100000)))
    (fun ops ->
      let fm = Filemap.create_empty layout (mk_inode ()) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, a) ->
          Filemap.set fm i a;
          Hashtbl.replace model i a)
        ops;
      Hashtbl.fold (fun i a ok -> ok && Filemap.get fm i = a) model true)

let prop_flush_load_roundtrip =
  QCheck.Test.make ~count:50 ~name:"filemap flush/load roundtrip"
    QCheck.(small_list (pair (int_bound 300) (int_range 1 100000)))
    (fun ops ->
      let inode = mk_inode () in
      let fm = Filemap.create_empty layout inode in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, a) ->
          Filemap.set fm i a;
          Hashtbl.replace model i a)
        ops;
      let _, alloc, read = mk_store () in
      flush_map fm inode alloc;
      let fm' = Filemap.load ~with_block:(fun a f -> f (read a)) layout inode in
      Hashtbl.fold (fun i a ok -> ok && Filemap.get fm' i = a) model true)

let suite =
  ( "filemap",
    [
      Alcotest.test_case "empty map" `Quick test_empty_map;
      Alcotest.test_case "direct range" `Quick test_direct_range;
      Alcotest.test_case "single indirect" `Quick test_single_indirect;
      Alcotest.test_case "double indirect" `Quick test_double_indirect;
      Alcotest.test_case "indirect blocks listed" `Quick test_indirect_blocks_listed;
      Alcotest.test_case "truncate frees" `Quick test_truncate_frees;
      Alcotest.test_case "truncate to zero" `Quick test_truncate_to_zero;
      Alcotest.test_case "flush replaces old" `Quick test_flush_replaces_old_indirect;
      Alcotest.test_case "mark indirect dirty" `Quick test_mark_indirect_dirty_forces_rewrite;
      Alcotest.test_case "iter mapped" `Quick test_iter_mapped_complete;
      Alcotest.test_case "classify sblockno" `Quick test_classify_sblockno;
      Alcotest.test_case "too large rejected" `Quick test_too_large_rejected;
      QCheck_alcotest.to_alcotest prop_set_get;
      QCheck_alcotest.to_alcotest prop_flush_load_roundtrip;
    ] )
