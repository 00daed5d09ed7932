module Codec = Lfs_util.Bytes_codec

type t = {
  layout : Layout.t;
  mutable map : int array;        (* file block -> disk address *)
  mutable capacity_used : int;    (* indices >= this are all nil *)
  mutable single_addr : Types.baddr;
  mutable l2_addr : Types.baddr;
  mutable l1_addrs : int array;   (* chunk -> on-disk L1 block address *)
  mutable single_dirty : bool;
  mutable l2_dirty : bool;
  mutable l1_dirty : bool array;
}

let sblockno_single = -2
let sblockno_l2 = -3
let sblockno_l1 c = -(4 + c)

let classify_sblockno n =
  if n >= 0 then `Data n
  else if n = sblockno_single then `Single
  else if n = sblockno_l2 then `L2
  else `L1 (-n - 4)

let k t = t.layout.Layout.addrs_per_block

(* File-block index ranges: [0, 10) direct, [10, 10+K) single-indirect,
   [10+K, 10+K+K*K) double-indirect (chunk c covers K blocks each). *)
let chunk_of_index t i =
  let k = k t in
  if i < Inode.ndirect then `Direct
  else if i < Inode.ndirect + k then `Single
  else `L1 ((i - Inode.ndirect - k) / k)

let addr_at b j = Int64.to_int (Bytes.get_int64_le b (j * 8))

(* Render [addrs.(lo .. lo + K - 1)] as the pointer block at byte [pos]
   of [buf]; slots past the end of [addrs] read back as nil, not 0. *)
let encode_addrs_into layout addrs ~lo buf ~pos =
  let bs = layout.Layout.block_size and kk = layout.Layout.addrs_per_block in
  let n = Array.length addrs in
  for j = 0 to kk - 1 do
    let v = if lo + j < n then addrs.(lo + j) else Types.nil_addr in
    Bytes.set_int64_le buf (pos + (j * 8)) (Int64.of_int v)
  done;
  Bytes.fill buf (pos + (kk * 8)) (bs - (kk * 8)) '\000'

let create_empty layout _inode =
  {
    layout;
    map = [||];
    capacity_used = 0;
    single_addr = Types.nil_addr;
    l2_addr = Types.nil_addr;
    l1_addrs = [||];
    single_dirty = false;
    l2_dirty = false;
    l1_dirty = [||];
  }

let ensure_map t n =
  let cap = Array.length t.map in
  if n > cap then begin
    let maxb = Layout.max_file_blocks t.layout in
    if n > maxb then Types.fs_error "file too large: %d blocks (max %d)" n maxb;
    let cap' = min maxb (max n (max 16 (2 * cap))) in
    let m = Array.make cap' Types.nil_addr in
    Array.blit t.map 0 m 0 cap;
    t.map <- m
  end

let ensure_chunks t c =
  let cap = Array.length t.l1_addrs in
  if c >= cap then begin
    let cap' = max (c + 1) (max 4 (2 * cap)) in
    let a = Array.make cap' Types.nil_addr in
    Array.blit t.l1_addrs 0 a 0 cap;
    t.l1_addrs <- a;
    let d = Array.make cap' false in
    Array.blit t.l1_dirty 0 d 0 cap;
    t.l1_dirty <- d
  end

(* Enter the pointers of indirect block [b] as file blocks [base, base +
   K). *)
let load_pointers t b ~base =
  let kk = k t in
  ensure_map t (base + kk);
  for j = 0 to kk - 1 do
    let a = addr_at b j in
    if a <> Types.nil_addr then begin
      t.map.(base + j) <- a;
      t.capacity_used <- max t.capacity_used (base + j + 1)
    end
  done

let load ~with_block layout (inode : Inode.t) =
  let t = create_empty layout inode in
  let kk = layout.Layout.addrs_per_block in
  ensure_map t (Inode.nblocks ~block_size:layout.Layout.block_size inode);
  for i = 0 to Inode.ndirect - 1 do
    if inode.Inode.direct.(i) <> Types.nil_addr then begin
      ensure_map t (i + 1);
      t.map.(i) <- inode.Inode.direct.(i);
      t.capacity_used <- max t.capacity_used (i + 1)
    end
  done;
  t.single_addr <- inode.Inode.indirect;
  if t.single_addr <> Types.nil_addr then
    with_block t.single_addr (fun b -> load_pointers t b ~base:Inode.ndirect);
  t.l2_addr <- inode.Inode.dindirect;
  if t.l2_addr <> Types.nil_addr then begin
    (* The L1 addresses leave the L2 block before any L1 block is read:
       one borrowed block at a time. *)
    let l1s = ref [] in
    with_block t.l2_addr (fun b ->
        for c = kk - 1 downto 0 do
          let l1 = addr_at b c in
          if l1 <> Types.nil_addr then l1s := (c, l1) :: !l1s
        done);
    List.iter
      (fun (c, l1) ->
        ensure_chunks t c;
        t.l1_addrs.(c) <- l1;
        with_block l1 (fun b ->
            load_pointers t b ~base:(Inode.ndirect + kk + (c * kk))))
      !l1s
  end;
  t

let get t i =
  if i < 0 then invalid_arg "Filemap.get: negative index";
  if i >= Array.length t.map then Types.nil_addr else t.map.(i)

let set t i addr =
  if i < 0 then invalid_arg "Filemap.set: negative index";
  ensure_map t (i + 1);
  t.map.(i) <- addr;
  t.capacity_used <- max t.capacity_used (i + 1);
  match chunk_of_index t i with
  | `Direct -> ()  (* direct pointers live in the inode, rewritten anyway *)
  | `Single -> t.single_dirty <- true
  | `L1 c ->
      ensure_chunks t c;
      t.l1_dirty.(c) <- true

let mapped_blocks t = t.capacity_used

let iter_mapped t f =
  for i = 0 to t.capacity_used - 1 do
    if t.map.(i) <> Types.nil_addr then f i t.map.(i)
  done

let indirect_blocks t =
  let acc = ref [] in
  if t.single_addr <> Types.nil_addr then
    acc := (sblockno_single, t.single_addr) :: !acc;
  if t.l2_addr <> Types.nil_addr then acc := (sblockno_l2, t.l2_addr) :: !acc;
  Array.iteri
    (fun c a -> if a <> Types.nil_addr then acc := (sblockno_l1 c, a) :: !acc)
    t.l1_addrs;
  List.rev !acc

let indirect_addr t ~sblockno =
  match classify_sblockno sblockno with
  | `Data _ -> invalid_arg "Filemap.indirect_addr: data block position"
  | `Single -> t.single_addr
  | `L2 -> t.l2_addr
  | `L1 c -> if c < Array.length t.l1_addrs then t.l1_addrs.(c) else Types.nil_addr

let mark_indirect_dirty t ~sblockno =
  match classify_sblockno sblockno with
  | `Data _ -> invalid_arg "Filemap.mark_indirect_dirty: data block position"
  | `Single -> if t.single_addr <> Types.nil_addr then t.single_dirty <- true
  | `L2 -> if t.l2_addr <> Types.nil_addr then t.l2_dirty <- true
  | `L1 c ->
      if c < Array.length t.l1_addrs && t.l1_addrs.(c) <> Types.nil_addr then
        t.l1_dirty.(c) <- true

let truncate t ~blocks ~free =
  for i = blocks to t.capacity_used - 1 do
    if t.map.(i) <> Types.nil_addr then begin
      free t.map.(i);
      (match chunk_of_index t i with
      | `Direct -> ()
      | `Single -> t.single_dirty <- true
      | `L1 c ->
          ensure_chunks t c;
          t.l1_dirty.(c) <- true);
      t.map.(i) <- Types.nil_addr
    end
  done;
  t.capacity_used <- min t.capacity_used blocks

let dirty t =
  t.single_dirty || t.l2_dirty || Array.exists (fun d -> d) t.l1_dirty

let range_all_nil t lo hi =
  let result = ref true in
  for i = lo to min hi (Array.length t.map) - 1 do
    if t.map.(i) <> Types.nil_addr then result := false
  done;
  !result

let flush t (inode : Inode.t) ~alloc ~free =
  let kk = k t in
  (* Direct pointers: always refresh (the inode is being rewritten). *)
  for i = 0 to Inode.ndirect - 1 do
    inode.Inode.direct.(i) <- get t i
  done;
  if t.single_dirty then begin
    let lo = Inode.ndirect and hi = Inode.ndirect + kk in
    let old = t.single_addr in
    let fresh =
      if range_all_nil t lo hi then Types.nil_addr
      else
        alloc ~kind:Types.Indirect ~blockno:sblockno_single (fun buf ~pos ->
            encode_addrs_into t.layout t.map ~lo buf ~pos)
    in
    if old <> Types.nil_addr then free old;
    t.single_addr <- fresh;
    t.single_dirty <- false
  end;
  inode.Inode.indirect <- t.single_addr;
  (* L1 chunks under the double-indirect block. *)
  Array.iteri
    (fun c is_dirty ->
      if is_dirty then begin
        let lo = Inode.ndirect + kk + (c * kk) in
        let hi = lo + kk in
        let old = t.l1_addrs.(c) in
        let fresh =
          if range_all_nil t lo hi then Types.nil_addr
          else
            alloc ~kind:Types.Indirect ~blockno:(sblockno_l1 c)
              (fun buf ~pos -> encode_addrs_into t.layout t.map ~lo buf ~pos)
        in
        if old <> Types.nil_addr then free old;
        if old <> fresh then t.l2_dirty <- true;
        t.l1_addrs.(c) <- fresh;
        t.l1_dirty.(c) <- false
      end)
    t.l1_dirty;
  if t.l2_dirty then begin
    let old = t.l2_addr in
    let any_l1 = Array.exists (fun a -> a <> Types.nil_addr) t.l1_addrs in
    let fresh =
      if not any_l1 then Types.nil_addr
      else
        alloc ~kind:Types.Dindirect ~blockno:sblockno_l2 (fun buf ~pos ->
            encode_addrs_into t.layout t.l1_addrs ~lo:0 buf ~pos)
    in
    if old <> Types.nil_addr then free old;
    t.l2_addr <- fresh;
    t.l2_dirty <- false
  end;
  inode.Inode.dindirect <- t.l2_addr
