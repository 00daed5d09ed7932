module Vdev = Lfs_disk.Vdev
module Vdev_cache = Lfs_disk.Vdev_cache
module Codec = Lfs_util.Bytes_codec
module Types = Lfs_core.Types
module Inode = Lfs_core.Inode
module Directory = Lfs_core.Directory
module File_range = Lfs_core.File_range

type config = {
  block_size : int;
  cg_blocks : int;
  inodes_per_cg : int;
  write_buffer_blocks : int;
  cache_blocks : int;
  sync_double_inode_on_create : bool;
  cluster_writes : bool;
}

let default_config =
  {
    block_size = 4096;
    cg_blocks = 2048;          (* 8 MB cylinder groups *)
    inodes_per_cg = 2048;
    write_buffer_blocks = 256;
    cache_blocks = 4096;
    sync_double_inode_on_create = true;
    cluster_writes = false;
  }

type layout = {
  cfg : config;
  ncg : int;
  itable_blocks : int;   (* inode-table blocks per group *)
  data_start : int;      (* first data block within a group *)
  inodes_per_block : int;
}

type handle = {
  inode : Inode.t;
  fmap : Lfs_core.Filemap.t;
  mutable content : Directory.t option;  (* directories *)
}

type t = {
  disk : Vdev.t;  (* the raw device, for cold scans (mount, fsck) *)
  cache : Vdev_cache.t;
  dev : Vdev.t;  (* [disk] behind the block cache; normal IO uses this *)
  layout : layout;
  lfs_layout : Lfs_core.Layout.t;  (* only for Filemap geometry *)
  block_bitmaps : Bitmap.t array;  (* per group, cached *)
  bitmap_dirty : bool array;
  inode_free : Bitmap.t array;     (* per group, in memory only *)
  handles : (Types.ino, handle) Hashtbl.t;
  dirty_data : (Types.ino * int, bytes) Hashtbl.t;
  mutable clock : float;
  mutable next_dir_cg : int;
}

let root = Types.root_ino

let devices t = [ t.disk ]

let magic = 0x4646_5331 (* "FFS1" *)

let compute_layout cfg ~disk_blocks =
  if cfg.block_size < 512 || cfg.block_size land (cfg.block_size - 1) <> 0 then
    invalid_arg "Ffs: bad block size";
  let inodes_per_block = cfg.block_size / 128 in
  let itable_blocks = (cfg.inodes_per_cg + inodes_per_block - 1) / inodes_per_block in
  if cfg.cg_blocks < itable_blocks + 8 then invalid_arg "Ffs: groups too small";
  let ncg = (disk_blocks - 1) / cfg.cg_blocks in
  if ncg < 1 then invalid_arg "Ffs: disk too small for one cylinder group";
  { cfg; ncg; itable_blocks; data_start = 1 + itable_blocks; inodes_per_block }

(* Disk addresses. *)
let cg_first l cg = 1 + (cg * l.cfg.cg_blocks)
let bitmap_addr l cg = cg_first l cg
let itable_addr l cg = cg_first l cg + 1

let ino_cg l ino = (ino - 1) / l.cfg.inodes_per_cg
let ino_index l ino = (ino - 1) mod l.cfg.inodes_per_cg
let ino_of l cg index = 1 + (cg * l.cfg.inodes_per_cg) + index

let ino_block l ino =
  itable_addr l (ino_cg l ino) + (ino_index l ino / l.inodes_per_block)

let ino_slot l ino = ino_index l ino mod l.inodes_per_block

let cg_of_block l addr = (addr - 1) / l.cfg.cg_blocks
let block_index_in_cg l addr = (addr - 1) mod l.cfg.cg_blocks

(* A fake LFS layout so Lfs_core.Filemap (which only needs block_size,
   addrs_per_block and the max-file bound) can serve as FFS's block map
   machinery too. *)
let filemap_layout cfg =
  {
    Lfs_core.Layout.block_size = cfg.block_size;
    seg_blocks = cfg.cg_blocks;
    max_inodes = 1;
    nsegs = 1;
    seg_start = 1;
    ckpt_blocks = 0;
    ckpt_a = 0;
    ckpt_b = 0;
    imap_blocks = 0;
    usage_blocks = 0;
    inode_size = 128;
    inodes_per_block = cfg.block_size / 128;
    imap_entries_per_block = 1;
    usage_entries_per_block = 1;
    addrs_per_block = cfg.block_size / 8;
  }

let tick t =
  t.clock <- t.clock +. 1.0;
  t.clock

(* {1 Synchronous metadata IO}

   All reads and writes go through [t.dev], the {!Vdev_cache} layer:
   reads hit the cache, writes go through to the device and update it. *)

let write_inode t (inode : Inode.t) =
  let addr = ino_block t.layout inode.Inode.ino in
  let b = Vdev.read_block t.dev addr in
  Inode.encode inode b ~slot:(ino_slot t.layout inode.Inode.ino);
  Vdev.write_block t.dev addr b

let clear_inode t ino =
  let addr = ino_block t.layout ino in
  let b = Vdev.read_block t.dev addr in
  Inode.clear_slot b ~slot:(ino_slot t.layout ino);
  Vdev.write_block t.dev addr b

let read_inode t ino =
  let b = Vdev.read_block t.dev (ino_block t.layout ino) in
  match Inode.decode b ~slot:(ino_slot t.layout ino) with
  | None -> Types.fs_error "ffs: no such inode %d" ino
  | Some inode ->
      if inode.Inode.ino <> ino then
        Types.corrupt "ffs: inode %d slot holds %d" ino inode.Inode.ino;
      inode

(* {1 Allocation} *)

let mark_bitmap_dirty t cg = t.bitmap_dirty.(cg) <- true

let alloc_block t ~near =
  let l = t.layout in
  let start_cg, hint =
    if near >= 1 then (cg_of_block l near, block_index_in_cg l near + 1)
    else (0, l.data_start)
  in
  let rec try_cg attempt =
    if attempt >= l.ncg then Types.fs_error "ffs: disk full"
    else
      let cg = (start_cg + attempt) mod l.ncg in
      let hint = if attempt = 0 then hint else l.data_start in
      match Bitmap.find_free_from t.block_bitmaps.(cg) hint with
      | Some i when i >= l.data_start ->
          Bitmap.set t.block_bitmaps.(cg) i;
          mark_bitmap_dirty t cg;
          cg_first l cg + i
      | Some i ->
          (* Wrapped into the metadata area: skip past it. *)
          (match Bitmap.find_free_from t.block_bitmaps.(cg) l.data_start with
          | Some j when j >= l.data_start ->
              Bitmap.set t.block_bitmaps.(cg) j;
              mark_bitmap_dirty t cg;
              cg_first l cg + j
          | Some _ | None ->
              ignore i;
              try_cg (attempt + 1))
      | None -> try_cg (attempt + 1)
  in
  try_cg 0

let free_block t addr =
  let l = t.layout in
  let cg = cg_of_block l addr in
  Bitmap.clear t.block_bitmaps.(cg) (block_index_in_cg l addr);
  mark_bitmap_dirty t cg

let alloc_inode t ~cg =
  let l = t.layout in
  let rec try_cg attempt =
    if attempt >= l.ncg then Types.fs_error "ffs: out of inodes"
    else
      let cg = (cg + attempt) mod l.ncg in
      match Bitmap.find_free_from t.inode_free.(cg) 0 with
      | Some i ->
          Bitmap.set t.inode_free.(cg) i;
          ino_of l cg i
      | None -> try_cg (attempt + 1)
  in
  try_cg 0

(* {1 Handles} *)

let get_handle t ino =
  match Hashtbl.find_opt t.handles ino with
  | Some h -> h
  | None ->
      let inode = read_inode t ino in
      let fmap =
        Lfs_core.Filemap.load ~with_block:(Vdev_cache.with_block t.cache)
          t.lfs_layout inode
      in
      let h = { inode; fmap; content = None } in
      Hashtbl.replace t.handles ino h;
      h

(* Flush a handle's block map: indirect blocks are written synchronously
   (they are metadata), then the inode. *)
let flush_fmap_and_inode t h =
  Lfs_core.Filemap.flush h.fmap h.inode
    ~alloc:(fun ~kind:_ ~blockno:_ render ->
      let addr = alloc_block t ~near:(ino_block t.layout h.inode.Inode.ino) in
      let b = Bytes.create t.layout.cfg.block_size in
      render b ~pos:0;
      Vdev.write_block t.dev addr b;
      addr)
    ~free:(fun addr -> free_block t addr);
  write_inode t h.inode

(* {1 Data IO} *)

let read_file_block t h ino blockno =
  match File_range.locate t.dirty_data h.fmap ino blockno with
  | File_range.Buffered b -> Bytes.copy b
  | File_range.Hole -> Bytes.make t.layout.cfg.block_size '\000'
  | File_range.Mapped addr -> Vdev.read_block t.dev addr

let flush_data t =
  if Hashtbl.length t.dirty_data > 0 then begin
    let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.dirty_data [] in
    let items = List.sort compare items in
    let touched = Hashtbl.create 16 in
    List.iter
      (fun ((ino, blockno), b) ->
        let h = get_handle t ino in
        let addr =
          match Lfs_core.Filemap.get h.fmap blockno with
          | a when a <> Types.nil_addr -> a  (* update in place *)
          | _ ->
              let near =
                if blockno > 0 then Lfs_core.Filemap.get h.fmap (blockno - 1)
                else Types.nil_addr
              in
              let near =
                if near <> Types.nil_addr then near
                else ino_block t.layout ino
              in
              let a = alloc_block t ~near in
              Lfs_core.Filemap.set h.fmap blockno a;
              a
        in
        Vdev.write_block t.dev addr b;
        Hashtbl.replace touched ino ();
        Hashtbl.remove t.dirty_data (ino, blockno))
      items;
    Hashtbl.iter (fun ino () -> flush_fmap_and_inode t (get_handle t ino)) touched
  end

(* Clustered flush: allocate as before, then coalesce disk-contiguous
   runs into single transfers (McVoy & Kleiman's extent-like writes). *)
let flush_data_clustered t =
  if Hashtbl.length t.dirty_data > 0 then begin
    let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.dirty_data [] in
    let items = List.sort compare items in
    let touched = Hashtbl.create 16 in
    (* Pass 1: allocation, collecting (addr, bytes) pairs. *)
    let placed =
      List.map
        (fun ((ino, blockno), b) ->
          let h = get_handle t ino in
          let addr =
            match Lfs_core.Filemap.get h.fmap blockno with
            | a when a <> Types.nil_addr -> a
            | _ ->
                let near =
                  if blockno > 0 then Lfs_core.Filemap.get h.fmap (blockno - 1)
                  else Types.nil_addr
                in
                let near = if near <> Types.nil_addr then near else ino_block t.layout ino in
                let a = alloc_block t ~near in
                Lfs_core.Filemap.set h.fmap blockno a;
                a
          in
          Hashtbl.replace touched ino ();
          Hashtbl.remove t.dirty_data (ino, blockno);
          (addr, b))
        items
    in
    (* Pass 2: write contiguous runs as single transfers. *)
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) placed in
    let flush_run run =
      match List.rev run with
      | [] -> ()
      | (first_addr, _) :: _ as ordered ->
          let bs = t.layout.cfg.block_size in
          let buf = Bytes.create (List.length ordered * bs) in
          List.iteri (fun i (_, b) -> Bytes.blit b 0 buf (i * bs) bs) ordered;
          Vdev.write_blocks t.dev first_addr buf
    in
    let rec group run last = function
      | [] -> flush_run run
      | (addr, b) :: rest ->
          if addr = last + 1 then group ((addr, b) :: run) addr rest
          else begin
            flush_run run;
            group [ (addr, b) ] addr rest
          end
    in
    (match sorted with
    | [] -> ()
    | (addr, b) :: rest -> group [ (addr, b) ] addr rest);
    Hashtbl.iter (fun ino () -> flush_fmap_and_inode t (get_handle t ino)) touched
  end

let flush_bitmaps t =
  Array.iteri
    (fun cg dirty ->
      if dirty then begin
        Vdev.write_block t.dev
          (bitmap_addr t.layout cg)
          (Bitmap.to_bytes t.block_bitmaps.(cg)
             ~block_size:t.layout.cfg.block_size);
        t.bitmap_dirty.(cg) <- false
      end)
    t.bitmap_dirty

let sync t =
  if t.layout.cfg.cluster_writes then flush_data_clustered t else flush_data t;
  flush_bitmaps t

(* A buffer for a block whose every byte the caller overwrites. *)
let blank_block t _blockno = Bytes.create t.layout.cfg.block_size

let put_dirty_block t ino blockno b =
  Hashtbl.replace t.dirty_data (ino, blockno) b;
  if Hashtbl.length t.dirty_data >= t.layout.cfg.write_buffer_blocks then
    if t.layout.cfg.cluster_writes then flush_data_clustered t else flush_data t

let write t ino ~off data =
  if Bytes.length data > 0 then begin
    let h = get_handle t ino in
    File_range.write ~block_size:t.layout.cfg.block_size
      ~read_block:(read_file_block t h ino) ~blank_block:(blank_block t) ~off
      data
      (fun blockno b ~hi ->
        put_dirty_block t ino blockno b;
        h.inode.Inode.size <- max h.inode.Inode.size hi);
    h.inode.Inode.mtime <- tick t
  end

(* One transfer per block, even along a run of consecutive addresses:
   this FFS does no read clustering. *)
let read t ino ~off ~len =
  let h = get_handle t ino in
  let bs = t.layout.cfg.block_size in
  let rec read_run addr n ~skip out ~pos ~len =
    if n > 0 then begin
      let k = min (bs - skip) len in
      Vdev_cache.with_block t.cache addr (fun b -> Bytes.blit b skip out pos k);
      read_run (addr + 1) (n - 1) ~skip:0 out ~pos:(pos + k) ~len:(len - k)
    end
  in
  File_range.read ~block_size:bs ~size:h.inode.Inode.size
    ~locate:(File_range.locate t.dirty_data h.fmap ino) ~read_run ~off ~len

let truncate t ino ~len =
  let h = get_handle t ino in
  if len < 0 then Types.fs_error "ffs: negative truncate length";
  let bs = t.layout.cfg.block_size in
  let keep = (len + bs - 1) / bs in
  File_range.drop_dirty t.dirty_data ino ~first:keep ~size:h.inode.Inode.size
    ~block_size:bs ~release:ignore;
  Lfs_core.Filemap.truncate h.fmap ~blocks:keep ~free:(fun a -> free_block t a);
  if len < h.inode.Inode.size && len mod bs <> 0 then
    (* Zero the tail of the new last block so extends re-read zeros. *)
    File_range.write ~block_size:bs ~read_block:(read_file_block t h ino)
      ~blank_block:(blank_block t) ~off:len
      (Bytes.make (bs - (len mod bs)) '\000')
      (fun blockno b ~hi:_ -> put_dirty_block t ino blockno b);
  h.inode.Inode.size <- len;
  h.inode.Inode.mtime <- tick t;
  flush_fmap_and_inode t h

let file_size t ino = (get_handle t ino).inode.Inode.size

(* {1 Directories: data and inode written synchronously} *)

let dir_contents t ino =
  let h = get_handle t ino in
  (match h.inode.Inode.ftype with
  | Types.Directory -> ()
  | Types.Regular -> Types.fs_error "ffs: inode %d is not a directory" ino);
  match h.content with
  | Some d -> d
  | None ->
      let d =
        Directory.of_bytes ~block_size:t.layout.cfg.block_size
          (read t ino ~off:0 ~len:h.inode.Inode.size)
      in
      h.content <- Some d;
      d

(* Apply the {!Directory} mutator [f] to directory [ino] and write the
   blocks it changed synchronously, then the inode. *)
let update_dir t ino f =
  let d = dir_contents t ino in
  let h = get_handle t ino in
  File_range.update_dir ~dirty:t.dirty_data ~ino h.inode h.fmap d (f d)
    ~blank_block:(blank_block t) ~release:ignore
    ~put:(fun blockno b ->
      let addr =
        match Lfs_core.Filemap.get h.fmap blockno with
        | a when a <> Types.nil_addr -> a
        | _ ->
            let a = alloc_block t ~near:(ino_block t.layout ino) in
            Lfs_core.Filemap.set h.fmap blockno a;
            a
      in
      Vdev.write_block t.dev addr b)
    ~free:(free_block t);
  h.inode.Inode.mtime <- tick t;
  flush_fmap_and_inode t h

(* A new directory's size covers its empty image; no data block yet. *)
let init_dir t ino = update_dir t ino (fun _ -> [])

let lookup t ~dir name = Directory.find (dir_contents t dir) name
let readdir t ino = Directory.entries (dir_contents t ino)

let create_node t ~dir name ~ftype =
  Directory.check_name name;
  let d = dir_contents t dir in
  if Directory.mem d name then Types.fs_error "ffs: name %S exists" name;
  let cg =
    match ftype with
    | Types.Regular -> ino_cg t.layout dir
    | Types.Directory ->
        (* Spread directories across groups, as FFS does. *)
        t.next_dir_cg <- (t.next_dir_cg + 1) mod t.layout.ncg;
        t.next_dir_cg
  in
  let ino = alloc_inode t ~cg in
  let inode = Inode.create ~ino ~ftype ~mtime:(tick t) in
  let h =
    {
      inode;
      fmap = Lfs_core.Filemap.create_empty t.lfs_layout inode;
      content =
        (match ftype with
        | Types.Directory ->
            Some (Directory.create ~block_size:t.layout.cfg.block_size)
        | Types.Regular -> None);
    }
  in
  Hashtbl.replace t.handles ino h;
  (* Synchronous inode write(s): FFS writes new inodes twice. *)
  write_inode t inode;
  if t.layout.cfg.sync_double_inode_on_create then write_inode t inode;
  (* Synchronous directory data + directory inode writes. *)
  update_dir t dir (fun d -> Directory.add d name ino);
  (match ftype with Types.Directory -> init_dir t ino | Types.Regular -> ());
  ino

let create t ~dir name = create_node t ~dir name ~ftype:Types.Regular
let mkdir t ~dir name = create_node t ~dir name ~ftype:Types.Directory

let unlink_internal t ~dir name ~expect =
  let d = dir_contents t dir in
  match Directory.find d name with
  | None -> Types.fs_error "ffs: no such entry %S" name
  | Some ino ->
      let h = get_handle t ino in
      (match (expect, h.inode.Inode.ftype) with
      | `File, Types.Directory ->
          Types.fs_error "ffs: %S is a directory (use rmdir)" name
      | `Dir, Types.Regular -> Types.fs_error "ffs: %S is not a directory" name
      | `Dir, Types.Directory ->
          if not (Directory.is_empty (dir_contents t ino)) then
            Types.fs_error "ffs: directory %S not empty" name
      | `File, Types.Regular -> ());
      update_dir t dir (fun d -> Directory.remove d name);
      File_range.drop_dirty t.dirty_data ino ~first:0 ~size:h.inode.Inode.size
        ~block_size:t.layout.cfg.block_size ~release:ignore;
      Lfs_core.Filemap.iter_mapped h.fmap (fun _ a -> free_block t a);
      List.iter (fun (_, a) -> free_block t a)
        (Lfs_core.Filemap.indirect_blocks h.fmap);
      clear_inode t ino;
      Bitmap.clear t.inode_free.(ino_cg t.layout ino) (ino_index t.layout ino);
      Hashtbl.remove t.handles ino

let unlink t ~dir name = unlink_internal t ~dir name ~expect:`File
let rmdir t ~dir name = unlink_internal t ~dir name ~expect:`Dir

(* Dirent move; directory data writes are synchronous as everywhere in
   FFS, so the removal and insertion both hit the disk before return. *)
let rename t ~odir oname ~ndir nname =
  let od = dir_contents t odir in
  match Directory.find od oname with
  | None -> Types.fs_error "ffs: no such entry %S" oname
  | Some ino ->
      if odir = ndir && oname = nname then ()
      else if lookup t ~dir:ndir nname = Some ino then
        (* POSIX: source and target are links to the same file: no-op. *)
        ()
      else begin
        (match lookup t ~dir:ndir nname with
        | Some _ -> unlink_internal t ~dir:ndir nname ~expect:`File
        | None -> ());
        update_dir t odir (fun d -> Directory.remove d oname);
        update_dir t ndir (fun d -> Directory.add d nname ino)
      end

include Lfs_core.Fs_intf.Paths (struct
  type nonrec t = t

  let root = root and lookup = lookup and create = create and mkdir = mkdir
  let truncate = truncate and write = write and read = read
  let file_size = file_size
end)

(* {1 Lifecycle} *)

let store_super cfg disk =
  let b = Bytes.make cfg.block_size '\000' in
  let c = Codec.writer b in
  Codec.put_u32 c magic;
  Codec.put_int c cfg.block_size;
  Codec.put_int c cfg.cg_blocks;
  Codec.put_int c cfg.inodes_per_cg;
  Codec.put_int c cfg.write_buffer_blocks;
  Codec.put_int c cfg.cache_blocks;
  Codec.put_u8 c (if cfg.sync_double_inode_on_create then 1 else 0);
  Codec.put_u8 c (if cfg.cluster_writes then 1 else 0);
  Vdev.write_block disk 0 b

let load_super disk =
  let b = Vdev.read_block disk 0 in
  let c = Codec.reader b in
  if Codec.get_u32 c <> magic then Types.corrupt "ffs: bad superblock magic";
  let block_size = Codec.get_int c in
  let cg_blocks = Codec.get_int c in
  let inodes_per_cg = Codec.get_int c in
  let write_buffer_blocks = Codec.get_int c in
  let cache_blocks = Codec.get_int c in
  let sync_double_inode_on_create = Codec.get_u8 c = 1 in
  let cluster_writes = Codec.get_u8 c = 1 in
  { block_size; cg_blocks; inodes_per_cg; write_buffer_blocks; cache_blocks;
    sync_double_inode_on_create; cluster_writes }

let make disk cfg =
  let l = compute_layout cfg ~disk_blocks:(Vdev.nblocks disk) in
  let cache = Vdev_cache.create ~capacity:cfg.cache_blocks disk in
  {
    disk;
    cache;
    dev = Vdev_cache.vdev cache;
    layout = l;
    lfs_layout = filemap_layout cfg;
    block_bitmaps = Array.init l.ncg (fun _ -> Bitmap.create ~bits:cfg.cg_blocks);
    bitmap_dirty = Array.make l.ncg false;
    inode_free = Array.init l.ncg (fun _ -> Bitmap.create ~bits:cfg.inodes_per_cg);
    handles = Hashtbl.create 256;
    dirty_data = Hashtbl.create 256;
    clock = 1.0;
    next_dir_cg = 0;
  }

let format disk cfg =
  if Vdev.block_size disk <> cfg.block_size then
    invalid_arg "Ffs.format: block size mismatch";
  store_super cfg disk;
  let t = make disk cfg in
  (* Reserve each group's metadata blocks in its bitmap and zero the
     inode tables. *)
  Array.iteri
    (fun cg bm ->
      for i = 0 to t.layout.data_start - 1 do
        Bitmap.set bm i
      done;
      Vdev.zero_blocks disk (itable_addr t.layout cg) t.layout.itable_blocks;
      t.bitmap_dirty.(cg) <- true)
    t.block_bitmaps;
  (* Root directory in group 0. *)
  Bitmap.set t.inode_free.(0) (ino_index t.layout root);
  let inode = Inode.create ~ino:root ~ftype:Types.Directory ~mtime:(tick t) in
  let h =
    {
      inode;
      fmap = Lfs_core.Filemap.create_empty t.lfs_layout inode;
      content = Some (Directory.create ~block_size:cfg.block_size);
    }
  in
  Hashtbl.replace t.handles root h;
  write_inode t inode;
  init_dir t root;
  sync t

let mount disk =
  let cfg = load_super disk in
  let t = make disk cfg in
  (* Bitmaps from disk; inode-free maps by scanning the inode tables. *)
  Array.iteri
    (fun cg bm ->
      let b = Vdev.read_block disk (bitmap_addr t.layout cg) in
      let loaded = Bitmap.of_bytes b ~bits:cfg.cg_blocks in
      for i = 0 to cfg.cg_blocks - 1 do
        if Bitmap.get loaded i then Bitmap.set bm i
      done)
    t.block_bitmaps;
  Array.iteri
    (fun cg free ->
      let table =
        Vdev.read_blocks disk (itable_addr t.layout cg) t.layout.itable_blocks
      in
      for idx = 0 to cfg.inodes_per_cg - 1 do
        let block = idx / t.layout.inodes_per_block in
        let slot = idx mod t.layout.inodes_per_block in
        let view = Bytes.sub table (block * cfg.block_size) cfg.block_size in
        match Inode.decode view ~slot with
        | Some _ -> Bitmap.set free idx
        | None -> ()
        | exception Types.Corrupt _ -> ()
      done)
    t.inode_free;
  t

let free_blocks t =
  let total = ref 0 in
  Array.iter
    (fun bm -> total := !total + (Bitmap.bits bm - Bitmap.popcount bm))
    t.block_bitmaps;
  !total

let fsck_scan t =
  let l = t.layout in
  for cg = 0 to l.ncg - 1 do
    (* Deliberately bypass the cache: fsck models a cold post-crash scan. *)
    ignore (Vdev.read_block t.disk (bitmap_addr l cg));
    let table = Vdev.read_blocks t.disk (itable_addr l cg) l.itable_blocks in
    for idx = 0 to l.cfg.inodes_per_cg - 1 do
      let block = idx / l.inodes_per_block in
      let slot = idx mod l.inodes_per_block in
      let view = Bytes.sub table (block * l.cfg.block_size) l.cfg.block_size in
      match Inode.decode view ~slot with
      | None -> ()
      | Some inode ->
          (* Walk the block pointers, as fsck does to rebuild the
             allocation picture; this reads the indirect blocks. *)
          ignore
            (Lfs_core.Filemap.load
               ~with_block:(fun addr f -> f (Vdev.read_block t.disk addr))
               t.lfs_layout inode)
      | exception Types.Corrupt _ -> ()
    done
  done

let drop_caches t =
  sync t;
  Vdev_cache.clear t.cache;
  let keep = Hashtbl.create 1 in
  Hashtbl.iter (fun ino h -> if ino = root then Hashtbl.replace keep ino h) t.handles;
  Hashtbl.reset t.handles;
  Hashtbl.iter (fun ino h -> h.content <- None; Hashtbl.replace t.handles ino h) keep
