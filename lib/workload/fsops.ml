module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Fs = Lfs_core.Fs
module Ffs = Lfs_ffs.Ffs

type t = {
  name : string;
  async_writes : bool;
  devices : Lfs_disk.Vdev.t list;
  create_path : string -> Lfs_core.Types.ino;
  mkdir_path : string -> Lfs_core.Types.ino;
  resolve : string -> Lfs_core.Types.ino option;
  unlink : dir:Lfs_core.Types.ino -> string -> unit;
  rmdir : dir:Lfs_core.Types.ino -> string -> unit;
  rename :
    odir:Lfs_core.Types.ino -> string -> ndir:Lfs_core.Types.ino -> string -> unit;
  write : Lfs_core.Types.ino -> off:int -> bytes -> unit;
  truncate : Lfs_core.Types.ino -> len:int -> unit;
  read : Lfs_core.Types.ino -> off:int -> len:int -> bytes;
  file_size : Lfs_core.Types.ino -> int;
  sync : unit -> unit;
  drop_caches : unit -> unit;
  metrics : unit -> Lfs_obs.Metrics.t option;
  on_log_batch : ((blocks:int -> unit) -> unit) option;
  clean_step : (max_segments:int -> int) option;
}

(* Applying this functor doubles as the compile-time proof that the
   argument satisfies the shared surface (Fs and Ffs below). *)
module Make (F : Lfs_core.Fs_intf.S) = struct
  let make ~name ~async_writes fs =
    {
      name;
      async_writes;
      devices = F.devices fs;
      create_path = F.create_path fs;
      mkdir_path = F.mkdir_path fs;
      resolve = F.resolve fs;
      unlink = (fun ~dir name -> F.unlink fs ~dir name);
      rmdir = (fun ~dir name -> F.rmdir fs ~dir name);
      rename = (fun ~odir oname ~ndir nname -> F.rename fs ~odir oname ~ndir nname);
      write = (fun ino ~off b -> F.write fs ino ~off b);
      truncate = (fun ino ~len -> F.truncate fs ino ~len);
      read = (fun ino ~off ~len -> F.read fs ino ~off ~len);
      file_size = F.file_size fs;
      sync = (fun () -> F.sync fs);
      drop_caches = (fun () -> F.drop_caches fs);
      metrics = (fun () -> None);
      on_log_batch = None;
      clean_step = None;
    }
end

module Of_lfs = Make (Fs)
module Of_ffs = Make (Ffs)

let io_stats t =
  match t.devices with
  | [] -> invalid_arg "Fsops.io_stats: empty device list"
  | d :: rest ->
      List.fold_left
        (fun acc d -> Lfs_disk.Io_stats.merge acc (Vdev.stats d))
        (Lfs_disk.Io_stats.copy (Vdev.stats d))
        rest

let of_lfs fs =
  {
    (Of_lfs.make ~name:"Sprite LFS" ~async_writes:true fs) with
    metrics = (fun () -> Some (Fs.metrics fs));
    on_log_batch = Some (Fs.on_log_batch fs);
    clean_step = Some (fun ~max_segments -> Fs.clean_step ~max_segments fs);
  }
let of_ffs fs = Of_ffs.make ~name:"SunOS FFS" ~async_writes:false fs

let fresh_lfs ?(config = Lfs_core.Config.default) geometry =
  let disk = Vdev.of_disk (Disk.create geometry) in
  Fs.format disk config;
  of_lfs (Fs.mount disk)

let fresh_ffs ?(config = Ffs.default_config) geometry =
  let disk = Vdev.of_disk (Disk.create geometry) in
  Ffs.format disk config;
  of_ffs (Ffs.mount disk)
