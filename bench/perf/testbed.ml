(* The device and file-system stack every workload runs on, built from
   public constructors only: [Disk] -> [Vdev.of_disk] -> (optional
   [Vdev_fault]) -> [Fs.format]/[Fs.mount] -> [Fsops.of_lfs], the stack
   [Fsops.fresh_lfs] builds.  In a traced run a timing shim sits between
   the device and the file system, and the [Fsops.t] closures are wrapped,
   so every call into a layer is a span; an untraced run has neither. *)

module Disk = Lfs_disk.Disk
module Vdev = Lfs_disk.Vdev
module Vdev_fault = Lfs_disk.Vdev_fault
module Io_stats = Lfs_disk.Io_stats
module Metrics = Lfs_obs.Metrics
module Fs = Lfs_core.Fs
module Fsops = Lfs_workload.Fsops

(* Keeps the wrapped device's [name], so the registry names the file
   system derives from it do not change under tracing. *)
let shim tr (v : Vdev.t) : Vdev.t =
  let s op f = Tracer.span tr ("vdev." ^ op) f in
  {
    v with
    read_blocks = (fun addr n -> s "read_blocks" (fun () -> v.read_blocks addr n));
    write_blocks = (fun addr b -> s "write_blocks" (fun () -> v.write_blocks addr b));
    zero_blocks = (fun addr n -> s "zero_blocks" (fun () -> v.zero_blocks addr n));
    submit_read = (fun ?now addr n -> s "submit_read" (fun () -> v.submit_read ?now addr n));
    submit_write = (fun ?now addr b -> s "submit_write" (fun () -> v.submit_write ?now addr b));
    drain = (fun () -> s "drain" v.drain);
    pump = (fun ~now -> s "pump" (fun () -> v.pump ~now));
  }

type dev = {
  top : Vdev.t;  (** what the file system is formatted and mounted on *)
  fault : Vdev_fault.t option;
}

let device ?tracer ?fault_seed geometry =
  let base = Vdev.of_disk (Disk.create geometry) in
  let fault = Option.map (fun seed -> Vdev_fault.create ~seed base) fault_seed in
  let lower = match fault with Some f -> Vdev_fault.vdev f | None -> base in
  let top = match tracer with Some tr -> shim tr lower | None -> lower in
  { top; fault }

let io dev = Io_stats.copy (Vdev.stats dev.top)
let busy_s dev = (Vdev.stats dev.top).Io_stats.busy_s

let fresh ?tracer geometry config =
  let dev = device ?tracer geometry in
  Fs.format dev.top config;
  (dev, Fs.mount dev.top)

(* Counts the wrapped closures see that no registry holds: user bytes
   written (for write amplification), cleaner polls, and the polls that
   submitted any IO. *)
type counts = { mutable user_bytes : int; mutable clean_polls : int; mutable clean_useful : int }

let counts () = { user_bytes = 0; clean_polls = 0; clean_useful = 0 }

let clean_step tr c step =
  if tr.Tracer.enabled then begin
    let lo = Vdev.next_tag () in
    let owed = Tracer.span tr "cleaner.step" step in
    c.clean_polls <- c.clean_polls + 1;
    if Vdev.next_tag () > lo then c.clean_useful <- c.clean_useful + 1;
    owed
  end
  else step ()

(* Every Engine request starts with exactly one [resolve], so marking
   there gives one mark per request. *)
let wrap_fsops tr c (fs : Fsops.t) : Fsops.t =
  let s op f = Tracer.span tr ("fs." ^ op) f in
  {
    fs with
    create_path = (fun p -> s "create" (fun () -> fs.create_path p));
    mkdir_path = (fun p -> s "mkdir" (fun () -> fs.mkdir_path p));
    resolve =
      (fun p ->
        Tracer.mark tr;
        s "resolve" (fun () -> fs.resolve p));
    unlink = (fun ~dir name -> s "unlink" (fun () -> fs.unlink ~dir name));
    write =
      (fun ino ~off b ->
        if tr.Tracer.enabled then c.user_bytes <- c.user_bytes + Bytes.length b;
        s "write" (fun () -> fs.write ino ~off b));
    read = (fun ino ~off ~len -> s "read" (fun () -> fs.read ino ~off ~len));
    file_size = (fun ino -> s "file_size" (fun () -> fs.file_size ino));
    sync = (fun () -> s "sync" fs.sync);
    clean_step =
      Option.map
        (fun step ~max_segments -> clean_step tr c (fun () -> step ~max_segments))
        fs.clean_step;
  }

(* Registry reads.  Instruments are never reset, so what a phase added is
   the difference of two snapshots taken at its boundaries (for a
   histogram, of its sum of samples). *)
type delta = (string * float) list

let num snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Int n) -> float_of_int n
  | Some (Metrics.Float f) -> f
  | Some (Metrics.Summary { sum; _ }) -> sum
  | Some (Metrics.Series { total; _ }) -> total
  | None -> 0.0

(* Non-empty cleaner victims and the sum of their utilisations, recovered
   from the running average so a phase's own mean can be taken. *)
let victims snap =
  let k = num snap "fs.cleaner.segments_cleaned" -. num snap "fs.cleaner.segments_cleaned_empty" in
  [ ("victims", k); ("victims.u_sum", k *. num snap "fs.cleaner.avg_cleaned_u") ]

let delta s0 s1 : delta =
  List.map (fun (name, _) -> (name, num s1 name -. num s0 name)) s1
  @ List.map2 (fun (k, a) (_, b) -> (k, b -. a)) (victims s0) (victims s1)

let get (d : delta) name = Option.value (List.assoc_opt name d) ~default:0.0

let add (a : delta) (b : delta) : delta =
  let names = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.map (fun k -> (k, get a k +. get b k)) names

(* The paper's write cost over a phase: (log blocks written + cleaner
   reads) / new-data blocks, from the [Fs_stats] gauges. *)
let write_cost d =
  let fresh = get d "fs.log.blocks_new" in
  (fresh +. get d "fs.log.blocks_cleaner" +. get d "fs.cleaner.blocks_read") /. fresh
