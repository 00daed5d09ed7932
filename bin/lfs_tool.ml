(* lfs_tool: manage LFS disk images from the command line.

   Images are raw files whose size is blocks * 4096 bytes; the simulated
   disk is loaded, operated on, and written back.  Examples:

     lfs_tool mkfs disk.img --blocks 16384
     lfs_tool put disk.img /docs/readme.txt ./README.md
     lfs_tool cat disk.img /docs/readme.txt
     lfs_tool ls disk.img /
     lfs_tool rm disk.img /docs/readme.txt
     lfs_tool fsck disk.img
     lfs_tool info disk.img
     lfs_tool clean disk.img
     lfs_tool recover disk.img *)

open Cmdliner

module Disk = Lfs_disk.Disk
module Fs = Lfs_core.Fs
module Spec = Lfs_spec.Spec

let geometry_of_file path =
  let size =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)
  in
  if size mod 4096 <> 0 then failwith "image size is not a multiple of 4 KB";
  Lfs_disk.Geometry.wren_iv ~blocks:(size / 4096)

let load path = Disk.load_file (geometry_of_file path) path

let with_fs path f =
  let disk = load path in
  let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
  let result = f fs in
  Fs.unmount fs;
  Disk.save_file disk path;
  result

(* ---- arguments ---- *)

let image =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE" ~doc:"Disk image file")

let fs_path n =
  Arg.(required & pos n (some string) None & info [] ~docv:"PATH" ~doc:"Path inside the file system")

(* The --fs volume recipe shared by serve/stats/crashtest/modelcheck,
   with --shards folded in.  Grammar documented once in
   Spec.grammar_doc. *)
let fs_spec extra =
  let recipe =
    Arg.conv ~docv:"FS"
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Spec.parse s)),
        fun ppf t -> Format.pp_print_string ppf (Spec.to_string t) )
  in
  let spec =
    Arg.(
      value
      & opt recipe (Spec.of_string "lfs")
      & info [ "fs" ] ~docv:"FS"
          ~doc:
            (Printf.sprintf "Volume recipe.  Grammar: %s.  %s" Spec.grammar_doc
               extra))
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Override the shard count of a sharded recipe (so scripts can \
             sweep counts without rewriting the spec); ignored otherwise.")
  in
  Term.(
    const (fun spec n -> Option.fold n ~none:spec ~some:(fun n -> Spec.with_shards n spec))
    $ spec $ shards)

(* ---- commands ---- *)

let mkfs_cmd =
  let blocks =
    Arg.(value & opt int 16384 & info [ "blocks" ] ~doc:"Disk size in 4 KB blocks")
  in
  let seg_blocks =
    Arg.(value & opt int 256 & info [ "segment-blocks" ] ~doc:"Blocks per segment")
  in
  let run image blocks seg_blocks =
    let geom = Lfs_disk.Geometry.wren_iv ~blocks in
    let disk = Disk.create geom in
    (* Size the inode map to the disk: one inode per two data blocks. *)
    let max_inodes = max 256 (min 65536 (blocks / 2)) in
    Fs.format (Lfs_disk.Vdev.of_disk disk) { Lfs_core.Config.default with seg_blocks; max_inodes };
    Disk.save_file disk image;
    Printf.printf "formatted %s: %d blocks, %d-block segments\n" image blocks seg_blocks
  in
  Cmd.v (Cmd.info "mkfs" ~doc:"Create a fresh LFS image")
    Term.(const run $ image $ blocks $ seg_blocks)

let put_cmd =
  let local = Arg.(required & pos 2 (some file) None & info [] ~docv:"LOCAL" ~doc:"Local file to copy in") in
  let run image path local =
    let data =
      let ic = open_in_bin local in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    with_fs image (fun fs ->
        (* Create parent directories as needed. *)
        let parts = Lfs_core.Fs_intf.split_path path in
        let rec mkdirs prefix = function
          | [] | [ _ ] -> ()
          | d :: rest ->
              let p = prefix ^ "/" ^ d in
              (if Fs.resolve fs p = None then ignore (Fs.mkdir_path fs p));
              mkdirs p rest
        in
        mkdirs "" parts;
        Fs.write_path fs path (Bytes.of_string data);
        Printf.printf "wrote %d bytes to %s\n" (String.length data) path)
  in
  Cmd.v (Cmd.info "put" ~doc:"Copy a local file into the image")
    Term.(const run $ image $ fs_path 1 $ local)

let cat_cmd =
  let run image path =
    let disk = load image in
    let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
    match Fs.read_path fs path with
    | Some data -> print_string (Bytes.to_string data)
    | None -> prerr_endline "no such path"; exit 1
  in
  Cmd.v (Cmd.info "cat" ~doc:"Print a file's contents")
    Term.(const run $ image $ fs_path 1)

let ls_cmd =
  let run image path =
    let disk = load image in
    let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
    match Fs.resolve fs path with
    | None -> prerr_endline "no such path"; exit 1
    | Some ino ->
        List.iter
          (fun (name, child) ->
            let st = Fs.stat fs child in
            Printf.printf "%c %8d  %s\n"
              (match st.Fs.st_ftype with
              | Lfs_core.Types.Directory -> 'd'
              | Lfs_core.Types.Regular -> '-')
              st.Fs.st_size name)
          (Fs.readdir fs ino)
  in
  Cmd.v (Cmd.info "ls" ~doc:"List a directory") Term.(const run $ image $ fs_path 1)

let rm_cmd =
  let run image path =
    with_fs image (fun fs ->
        match String.rindex_opt path '/' with
        | None -> failwith "need an absolute path"
        | Some i ->
            let dirpath = if i = 0 then "/" else String.sub path 0 i in
            let name = String.sub path (i + 1) (String.length path - i - 1) in
            let dir = Option.get (Fs.resolve fs dirpath) in
            Fs.unlink fs ~dir name;
            Printf.printf "removed %s\n" path)
  in
  Cmd.v (Cmd.info "rm" ~doc:"Remove a file") Term.(const run $ image $ fs_path 1)

let get_cmd =
  let local = Arg.(required & pos 2 (some string) None & info [] ~docv:"LOCAL" ~doc:"Local destination file") in
  let run image path local =
    let disk = load image in
    let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
    let data =
      match Fs.read_path fs path with
      | Some data -> data
      | None -> prerr_endline "no such path"; exit 1
    in
    let oc = open_out_bin local in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc data);
    Printf.printf "copied %d bytes to %s\n" (Bytes.length data) local
  in
  Cmd.v (Cmd.info "get" ~doc:"Copy a file out of the image")
    Term.(const run $ image $ fs_path 1 $ local)

let mkdir_cmd =
  let run image path =
    with_fs image (fun fs ->
        ignore (Fs.mkdir_path fs path);
        Printf.printf "created %s\n" path)
  in
  Cmd.v (Cmd.info "mkdir" ~doc:"Create a directory") Term.(const run $ image $ fs_path 1)

let mv_cmd =
  let dst = Arg.(required & pos 2 (some string) None & info [] ~docv:"DEST" ~doc:"Destination path") in
  let split fs path =
    match String.rindex_opt path '/' with
    | None -> failwith "need an absolute path"
    | Some i ->
        let dirpath = if i = 0 then "/" else String.sub path 0 i in
        (Option.get (Fs.resolve fs dirpath),
         String.sub path (i + 1) (String.length path - i - 1))
  in
  let run image src dst =
    with_fs image (fun fs ->
        let odir, oname = split fs src in
        let ndir, nname = split fs dst in
        Fs.rename fs ~odir oname ~ndir nname;
        Printf.printf "renamed %s -> %s\n" src dst)
  in
  Cmd.v (Cmd.info "mv" ~doc:"Rename (atomically, via the directory operation log)")
    Term.(const run $ image $ fs_path 1 $ dst)

let df_cmd =
  let run image =
    let disk = load image in
    let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
    let layout = Fs.layout fs in
    let total = layout.Lfs_core.Layout.nsegs * layout.Lfs_core.Layout.seg_blocks * 4096 in
    let used = int_of_float (Fs.utilization fs *. float_of_int total) in
    Printf.printf "%-12s %10s %10s %10s %5s\n" "image" "total" "used" "free" "use%";
    Printf.printf "%-12s %10d %10d %10d %4.0f%%\n" (Filename.basename image)
      total used (total - used)
      (100.0 *. Fs.utilization fs)
  in
  Cmd.v (Cmd.info "df" ~doc:"Show space usage") Term.(const run $ image)

let fsck_cmd =
  let run image =
    let disk = load image in
    let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
    let r = Lfs_core.Fsck.check fs in
    Format.printf "%a@." Lfs_core.Fsck.pp_report r;
    if not (Lfs_core.Fsck.is_clean r) then exit 1
  in
  Cmd.v (Cmd.info "fsck" ~doc:"Check file-system consistency") Term.(const run $ image)

let info_cmd =
  let run image =
    let disk = load image in
    let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
    let layout = Fs.layout fs in
    Format.printf "%a@." Lfs_core.Layout.pp layout;
    Printf.printf "utilisation: %.1f%%\n" (100.0 *. Fs.utilization fs);
    Printf.printf "clean segments: %d / %d\n" (Fs.clean_segment_count fs)
      layout.Lfs_core.Layout.nsegs;
    let b = Fs.live_breakdown fs in
    List.iter
      (fun (kind, bytes) ->
        if bytes > 0 then
          Printf.printf "  %-10s %10d bytes\n"
            (Lfs_core.Types.block_kind_name kind)
            bytes)
      b.Fs.by_kind
  in
  Cmd.v (Cmd.info "info" ~doc:"Show image statistics") Term.(const run $ image)

let clean_cmd =
  let run image =
    with_fs image (fun fs ->
        Fs.clean fs;
        Printf.printf "clean segments: %d\n" (Fs.clean_segment_count fs))
  in
  Cmd.v (Cmd.info "clean" ~doc:"Run the segment cleaner") Term.(const run $ image)

let recover_cmd =
  let run image =
    let disk = load image in
    let fs, report = Fs.recover (Lfs_disk.Vdev.of_disk disk) in
    Fs.unmount fs;
    Disk.save_file disk image;
    Printf.printf
      "recovered: %d log writes, %d inodes, %d data blocks, %d dirops (%d segments scanned, %d blocks verified)\n"
      report.Fs.writes_replayed report.Fs.inodes_recovered
      report.Fs.data_blocks_recovered report.Fs.dirops_applied
      report.Fs.segments_scanned report.Fs.blocks_verified;
    List.iter
      (fun (p : Fs.recovery_phase) ->
        Printf.printf "  %-10s %8.3f s disk, %d reads\n" p.Fs.phase p.Fs.disk_s p.Fs.reads)
      report.Fs.phases
  in
  Cmd.v (Cmd.info "recover" ~doc:"Roll the log forward from the last checkpoint")
    Term.(const run $ image)

let trace_record_cmd =
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc:"Output trace file") in
  let ops = Arg.(value & opt int 500 & info [ "ops" ] ~doc:"Operations to record") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed") in
  let run out ops seed =
    let t = Lfs_workload.Trace.record_random ~ops ~seed () in
    Lfs_workload.Trace.save t out;
    Printf.printf "recorded %d operations (%d bytes of writes) to %s\n"
      (Lfs_workload.Trace.length t)
      (Lfs_workload.Trace.bytes_written t)
      out
  in
  Cmd.v (Cmd.info "trace-record" ~doc:"Generate a reproducible workload trace")
    Term.(const run $ out $ ops $ seed)

let trace_replay_cmd =
  let tracef = Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file") in
  let run image tracef =
    let t = Lfs_workload.Trace.load tracef in
    let disk = load image in
    let before = (Disk.stats disk).Lfs_disk.Io_stats.busy_s in
    let fs = Fs.mount (Lfs_disk.Vdev.of_disk disk) in
    let skipped = Lfs_workload.Trace.replay t (Lfs_workload.Fsops.of_lfs fs) in
    Fs.unmount fs;
    Disk.save_file disk image;
    Printf.printf "replayed %d operations; disk busy %.2f s; write cost %.2f\n"
      (Lfs_workload.Trace.length t - skipped)
      ((Disk.stats disk).Lfs_disk.Io_stats.busy_s -. before)
      (Lfs_core.Fs_stats.write_cost (Fs.metrics fs));
    if skipped > 0 then
      Printf.printf
        "skipped %d operations whose paths did not resolve (trace recorded \
         against different contents?)\n"
        skipped
  in
  Cmd.v (Cmd.info "trace-replay" ~doc:"Replay a recorded trace against an image")
    Term.(const run $ image $ tracef)

let crashtest_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("smallfile", `Smallfile); ("andrew", `Andrew); ("script", `Script) ]) `Smallfile
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Workload to enumerate: $(b,smallfile), $(b,andrew) or $(b,script).")
  in
  let fs_kind =
    fs_spec
      "FFS has no recovery protocol, so its oracle divergences are \
       expected; a shard spec faults shard 0's device at every one of \
       its writes while the other shards must keep their durable state."
  in
  let stride =
    Arg.(
      value & opt int 1
      & info [ "stride" ] ~docv:"N"
          ~doc:"Replay every $(docv)-th crash point instead of all of them \
                (the final write is always included).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed; reports replay exactly from it.")
  in
  let blocks =
    Arg.(value & opt int 1024 & info [ "blocks" ] ~doc:"Device size in 4 KB blocks.")
  in
  let allow_failures =
    Arg.(
      value & flag
      & info [ "allow-failures" ]
          ~doc:"Exit 0 even when the report shows failures (for the FFS demo).")
  in
  let run workload spec stride seed blocks allow_failures =
    let open Lfs_crashtest in
    let w =
      match workload with
      | `Smallfile -> Crashtest.smallfile ()
      | `Andrew -> Crashtest.andrew ()
      | `Script -> Crashtest.script ~seed ()
    in
    let report = Crashtest.run ~blocks ~stride ~seed spec w in
    Format.printf "%a@." Crashtest.pp_report report;
    if not (Crashtest.is_clean report) && not allow_failures then exit 1
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:
         "Enumerate crash points: replay a workload, cut the power at every \
          device write (torn/dropped/reordered), recover, fsck, and check \
          the surviving state against a logical oracle")
    Term.(
      const run $ workload $ fs_kind $ stride $ seed $ blocks $ allow_failures)

let modelcheck_cmd =
  let fs_kind =
    fs_spec
      "FFS has no recovery protocol, so its divergences are expected \
       (pair with --allow-failures); a shard spec faults shard 0's \
       device while the other shards must keep their durable state."
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ]
          ~doc:
            "PRNG seed.  Every reported divergence replays bit-identically \
             from (seed, sequence, cut).")
  in
  let seqs =
    Arg.(
      value & opt int 25
      & info [ "seqs" ] ~docv:"N" ~doc:"Random operation sequences to check.")
  in
  let ops =
    Arg.(
      value & opt int 60
      & info [ "ops" ] ~docv:"M" ~doc:"Operations per sequence.")
  in
  let stride =
    Arg.(
      value & opt int 1
      & info [ "stride" ] ~docv:"K"
          ~doc:
            "Replay every $(docv)-th crash point instead of all of them \
             (the final write is always included).")
  in
  let io_depth =
    Arg.(
      value & opt int 4
      & info [ "io-depth" ] ~docv:"D"
          ~doc:
            "Device requests kept in flight; > 1 runs the whole sequence \
             over queued submission with syncs as group-commit barriers.")
  in
  let blocks =
    Arg.(
      value & opt int 1024
      & info [ "blocks" ] ~doc:"Device size in 4 KB blocks (per device).")
  in
  let engine =
    Arg.(
      value & flag
      & info [ "engine" ]
          ~doc:
            "Check the request-serving engine's own generated load (group \
             commit, admission control) instead of random op sequences.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as JSON (byte-identical for equal seeds).")
  in
  let allow_failures =
    Arg.(
      value & flag
      & info [ "allow-failures" ]
          ~doc:"Exit 0 even when divergences were found (for the FFS demo).")
  in
  let run spec seed seqs ops stride io_depth blocks engine json allow_failures =
    let module Refine = Lfs_model.Refine in
    let module S = (val Spec.subject spec) in
    let module R = Refine.Make (S) in
    let reports =
      if engine then
        [
          R.check_engine ~blocks ~stride ~seed
            {
              Lfs_server.Engine.default with
              Lfs_server.Engine.clients = 3;
              ops_per_client = 15;
              seed;
              io_depth;
            };
        ]
      else
        List.init seqs (fun seq ->
            R.check_seq ~blocks ~io_depth ~stride ~seed ~nops:ops ~seq ())
    in
    let total_divs =
      List.fold_left
        (fun acc r -> acc + List.length r.Refine.divergences)
        0 reports
    in
    let idle_passes =
      List.fold_left (fun acc (r : Refine.seq_report) -> acc + r.idle_passes) 0 reports
    in
    let subject =
      match reports with r :: _ -> r.Refine.subject | [] -> "?"
    in
    if json then begin
      let b = Buffer.create 1024 in
      Buffer.add_string b
        (Printf.sprintf
           "{\"subject\":%S,\"seed\":%d,\"io_depth\":%d,\"stride\":%d,\"sequences\":["
           subject seed io_depth stride);
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"seq\":%d,\"ops\":%d,\"space\":%d,\"points\":%d,\"crashes\":%d,\"idle_passes\":%d,\"divergences\":["
               r.Refine.seq r.Refine.ops r.Refine.total_blocks r.Refine.points
               r.Refine.crashes r.Refine.idle_passes);
          List.iteri
            (fun j (d : Refine.divergence) ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "{\"cut\":%d,\"stage\":%S,\"detail\":%S}"
                   d.Refine.cut d.Refine.stage d.Refine.detail))
            r.Refine.divergences;
          Buffer.add_string b "]}")
        reports;
      Buffer.add_string b
        (Printf.sprintf "],\"total_idle_passes\":%d,\"total_divergences\":%d}\n"
           idle_passes total_divs);
      print_string (Buffer.contents b)
    end
    else begin
      List.iter (fun r -> Format.printf "%a@." Refine.pp_seq_report r) reports;
      let points = List.fold_left (fun a r -> a + r.Refine.points) 0 reports in
      Format.printf
        "modelcheck: %d sequence%s, %d crash points, %d idle pass%s, %d divergence%s — %s@."
        (List.length reports)
        (if List.length reports = 1 then "" else "s")
        points idle_passes
        (if idle_passes = 1 then "" else "es")
        total_divs
        (if total_divs = 1 then "" else "s")
        (if total_divs = 0 then "PASS" else "FAIL")
    end;
    if total_divs > 0 && not allow_failures then exit 1
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:
         "Refinement-check a backend against the executable reference \
          model: run random operation sequences (or the serving engine's \
          load) with group commit and io-depth in flight, cut the power at \
          every enumerated device write, recover, fsck, and require the \
          surviving namespace to be some state between the durability \
          frontier and the crash operation")
    Term.(
      const run $ fs_kind $ seed $ seqs $ ops $ stride $ io_depth $ blocks
      $ engine $ json $ allow_failures)

(* The stats/serve exercise, phrased against the shared driver record so
   it runs on any backend a spec can name. *)
let exercise_fsops (fs : Lfs_workload.Fsops.t) ~files ~seed =
  let module Fsops = Lfs_workload.Fsops in
  let prng = Lfs_util.Prng.create ~seed in
  (* Files spread over top-level directories: a sharded volume places a
     file by its parent directory (by_hash) or its first path component
     (by_subtree), so one tree would drive a single shard and leave the
     rest idle. *)
  let ndirs = 16 in
  let dir_of i = Printf.sprintf "/.stats-exercise-%d" (i mod ndirs) in
  for d = 0 to ndirs - 1 do
    if fs.Fsops.resolve (dir_of d) = None then ignore (fs.Fsops.mkdir_path (dir_of d))
  done;
  let path i = Printf.sprintf "%s/f%d" (dir_of i) i in
  for round = 1 to 3 do
    for i = 0 to files - 1 do
      let len = 512 + Lfs_util.Prng.int prng 8192 in
      let ino =
        match fs.Fsops.resolve (path i) with
        | Some ino -> ino
        | None -> fs.Fsops.create_path (path i)
      in
      fs.Fsops.write ino ~off:0
        (Bytes.init len (fun j -> Char.chr ((i + j + round) land 0xff)))
    done
  done;
  fs.Fsops.sync ();
  for i = 0 to files - 1 do
    if fs.Fsops.resolve (path i) = None then failwith "exercise file vanished"
  done;
  for i = 0 to files - 1 do
    if i mod 2 = 0 then
      let dir =
        match fs.Fsops.resolve (dir_of i) with
        | Some d -> d
        | None -> assert false
      in
      fs.Fsops.unlink ~dir (Printf.sprintf "f%d" i)
  done;
  (match fs.Fsops.clean_step with
  | Some step -> ignore (step ~max_segments:64)
  | None -> ());
  fs.Fsops.sync ()

let stats_cmd =
  let exercise =
    Arg.(
      value & opt int 0
      & info [ "exercise" ] ~docv:"N"
          ~doc:
            "First run a small deterministic workload of $(docv) files \
             (write, read back, delete half, clean, checkpoint) so the \
             registry has live traffic.  The image file is never modified.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed for the exercise workload")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text tables")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the registry (no NaN, infinite or negative values) and \
             exit 1 listing any violations")
  in
  let image_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"IMAGE"
          ~doc:
            "Disk image file ($(b,lfs) specs only).  Omit it to report on a \
             fresh in-memory volume of --blocks built from --fs instead.")
  in
  let blocks =
    Arg.(
      value & opt int 16384
      & info [ "blocks" ]
          ~doc:"Fresh in-memory volume size in 4 KB blocks (no IMAGE only)")
  in
  let run image spec blocks exercise seed json check =
    let fs, title =
      match image with
      | None ->
          let fs = Spec.fresh ~blocks spec in
          (fs, Printf.sprintf "lfs stats: %s (in-memory)" fs.Lfs_workload.Fsops.name)
      | Some image when spec = Spec.of_string "lfs" ->
          let fs = Fs.mount (Lfs_disk.Vdev.of_disk (load image)) in
          (Lfs_workload.Fsops.of_lfs fs, Printf.sprintf "lfs stats: %s" image)
      | Some _ ->
          prerr_endline
            "an IMAGE argument is only supported with --fs lfs; omit it to \
             build an in-memory volume from the spec";
          exit 1
    in
    let m =
      match fs.Lfs_workload.Fsops.metrics () with
      | Some m -> m
      | None ->
          (* No registry of its own (FFS): report its devices' IO. *)
          let m = Lfs_obs.Metrics.create () in
          List.iter (Lfs_disk.Vdev.register_metrics m) fs.Lfs_workload.Fsops.devices;
          m
    in
    if exercise > 0 then exercise_fsops fs ~files:exercise ~seed;
    (* An exercised registry must be self-consistent even without
       --check: validate before printing so a bad value fails the run
       instead of sneaking into the report. *)
    let problems = if check || exercise > 0 then Lfs_obs.Metrics.validate m else [] in
    if json then print_string (Lfs_obs.Metrics.to_json m)
    else print_string (Lfs_obs.Metrics.report ~title m);
    if problems <> [] then begin
      List.iter
        (fun (name, what) -> Printf.eprintf "bad metric %s: %s\n" name what)
        problems;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report the metrics registry of a mounted image or a fresh \
          in-memory volume named by --fs: per-layer IO, cache hit rate, \
          per-op latency, cleaner and checkpoint statistics (text tables or \
          JSON)")
    Term.(
      const run $ image_opt
      $ fs_spec
          "Only $(b,lfs) can read an IMAGE; other specs build a fresh \
           in-memory volume and want --exercise for traffic."
      $ blocks $ exercise $ seed $ json $ check)

let serve_cmd =
  let module Engine = Lfs_server.Engine in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client sessions")
  in
  let ops =
    Arg.(value & opt int 200 & info [ "ops" ] ~docv:"M" ~doc:"Requests per client")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed; equal seeds replay identically") in
  let fs_kind =
    fs_spec
      "$(b,lfs) batches via group commit, $(b,ffs) writes synchronously, \
       $(b,shard:N) spreads the namespace over N independent logs."
  in
  let blocks =
    Arg.(
      value & opt int 16384
      & info [ "blocks" ]
          ~doc:
            "Fresh in-memory device capacity in 4 KB blocks (total: a shard \
             spec splits it evenly across its devices)")
  in
  let depth =
    Arg.(value & opt int 64 & info [ "depth" ] ~docv:"K" ~doc:"Admission bound: waiting requests across all clients")
  in
  let policy =
    Arg.(
      value
      & opt (enum [ ("block", Engine.Block); ("shed", Engine.Shed) ]) Engine.Block
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Overload policy: $(b,block) the client or $(b,shed) the request")
  in
  let window =
    Arg.(
      value & opt float 0.01
      & info [ "window" ] ~docv:"S"
          ~doc:
            "Group-commit window, in modelled seconds.  At $(b,--io-depth) \
             1 a batch collects members for this long unless \
             $(b,--max-batch) fills it first.  Above 1 it is the longest a \
             batch waits: a batch flushes at once when no flush is in \
             flight, otherwise when the flush ahead completes, and never \
             later than this")
  in
  let max_batch =
    Arg.(value & opt int 32 & info [ "max-batch" ] ~docv:"B" ~doc:"Flush early at this many batched requests")
  in
  let think =
    Arg.(value & opt float 0.05 & info [ "think" ] ~docv:"S" ~doc:"Mean client think time, modelled seconds")
  in
  let bg_clean =
    Arg.(
      value & flag
      & info [ "bg-clean" ]
          ~doc:
            "Clean segments in idle windows, paced by the background \
             watermarks, instead of only when a writer stalls on the \
             threshold (no-op on $(b,ffs))")
  in
  let io_depth =
    Arg.(
      value & opt int 1
      & info [ "io-depth" ] ~docv:"N"
          ~doc:
            "Device requests kept in flight together.  $(b,1) serves \
             strictly serially (the historical timings); larger values \
             overlap request IO through the per-device elevator, with \
             group-commit flushes acting as fsync barriers")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics registry as JSON (byte-identical for equal seeds)")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Validate the metrics registry and exit 1 on violations")
  in
  let run clients ops seed spec blocks depth policy window max_batch think
      bg_clean io_depth json check =
    let fs = Spec.fresh ~blocks spec in
    let cfg =
      {
        Engine.default with
        Engine.clients;
        ops_per_client = ops;
        seed;
        queue_depth = depth;
        policy;
        batch_window_s = window;
        max_batch;
        think_mean_s = think;
        bg_clean;
        io_depth;
      }
    in
    let r = Engine.run cfg fs in
    let m = r.Engine.metrics in
    if json then print_string (Lfs_obs.Metrics.to_json m)
    else begin
      Printf.printf
        "%s: %d clients x %d ops (seed %d, depth %d, policy %s, io-depth %d)\n"
        r.Engine.fs_name clients ops seed depth (Engine.policy_name policy)
        io_depth;
      Printf.printf
        "completed %d, shed %d, errors %d in %.3f modelled s (%.1f ops/s)\n"
        r.Engine.completed r.Engine.shed r.Engine.errors r.Engine.elapsed_s
        r.Engine.throughput_ops_s;
      Printf.printf "flushes %d, mean batch %.2f, disk %.3f s (%.2f ms/op)\n"
        r.Engine.flushes r.Engine.mean_batch r.Engine.disk_s
        (if r.Engine.completed > 0 then
           1000.0 *. r.Engine.disk_s /. float_of_int r.Engine.completed
         else Float.nan);
      if bg_clean then
        Printf.printf "background cleaner: %d idle steps\n"
          r.Engine.bg_clean_steps;
      print_string (Lfs_obs.Metrics.report ~title:"server metrics" m)
    end;
    if check then
      match Lfs_obs.Metrics.validate m with
      | [] -> ()
      | problems ->
          List.iter
            (fun (name, what) -> Printf.eprintf "bad metric %s: %s\n" name what)
            problems;
          exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve N deterministic client sessions against a fresh in-memory \
          file system over the modelled clock: group commit, admission \
          control, fair dequeue, and per-class latency percentiles")
    Term.(
      const run $ clients $ ops $ seed $ fs_kind $ blocks
      $ depth $ policy $ window $ max_batch $ think $ bg_clean $ io_depth
      $ json $ check)

let () =
  let doc = "manage log-structured file system images" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "lfs_tool" ~doc)
          [ mkfs_cmd; put_cmd; get_cmd; cat_cmd; ls_cmd; mkdir_cmd; mv_cmd;
            rm_cmd; df_cmd; fsck_cmd; info_cmd; clean_cmd; recover_cmd;
            trace_record_cmd; trace_replay_cmd; crashtest_cmd; modelcheck_cmd;
            stats_cmd; serve_cmd ]))
