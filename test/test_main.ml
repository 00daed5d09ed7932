let () =
  Alcotest.run "lfs"
    [
      Test_util.suite;
      Test_obs.suite;
      Test_disk.suite;
      Test_structures.suite;
      Test_filemap.suite;
      Test_log_writer.suite;
      Test_seg_pool.suite;
      Test_fs.suite;
      Test_cleaner.suite;
      Test_recovery.suite;
      Test_nvram.suite;
      Test_fsck.suite;
      Test_props.suite;
      Test_ffs.suite;
      Test_sim.suite;
      Test_workload.suite;
      Test_crashtest.suite;
      Test_heads.suite;
      Test_tier.suite;
      Test_model.suite;
      Test_shard.suite;
      Test_server.suite;
    ]
