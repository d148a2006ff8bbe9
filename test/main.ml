let () =
  Alcotest.run "cxlshm"
    [
      ("shmem", Test_shmem.suite);
      ("backends", Test_backends.suite);
      ("core-alloc", Test_core_alloc.suite);
      ("era", Test_era.suite);
      ("recovery", Test_recovery.suite);
      ("fault-injection", Test_fault_injection.suite);
      ("device-faults", Test_device_faults.suite);
      ("fsck", Test_fsck.suite);
      ("spsc", Test_spsc.suite);
      ("allocators", Test_allocators.suite);
      ("rpc", Test_rpc.suite);
      ("kv", Test_kv.suite);
      ("limbo", Test_limbo.suite);
      ("mapreduce", Test_mapreduce.suite);
      ("transfer", Test_transfer.suite);
      ("reclaim", Test_reclaim.suite);
      ("validate", Test_validate.suite);
      ("layout", Test_layout.suite);
      ("monitor-client", Test_monitor_client.suite);
      ("huge", Test_huge.suite);
      ("bench-util", Test_bench_util.suite);
      ("concurrent", Test_concurrent.suite);
      ("extensions", Test_extensions.suite);
      ("fault-kv", Test_fault_kv.suite);
      ("units", Test_units.suite);
      ("gc-persist", Test_gc_persist.suite);
      ("trace", Test_trace.suite);
      ("check", Test_check.suite);
      ("epoch", Test_epoch.suite);
    ]
