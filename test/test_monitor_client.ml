(* Client lifecycle + lease-based failure monitor (§3.2). *)

open Cxlshm
module Soak = Cxlshm_check.Soak

(* lease_ttl = 1 reproduces the historical cadence: one full pass of
   tolerance, suspected on the second, condemned on the third. *)
let lease_cfg = { Config.small with Config.lease_ttl = 1 }

let test_register_limits () =
  let cfg = { Config.small with Config.max_clients = 3 } in
  let arena = Shm.create ~cfg () in
  let _a = Shm.join arena () in
  let _b = Shm.join arena () in
  let _c = Shm.join arena () in
  Alcotest.check_raises "no free slot" (Failure "Client.register: no free client slot")
    (fun () -> ignore (Shm.join arena ()))

let test_register_specific_cid () =
  let arena = Shm.create ~cfg:Config.small () in
  let a = Shm.join arena ~cid:3 () in
  Alcotest.(check int) "got requested cid" 3 a.Ctx.cid;
  Alcotest.check_raises "slot taken" (Failure "Client.register: no free client slot")
    (fun () -> ignore (Shm.join arena ~cid:3 ()))

let test_clean_exit_releases_segments () =
  let arena = Shm.create ~cfg:Config.small () in
  let before = Shm.free_segments arena in
  let a = Shm.join arena () in
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.drop r;
  Shm.leave a;
  Alcotest.(check int) "segments all returned" before (Shm.free_segments arena);
  (* the slot is reusable *)
  let a2 = Shm.join arena ~cid:a.Ctx.cid () in
  Shm.leave a2

let test_monitor_detects_silence () =
  let arena = Shm.create ~cfg:lease_cfg () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let _ = List.init 5 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  let mon = Shm.monitor arena () in
  (* b heartbeats, a goes silent *)
  Client.heartbeat a;
  Client.heartbeat b;
  Alcotest.(check (list int)) "nobody suspected yet" [] (Monitor.check_once mon);
  Client.heartbeat b;
  Alcotest.(check (list int)) "expiry only suspects" [] (Monitor.check_once mon);
  Alcotest.(check bool) "a suspected" true
    (Client.status b ~cid:a.Ctx.cid = Client.Suspected);
  Client.heartbeat b;
  Alcotest.(check (list int)) "a condemned after the grace pass" [ a.Ctx.cid ]
    (Monitor.check_once mon);
  Alcotest.(check bool) "a declared failed" true
    (Client.status b ~cid:a.Ctx.cid = Client.Failed);
  let reports = Monitor.recover_suspects mon in
  Alcotest.(check int) "one recovery ran" 1 (List.length reports);
  (match reports with
  | [ (cid, r) ] ->
      Alcotest.(check int) "recovered a" a.Ctx.cid cid;
      Alcotest.(check int) "reaped the rootrefs" 5 r.Recovery.rootrefs_released
  | _ -> Alcotest.fail "expected one report");
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena));
  Alcotest.(check bool) "b still alive" true (Client.is_alive b ~cid:b.Ctx.cid)

let test_suspected_then_renewed () =
  (* A late heartbeat cancels suspicion: the client was slow, not dead. *)
  let arena = Shm.create ~cfg:lease_cfg () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let mon = Shm.monitor arena () in
  Client.heartbeat a;
  Client.heartbeat b;
  ignore (Monitor.check_once mon);
  Client.heartbeat b;
  ignore (Monitor.check_once mon);
  Alcotest.(check bool) "a suspected" true
    (Client.status b ~cid:a.Ctx.cid = Client.Suspected);
  (* the renewal races the would-be condemnation and wins *)
  Client.heartbeat a;
  Alcotest.(check bool) "heartbeat self-heals" true
    (Client.status b ~cid:a.Ctx.cid = Client.Alive);
  Client.heartbeat b;
  Alcotest.(check (list int)) "nobody condemned" [] (Monitor.check_once mon);
  Alcotest.(check bool) "a still alive" true (Client.is_alive b ~cid:a.Ctx.cid);
  Alcotest.(check int) "no recovery ran" 0
    (List.length (Monitor.recover_suspects mon))

let test_hung_client_condemned () =
  (* A hung client keeps issuing arena operations but never heartbeats:
     leases catch it exactly like a silent death — the old per-monitor
     heartbeat-history scheme did too, but only from the monitor that
     watched the whole silence. *)
  let arena = Shm.create ~cfg:lease_cfg () in
  let a = Shm.join arena () in
  let mon = Shm.monitor arena () in
  ignore (Monitor.check_once mon);
  ignore (Shm.cxl_malloc a ~size_bytes:16 ());
  ignore (Monitor.check_once mon);
  (* still "working" while suspected — ops do not renew the lease *)
  ignore (Shm.cxl_malloc a ~size_bytes:16 ());
  Alcotest.(check (list int)) "condemned despite making progress" [ a.Ctx.cid ]
    (Monitor.check_once mon);
  ignore (Monitor.recover_suspects mon);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_fresh_replica_detects_immediately () =
  (* Absolute deadlines live in shared memory, so a replica spawned after
     the failure condemns on its first pass — no warm-up history. *)
  let arena = Shm.create ~cfg:lease_cfg () in
  let a = Shm.join arena () in
  let _ = List.init 2 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  let mon1 = Shm.monitor arena () in
  ignore (Monitor.check_once mon1);
  ignore (Monitor.check_once mon1);
  Alcotest.(check bool) "suspected by replica 0" true
    (Client.status (Shm.service_ctx arena) ~cid:a.Ctx.cid = Client.Suspected);
  let mon2 = Shm.monitor arena ~id:1 () in
  Alcotest.(check (list int)) "fresh replica condemns at once" [ a.Ctx.cid ]
    (Monitor.check_once mon2);
  Alcotest.(check int) "condemning replica captured the dump" 1
    (List.length (Monitor.death_dumps mon2));
  (* the other replica sees the same Failed slot but the incident is
     already claimed: exactly one capture across the fleet *)
  ignore (Monitor.check_once mon1);
  Alcotest.(check int) "no duplicate dump on replica 0" 0
    (List.length (Monitor.death_dumps mon1));
  Alcotest.(check int) "replica 1 recovers" 1
    (List.length (Monitor.recover_suspects mon2));
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_death_dump_once_per_incident () =
  let arena = Shm.create ~cfg:lease_cfg () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  ignore (Shm.cxl_malloc a ~size_bytes:16 ());
  let mon = Shm.monitor arena () in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  (* the same Failed slot observed on two passes dumps once *)
  ignore (Monitor.check_once mon);
  ignore (Monitor.check_once mon);
  Alcotest.(check int) "one dump for one incident" 1
    (List.length (Monitor.death_dumps mon));
  ignore (Monitor.recover_suspects mon);
  (* a new incarnation of the slot is a new incident *)
  let a2 = Shm.join arena ~cid:a.Ctx.cid () in
  ignore (Shm.cxl_malloc a2 ~size_bytes:16 ());
  Client.declare_failed svc ~cid:a2.Ctx.cid;
  ignore (Monitor.check_once mon);
  ignore (Monitor.check_once mon);
  Alcotest.(check int) "second incident dumps again" 2
    (List.length (Monitor.death_dumps mon));
  ignore (Monitor.recover_suspects mon);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_leader_election_and_abdication () =
  let arena = Shm.create ~cfg:lease_cfg () in
  let mon1 = Shm.monitor arena () in
  let mon2 = Shm.monitor arena ~id:1 () in
  ignore (Monitor.recover_suspects mon1);
  Alcotest.(check bool) "replica 0 elected" true (Monitor.is_leader mon1);
  ignore (Monitor.recover_suspects mon2);
  Alcotest.(check bool) "replica 1 follows" false (Monitor.is_leader mon2);
  (match Monitor.leader mon2 with
  | Some (0, _) -> ()
  | other ->
      Alcotest.failf "leader word should carry id 0, got %s"
        (match other with
        | None -> "none"
        | Some (i, d) -> Printf.sprintf "(%d, %d)" i d));
  Monitor.abdicate mon1;
  ignore (Monitor.recover_suspects mon2);
  Alcotest.(check bool) "replica 1 takes the open seat" true
    (Monitor.is_leader mon2)

let test_takeover_after_leader_lease_expiry () =
  (* The leader dies without abdicating: its lease keeps expiring on the
     shared clock, so a surviving replica deposes it. *)
  let arena = Shm.create ~cfg:lease_cfg () in
  let mon1 = Shm.monitor arena () in
  let mon2 = Shm.monitor arena ~id:1 () in
  ignore (Monitor.recover_suspects mon1);
  Alcotest.(check bool) "replica 0 elected" true (Monitor.is_leader mon1);
  (* replica 0 goes silent; replica 1 keeps checking (and ticking) *)
  ignore (Monitor.check_once mon2);
  ignore (Monitor.check_once mon2);
  ignore (Monitor.recover_suspects mon2);
  Alcotest.(check bool) "replica 1 deposed the dead leader" true
    (Monitor.is_leader mon2);
  match Monitor.leader mon2 with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "leader word should now carry id 1"

let test_follower_finishes_crashed_leader_recovery () =
  (* The leader crashes inside client recovery; the follower must depose it
     and finish the half-done recovery before anything else. *)
  let arena = Shm.create ~cfg:lease_cfg () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let _ = List.init 5 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  let mon1 = Shm.monitor arena () in
  let mon2 = Shm.monitor arena ~id:1 () in
  Client.heartbeat a;
  Client.heartbeat b;
  ignore (Monitor.check_once mon1);
  Client.heartbeat b;
  ignore (Monitor.check_once mon1);
  Client.heartbeat b;
  Alcotest.(check (list int)) "a condemned" [ a.Ctx.cid ]
    (Monitor.check_once mon1);
  (* leader dies mid-recovery *)
  (Monitor.ctx mon1).Ctx.fault <- Fault.at Fault.Recovery_mid_phases ~nth:1;
  (try
     ignore (Monitor.recover_suspects mon1);
     Alcotest.fail "leader should have crashed mid-recovery"
   with Fault.Crashed _ -> ());
  Alcotest.(check bool) "a still failed after the crash" true
    (Client.status b ~cid:a.Ctx.cid = Client.Failed);
  (* the follower's passes expire the dead leader's lease *)
  Client.heartbeat b;
  ignore (Monitor.check_once mon2);
  Client.heartbeat b;
  ignore (Monitor.check_once mon2);
  Client.heartbeat b;
  (* Took_over resumes the interrupted recovery mid-flight — a's teardown
     completes inside the resume, so the Failed sweep finds nothing left. *)
  ignore (Monitor.recover_suspects mon2);
  Alcotest.(check bool) "follower took over" true (Monitor.is_leader mon2);
  Alcotest.(check bool) "slot reusable" true
    (Client.status b ~cid:a.Ctx.cid = Client.Slot_free);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean after takeover" true
    (Validate.is_clean (Shm.validate arena));
  Alcotest.(check bool) "b untouched" true (Client.is_alive b ~cid:b.Ctx.cid)

let test_monitor_background_domain () =
  let arena = Shm.create ~cfg:lease_cfg () in
  let a = Shm.join arena () in
  let _ = List.init 3 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  let mon = Shm.monitor arena () in
  let domain, stop = Monitor.run_in_domain mon ~interval:0.01 in
  (* a never heartbeats: the monitor should reap it *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    if Client.status (Shm.service_ctx arena) ~cid:a.Ctx.cid = Client.Slot_free
    then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "monitor never recovered the silent client"
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  Atomic.set stop true;
  Domain.join domain;
  Alcotest.(check bool) "clean after async recovery" true
    (Validate.is_clean (Shm.validate arena))

let test_monitor_survives_device_faults () =
  (* The monitor is the component everything else relies on for liveness:
     a poisoned read must not silently kill its domain. Drown it in device
     faults, watch it count the failures and keep running, then service
     the devices and check it still reaps a silent client. *)
  let cfg =
    {
      Config.small with
      Config.lease_ttl = 1;
      Config.backend =
        Cxlshm_shmem.Mem.Faulty
          {
            base = Cxlshm_shmem.Mem.Flat;
            fault_spec =
              {
                Cxlshm_shmem.Backend_faulty.seed = 9;
                read_poison = 0.9;
                torn_write = 0.;
                stuck_word = 0.;
                offline = [];
              };
          };
    }
  in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let _held = List.init 3 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  Shm.set_fault_injection arena true;
  let mon = Shm.monitor arena () in
  let handle = Monitor.run_in_domain mon ~interval:0.001 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Monitor.error_count mon < 3 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "loop iterations raised and were absorbed" true
    (Monitor.error_count mon >= 3);
  (* the devices get serviced; the same domain must still do its job *)
  Shm.set_fault_injection arena false;
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    if Client.status (Shm.service_ctx arena) ~cid:a.Ctx.cid = Client.Slot_free
    then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "monitor stopped working after device faults"
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ();
  (match Monitor.stop_and_join handle mon with
  | Some (Cxlshm_shmem.Mem.Device_error { transient; _ }) ->
      Alcotest.(check bool) "remembered a device error" true transient
  | Some e -> Alcotest.failf "unexpected last error: %s" (Printexc.to_string e)
  | None -> Alcotest.fail "no error remembered despite injected faults");
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean after the storm" true
    (Validate.is_clean (Shm.validate arena))

(* Each heartbeat after the lease clock moves pushes the deadline forward
   to exactly [now + ttl]. *)
let test_heartbeat_monotone () =
  let arena = Shm.create ~cfg:Config.small () in
  let a = Shm.join arena () in
  let cid = a.Ctx.cid in
  let d0 = Lease.deadline a ~cid in
  for beat = 1 to 2 do
    ignore (Lease.tick a);
    Client.heartbeat a;
    Alcotest.(check int)
      (Printf.sprintf "beat %d: deadline = now + ttl" beat)
      (Lease.now a + Lease.ttl a)
      (Lease.deadline a ~cid)
  done;
  Alcotest.(check int) "two ticks later" (d0 + 2) (Lease.deadline a ~cid)

let test_unregister_clears_lease () =
  (* A recycled slot must not be instantly re-suspected off the previous
     occupant's stale deadline. *)
  let arena = Shm.create ~cfg:lease_cfg () in
  let mon = Shm.monitor arena () in
  let a = Shm.join arena () in
  let cid = a.Ctx.cid in
  (* let a's lease go stale relative to the clock, then exit cleanly *)
  ignore (Monitor.check_once mon);
  ignore (Monitor.check_once mon);
  Client.heartbeat a;
  Shm.leave a;
  let svc = Shm.service_ctx arena in
  Alcotest.(check int) "deadline cleared on exit" 0
    (Lease.deadline svc ~cid);
  (* the recycled slot survives a full detection pass right after joining *)
  let a2 = Shm.join arena ~cid () in
  Alcotest.(check (list int)) "fresh occupant not condemned" []
    (Monitor.check_once mon);
  Alcotest.(check bool) "fresh occupant alive" true
    (Client.status a2 ~cid = Client.Alive || Client.status a2 ~cid = Client.Suspected);
  Shm.leave a2

let test_soak_monitor_kill () =
  (* The end-to-end control-plane soak: hung client under load, leader
     killed mid-recovery, follower takeover. *)
  let f = Soak.monitor_kill ~seed:11 () in
  Alcotest.(check bool) "leader crashed mid-recovery" true
    f.Soak.leader_crashed;
  Alcotest.(check bool) "follower finished the recovery" true
    f.Soak.follower_finished;
  Alcotest.(check bool) "post-fsck clean" true f.Soak.fo_clean

let suite =
  [
    Alcotest.test_case "register limits" `Quick test_register_limits;
    Alcotest.test_case "register specific cid" `Quick test_register_specific_cid;
    Alcotest.test_case "clean exit releases segments" `Quick test_clean_exit_releases_segments;
    Alcotest.test_case "monitor detects silence" `Quick test_monitor_detects_silence;
    Alcotest.test_case "suspected then renewed" `Quick test_suspected_then_renewed;
    Alcotest.test_case "hung client condemned" `Quick test_hung_client_condemned;
    Alcotest.test_case "fresh replica detects immediately" `Quick
      test_fresh_replica_detects_immediately;
    Alcotest.test_case "death dump once per incident" `Quick
      test_death_dump_once_per_incident;
    Alcotest.test_case "leader election and abdication" `Quick
      test_leader_election_and_abdication;
    Alcotest.test_case "takeover after leader lease expiry" `Quick
      test_takeover_after_leader_lease_expiry;
    Alcotest.test_case "follower finishes crashed leader recovery" `Quick
      test_follower_finishes_crashed_leader_recovery;
    Alcotest.test_case "unregister clears lease" `Quick test_unregister_clears_lease;
    Alcotest.test_case "monitor background domain" `Quick test_monitor_background_domain;
    Alcotest.test_case "heartbeat monotone" `Quick test_heartbeat_monotone;
    Alcotest.test_case "monitor survives device faults" `Quick test_monitor_survives_device_faults;
    Alcotest.test_case "soak: leader killed, follower drains device" `Quick
      test_soak_monitor_kill;
  ]
