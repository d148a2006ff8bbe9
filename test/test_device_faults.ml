(* Device-level fault injection and the retry/backoff escalation path:
   backend determinism, the four fault classes, arm/disarm servicing
   semantics, Ctx-level retries, escalation, and degraded-device
   allocation steering. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Bf = Cxlshm_shmem.Backend_faulty
module Stats = Cxlshm_shmem.Stats
module Lines = Cxlshm_shmem.Lines
module Latency = Cxlshm_shmem.Latency

let spec ?(seed = 1) ?(rp = 0.) ?(tw = 0.) ?(sw = 0.) ?(offline = []) () =
  { Bf.seed; read_poison = rp; torn_write = tw; stuck_word = sw; offline }

let raw_mem ?(base = Mem.Flat) ?(words = 1024) fault_spec =
  let m =
    Mem.create ~tier:Latency.Cxl
      ~backend:(Mem.Faulty { base; fault_spec })
      ~words ()
  in
  Mem.set_fault_injection m true;
  m

let faulty_cfg ?(base = Mem.Flat) fault_spec =
  { Config.small with Config.backend = Mem.Faulty { base; fault_spec } }

(* ---- backend-level behaviour ---- *)

let test_determinism () =
  let trace m =
    let st = Stats.create () and lines = Lines.create () in
    let faults = ref [] in
    for i = 0 to 499 do
      let addr = 17 * i mod 512 in
      try
        if i mod 2 = 0 then ignore (Mem.load m ~st ~lines addr)
        else Mem.store m ~st ~lines addr i
      with Mem.Device_error { addr; fault; transient; _ } ->
        faults := (i, addr, fault, transient) :: !faults
    done;
    (List.rev !faults, Mem.injected_faults m)
  in
  let s = spec ~seed:42 ~rp:0.02 ~tw:0.01 ~sw:0.005 ~offline:[ (0, 100, 120) ] () in
  let t1, c1 = trace (raw_mem s) in
  let t2, c2 = trace (raw_mem s) in
  Alcotest.(check bool) "some faults fired" true (t1 <> []);
  Alcotest.(check bool) "identical fault traces" true (t1 = t2);
  Alcotest.(check bool) "identical per-class counts" true (c1 = c2);
  let t3, _ = trace (raw_mem { s with Bf.seed = 43 }) in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

let test_read_poison () =
  let m = raw_mem (spec ~rp:1.0 ()) in
  let st = Stats.create () and lines = Lines.create () in
  (match Mem.load m ~st ~lines 5 with
  | _ -> Alcotest.fail "poisoned load returned data"
  | exception Mem.Device_error { fault; transient; _ } ->
      Alcotest.(check bool) "class" true (fault = Mem.Read_poison);
      Alcotest.(check bool) "transient" true transient);
  (* nothing corrupted: the data is fine once the line is healthy *)
  Mem.set_fault_injection m false;
  Alcotest.(check int) "memory intact" 0 (Mem.unsafe_peek m 5)

let test_torn_write () =
  let m = raw_mem (spec ~tw:1.0 ()) in
  let st = Stats.create () and lines = Lines.create () in
  Mem.set_fault_injection m false;
  Mem.unsafe_poke m 7 0xABCD00000005;
  Mem.set_fault_injection m true;
  (match Mem.store m ~st ~lines 7 0x1111 with
  | () -> Alcotest.fail "torn store reported success"
  | exception Mem.Device_error { fault; transient; _ } ->
      Alcotest.(check bool) "class" true (fault = Mem.Torn_write);
      Alcotest.(check bool) "transient" true transient);
  Mem.set_fault_injection m false;
  (* low half of the new value, high half of the old: the tear IS in memory *)
  Alcotest.(check int) "torn word" 0xABCD00001111 (Mem.unsafe_peek m 7);
  (* a retry overwrites the tear *)
  Mem.store m ~st ~lines 7 0x2222;
  Alcotest.(check int) "retry heals" 0x2222 (Mem.unsafe_peek m 7)

let test_stuck_word () =
  let m = raw_mem (spec ~sw:1.0 ()) in
  let st = Stats.create () and lines = Lines.create () in
  (match Mem.store m ~st ~lines 9 55 with
  | () -> Alcotest.fail "stuck store reported success"
  | exception Mem.Device_error { fault; transient; _ } ->
      Alcotest.(check bool) "class" true (fault = Mem.Stuck_word);
      Alcotest.(check bool) "persistent" false transient);
  (* the store was dropped and the address stays stuck *)
  (match Mem.store m ~st ~lines 9 56 with
  | () -> Alcotest.fail "second store to stuck word succeeded"
  | exception Mem.Device_error { fault; _ } ->
      Alcotest.(check bool) "still stuck" true (fault = Mem.Stuck_word));
  (* servicing the device replaces the stuck media: the swallowed values
     are gone, but stores land again *)
  Mem.set_fault_injection m false;
  Alcotest.(check int) "stores were dropped" 0 (Mem.unsafe_peek m 9);
  Mem.store m ~st ~lines 9 57;
  Alcotest.(check int) "post-service store lands" 57 (Mem.unsafe_peek m 9)

let test_offline_window () =
  let m = raw_mem (spec ~offline:[ (0, 0, 3) ] ()) in
  let st = Stats.create () and lines = Lines.create () in
  for i = 1 to 3 do
    match Mem.load m ~st ~lines 0 with
    | _ -> Alcotest.failf "op %d inside the window succeeded" i
    | exception Mem.Device_error { fault; transient; _ } ->
        Alcotest.(check bool) "offline" true (fault = Mem.Offline);
        Alcotest.(check bool) "transient" true transient
  done;
  (* the window has passed: the device is back *)
  Alcotest.(check int) "post-window load" 0 (Mem.load m ~st ~lines 0)

let test_disarmed_is_quiet () =
  let m =
    Mem.create ~tier:Latency.Cxl
      ~backend:(Mem.Faulty { base = Mem.Flat; fault_spec = spec ~rp:1.0 ~tw:1.0 ~sw:1.0 () })
      ~words:256 ()
  in
  (* a Faulty pool starts disarmed: setup traffic never faults *)
  Alcotest.(check bool) "starts disarmed" false (Mem.fault_injection_armed m);
  let st = Stats.create () and lines = Lines.create () in
  for i = 0 to 63 do
    Mem.store m ~st ~lines i i;
    Alcotest.(check int) "quiet round-trip" i (Mem.load m ~st ~lines i)
  done;
  Alcotest.(check bool) "nothing injected" true
    (List.for_all (fun (_, n) -> n = 0) (Mem.injected_faults m))

(* ---- the retry/backoff layer ---- *)

let dev_err ~transient =
  Mem.Device_error
    {
      dev = 3;
      addr = 0;
      fault = (if transient then Mem.Read_poison else Mem.Stuck_word);
      transient;
    }

(* A word primitive's shape: one attempt of [f], and the retry ladder
   entered only from its fault handler, as [Ctx.load] does. *)
let retried ?policy ~st ~on_escalate f =
  try f ()
  with Mem.Device_error { dev; transient; _ } as e ->
    Retry.after_fault ?policy ~st ~on_escalate ~dev ~transient e f

let test_retry_transient_heals () =
  let st = Stats.create () in
  let escalated = ref None in
  let calls = ref 0 in
  let v =
    retried ~st ~on_escalate:(fun ~dev -> escalated := Some dev) (fun () ->
        incr calls;
        if !calls < 3 then raise (dev_err ~transient:true) else 7)
  in
  Alcotest.(check int) "result" 7 v;
  Alcotest.(check int) "attempts" 3 !calls;
  Alcotest.(check int) "faults counted" 2 st.Stats.dev_faults;
  Alcotest.(check int) "retries counted" 2 st.Stats.retries;
  Alcotest.(check bool) "backoff accumulated" true (st.Stats.backoff_ns > 0.);
  Alcotest.(check int) "no escalation" 0 st.Stats.fault_escalations;
  Alcotest.(check bool) "no device blamed" true (!escalated = None)

let test_retry_exhaustion_escalates () =
  let st = Stats.create () in
  let escalated = ref None in
  let calls = ref 0 in
  let policy = { Retry.default_policy with Retry.max_attempts = 3 } in
  (match
     retried ~policy ~st
       ~on_escalate:(fun ~dev -> escalated := Some dev)
       (fun () ->
         incr calls;
         raise (dev_err ~transient:true))
   with
  | _ -> Alcotest.fail "exhausted retries must re-raise"
  | exception Mem.Device_error _ -> ());
  Alcotest.(check int) "bounded attempts" 3 !calls;
  Alcotest.(check int) "escalated once" 1 st.Stats.fault_escalations;
  Alcotest.(check (option int)) "device blamed" (Some 3) !escalated

let test_retry_persistent_escalates_immediately () =
  let st = Stats.create () in
  let calls = ref 0 in
  (match
     retried ~st ~on_escalate:(fun ~dev:_ -> ()) (fun () ->
         incr calls;
         raise (dev_err ~transient:false))
   with
  | _ -> Alcotest.fail "persistent fault must re-raise"
  | exception Mem.Device_error { transient; _ } ->
      Alcotest.(check bool) "persistent" false transient);
  Alcotest.(check int) "no retry" 1 !calls;
  Alcotest.(check int) "no retries counted" 0 st.Stats.retries

(* Regression: the retry ladder used to spin through its exponential
   backoff without charging the stall to the modeled clock, so a
   fault-ridden run reported the same modeled time as a clean one.
   backoff_ns must now be a first-class component of the Fig 7 breakdown
   and of modeled_ns. *)
let test_backoff_charged_to_modeled_clock () =
  let st = Stats.create () in
  let calls = ref 0 in
  ignore
    (retried ~st ~on_escalate:(fun ~dev:_ -> ()) (fun () ->
         incr calls;
         if !calls < 4 then raise (dev_err ~transient:true) else 0));
  let model = Latency.of_tier Latency.Cxl in
  let access, fence, flush, backoff = Stats.breakdown_ns model st in
  Alcotest.(check bool) "backoff component present" true (backoff > 0.);
  Alcotest.(check bool) "backoff equals the accumulated stall" true
    (Float.abs (backoff -. st.Stats.backoff_ns) < 1e-9);
  let total = Stats.modeled_ns model st in
  Alcotest.(check bool) "breakdown sums to modeled_ns" true
    (Float.abs (total -. (access +. fence +. flush +. backoff)) < 1e-6);
  (* the same fault-free work is strictly cheaper: the stall is real time *)
  Alcotest.(check bool) "modeled clock includes the stall" true
    (total >= st.Stats.backoff_ns)

let test_ctx_retries_absorb_poison () =
  let cfg = faulty_cfg (spec ~seed:5 ~rp:0.2 ()) in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  Shm.set_fault_injection arena true;
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  for i = 0 to 199 do
    Cxl_ref.write_word r 0 i;
    Alcotest.(check int) "read back through poison" i (Cxl_ref.read_word r 0)
  done;
  Alcotest.(check bool) "faults were injected" true (a.Ctx.st.Stats.dev_faults > 0);
  Alcotest.(check bool) "retries absorbed them" true (a.Ctx.st.Stats.retries > 0);
  Alcotest.(check int) "nothing escalated" 0 a.Ctx.st.Stats.fault_escalations;
  Shm.set_fault_injection arena false;
  Cxl_ref.drop r;
  Shm.leave a;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_escalation_marks_degraded () =
  let cfg =
    faulty_cfg
      ~base:(Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] })
      (spec ~sw:1.0 ())
  in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  Shm.set_fault_injection arena true;
  let failed_dev =
    match Shm.cxl_malloc a ~size_bytes:16 () with
    | _ -> Alcotest.fail "allocation on all-stuck media succeeded"
    | exception Mem.Device_error { dev; transient; _ } ->
        Alcotest.(check bool) "persistent" false transient;
        dev
  in
  Alcotest.(check bool) "escalation recorded" true
    (a.Ctx.st.Stats.fault_escalations > 0);
  Alcotest.(check bool) "device marked degraded" true
    (Ctx.device_degraded a failed_dev);
  Alcotest.(check (list int)) "bitmap readable from any ctx" [ failed_dev ]
    (Ctx.degraded_devices (Shm.service_ctx arena));
  (* the client fail-stops; service the device and recover it *)
  Shm.set_fault_injection arena false;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
  Ctx.clear_degraded svc;
  Alcotest.(check (list int)) "bitmap cleared" [] (Ctx.degraded_devices svc);
  Alcotest.(check bool) "clean after recovery" true
    (Validate.is_clean (Shm.validate arena))

let test_degraded_steering () =
  let cfg =
    {
      Config.small with
      Config.backend = Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] };
    }
  in
  let arena = Shm.create ~cfg () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena ~cid:2 () in
  Alcotest.(check int) "home device" 2 a.Ctx.home_dev;
  Ctx.mark_degraded svc 2;
  let held = List.init 30 (fun _ -> Shm.cxl_malloc a ~size_bytes:48 ()) in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "segment %d steered off degraded device" s)
        true
        (Alloc.segment_device a s <> 2))
    (Segment.owned_by a ~cid:a.Ctx.cid);
  List.iter Cxl_ref.drop held;
  Ctx.clear_degraded svc;
  Shm.leave a;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

(* A degraded device takes no new placements, but what is already on it
   stays there and keeps working for its holders; with nothing healthy
   left, allocation spills onto degraded pages instead of failing. *)
let test_degraded_data_stays () =
  let cfg =
    {
      Config.small with
      Config.backend = Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] };
    }
  in
  let arena = Shm.create ~cfg () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let dev_of obj =
    Alloc.segment_device a (Layout.segment_of_addr (Shm.layout arena) obj)
  in
  let h = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word h 0 0xBEEF;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let obj = Cxl_ref.obj h and qobj = Cxl_ref.obj (Transfer.queue_ref q) in
  Ctx.mark_degraded svc (dev_of obj);
  Ctx.mark_degraded svc (dev_of qobj);
  Alcotest.(check int) "block readable in place" 0xBEEF (Cxl_ref.read_word h 0);
  Cxl_ref.write_word h 0 0xFACE;
  Alcotest.(check int) "block writable in place" 0xFACE (Cxl_ref.read_word h 0);
  let payload = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.write_word payload 0 77;
  Alcotest.(check bool) "send" true (Transfer.send q payload = Transfer.Sent);
  (match Transfer.open_from b ~sender:a.Ctx.cid with
  | None -> Alcotest.fail "receiver cannot open the queue"
  | Some qb -> (
      match Transfer.receive qb with
      | Transfer.Received got ->
          Alcotest.(check int) "payload through queue" 77
            (Cxl_ref.read_word got 0);
          Cxl_ref.drop got;
          Transfer.close qb
      | _ -> Alcotest.fail "receive failed"));
  Alcotest.(check bool) "block did not move" true (Cxl_ref.obj h = obj);
  Alcotest.(check bool) "queue did not move" true
    (Cxl_ref.obj (Transfer.queue_ref q) = qobj);
  for d = 0 to 3 do
    Ctx.mark_degraded svc d
  done;
  (* A fresh client owns no segment: every allocation claims one. *)
  let c = Shm.join arena () in
  let spilled =
    List.init 20 (fun i ->
        let r = Shm.cxl_malloc c ~size_bytes:48 () in
        Cxl_ref.write_word r 0 i;
        r)
  in
  List.iteri
    (fun i r ->
      Alcotest.(check int) "spilled block holds its word" i
        (Cxl_ref.read_word r 0))
    spilled;
  Alcotest.(check bool) "spilled onto a claimed segment" true
    (Segment.owned_by c ~cid:c.Ctx.cid <> []);
  List.iter Cxl_ref.drop spilled;
  Cxl_ref.drop payload;
  Cxl_ref.drop h;
  Transfer.close q;
  Shm.leave c;
  Ctx.clear_degraded svc;
  Alcotest.(check bool) "validate clean" true
    (Validate.is_clean (Shm.validate arena));
  Alcotest.(check bool) "fsck clean" true (Fsck.clean (Shm.fsck arena))

let suite =
  [
    Alcotest.test_case "deterministic schedule" `Quick test_determinism;
    Alcotest.test_case "read poison" `Quick test_read_poison;
    Alcotest.test_case "torn write" `Quick test_torn_write;
    Alcotest.test_case "stuck word" `Quick test_stuck_word;
    Alcotest.test_case "offline window" `Quick test_offline_window;
    Alcotest.test_case "disarmed is quiet" `Quick test_disarmed_is_quiet;
    Alcotest.test_case "retry: transient heals" `Quick test_retry_transient_heals;
    Alcotest.test_case "retry: exhaustion escalates" `Quick test_retry_exhaustion_escalates;
    Alcotest.test_case "retry: persistent escalates" `Quick test_retry_persistent_escalates_immediately;
    Alcotest.test_case "backoff charged to modeled clock" `Quick
      test_backoff_charged_to_modeled_clock;
    Alcotest.test_case "ctx retries absorb poison" `Quick test_ctx_retries_absorb_poison;
    Alcotest.test_case "escalation marks degraded" `Quick test_escalation_marks_degraded;
    Alcotest.test_case "degraded steering" `Quick test_degraded_steering;
    Alcotest.test_case "degraded data stays in place" `Quick
      test_degraded_data_stays;
  ]
