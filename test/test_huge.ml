(* Huge objects: contiguous segment runs, §5.1 retry-and-rollback claim,
   sharing, recovery, the true-length slot, and the tail-first free
   protocol's crash windows. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats

let cfg = Config.small
let setup () =
  let arena = Shm.create ~cfg () in
  (arena, Shm.join arena (), Shm.join arena ())

let huge_words = Config.max_class_data_words cfg + 100

let test_single_segment_huge () =
  let arena, a, _ = setup () in
  let r = Shm.cxl_malloc_words a ~data_words:huge_words () in
  for i = 0 to huge_words - 1 do
    Cxl_ref.write_word r i (i * 3)
  done;
  for i = 0 to huge_words - 1 do
    if Cxl_ref.read_word r i <> i * 3 then Alcotest.fail "payload corrupted"
  done;
  Cxl_ref.drop r;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_multi_segment_huge () =
  let arena, a, _ = setup () in
  let lay = Shm.layout arena in
  (* warm up so the RootRef-page segment is already claimed *)
  let warm = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.drop warm;
  (* bigger than one segment: spans a contiguous run *)
  let words = lay.Layout.segment_words + 500 in
  let before = Shm.free_segments arena in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  Alcotest.(check bool) "multiple segments claimed" true
    (before - Shm.free_segments arena >= 2);
  Cxl_ref.write_word r (words - 1) 424242;
  Alcotest.(check int) "last word across segments" 424242
    (Cxl_ref.read_word r (words - 1));
  Cxl_ref.drop r;
  Alcotest.(check int) "segments returned" before (Shm.free_segments arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_huge_shared_across_clients () =
  let arena, a, b = setup () in
  let r = Shm.cxl_malloc_words a ~data_words:huge_words () in
  Cxl_ref.write_word r 5 999;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  assert (Transfer.send q r = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb = match Transfer.receive qb with Transfer.Received x -> x | _ -> assert false in
  Alcotest.(check int) "b reads huge" 999 (Cxl_ref.read_word rb 5);
  Cxl_ref.drop r;
  (* b keeps the huge object alive after a's reference is gone *)
  Alcotest.(check int) "count 1" 1 (Refc.ref_cnt b (Cxl_ref.obj rb));
  Cxl_ref.drop rb;
  Transfer.close q;
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_huge_owner_crash () =
  let arena, a, _ = setup () in
  let before = Shm.free_segments arena in
  let _r = Shm.cxl_malloc_words a ~data_words:huge_words () in
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check int) "segments recovered" before (Shm.free_segments arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_huge_survives_owner_crash_when_shared () =
  let arena, a, b = setup () in
  let r = Shm.cxl_malloc_words a ~data_words:huge_words () in
  Cxl_ref.write_word r 0 31337;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  assert (Transfer.send q r = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb = match Transfer.receive qb with Transfer.Received x -> x | _ -> assert false in
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  Alcotest.(check int) "huge data intact" 31337 (Cxl_ref.read_word rb 0);
  Cxl_ref.drop rb;
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_huge_oom () =
  let arena, a, _ = setup () in
  let lay = Shm.layout arena in
  Alcotest.check_raises "run larger than arena" Alloc.Out_of_shared_memory
    (fun () ->
      ignore
        (Shm.cxl_malloc_words a
           ~data_words:(lay.Layout.segment_words * (cfg.Config.num_segments + 1))
           ()));
  (* a fragmented arena cannot host a full-run huge object *)
  let blockers =
    List.init cfg.Config.num_segments (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ())
  in
  ignore blockers;
  ignore arena

(* ---- the true-length slot (the 2^24-1 truncation bug) ---- *)

(* Regression: data_words used to be truncated to the packed meta field's
   width. A request past [Obj_header.max_meta_data_words] must keep its
   exact size via the head page's aux2 slot — before the fix this test
   failed with a short [data_words] and an out-of-bounds last word. *)
let test_true_length_beyond_meta () =
  let cfg =
    {
      Config.small with
      Config.backend = Mem.Counting_fast;
      (* the run needs 8 of these 8M-word segments; 17 guarantees a
         contiguous 8-run survives wherever the RootRef page's randomly
         placed segment lands *)
      num_segments = 17;
      pages_per_segment = 1;
      page_words = 1 lsl 23;
    }
  in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let dw = Obj_header.max_meta_data_words + 9 in
  let r = Shm.cxl_malloc_words a ~data_words:dw () in
  Alcotest.(check int) "exact size survives saturation" dw
    (Cxl_ref.data_words r);
  Cxl_ref.write_word r (dw - 1) 77;
  Cxl_ref.write_word r 0 76;
  Alcotest.(check int) "last word addressable" 77
    (Cxl_ref.read_word r (dw - 1));
  Alcotest.(check int) "first word intact" 76 (Cxl_ref.read_word r 0);
  (match Cxl_ref.read_word r dw with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "one past the true length must raise");
  (* The handle is warm: its memo must hold the [page_aux2] length, not the
     saturated packed field, and serve it without reading either again, or
     the RootRef. *)
  let meta = Ctx.load a (Obj_header.meta_of_obj (Cxl_ref.obj r)) in
  Alcotest.(check int) "packed field saturated" Obj_header.max_meta_data_words
    (Obj_header.meta_data_words meta);
  let before = Stats.total_accesses a.Ctx.st in
  Alcotest.(check int) "warm: last word accepted" 77
    (Cxl_ref.read_word r (dw - 1));
  Alcotest.(check int) "warm: one word" 1
    (Stats.total_accesses a.Ctx.st - before);
  (match Cxl_ref.read_word r dw with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "warm: one past the true length must raise");
  Cxl_ref.drop r;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

(* Validate cross-checks the true-length slot against
   the packed meta word and the claimed run. *)
let test_crosscheck_true_length () =
  let arena, a, _ = setup () in
  let lay = Shm.layout arena in
  let words = lay.Layout.segment_words + 500 in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  let mem = Shm.mem arena in
  let head = Layout.segment_of_addr lay (Cxl_ref.obj r) in
  let aux2 = Layout.page_aux2 lay ~gid:(Layout.page_gid lay ~seg:head ~page:0) in
  let truth = Mem.unsafe_peek mem aux2 in
  Alcotest.(check int) "slot records the request" words truth;
  Mem.unsafe_poke mem aux2 3;
  Alcotest.(check bool) "fsck flags the lie" false
    (Validate.is_clean (Validate.run mem lay));
  Mem.unsafe_poke mem aux2 truth;
  Alcotest.(check bool) "clean once restored" true
    (Validate.is_clean (Validate.run mem lay));
  Cxl_ref.drop r

(* The offline repairer re-derives a sane length from the packed meta
   word when the slot lies. (Repair sweeps every recorded client, so it
   also reclaims everything the test clients held.) *)
let test_fsck_repairs_lying_true_length () =
  let arena, a, _ = setup () in
  let before = Shm.free_segments arena in
  let lay = Shm.layout arena in
  let words = lay.Layout.segment_words + 500 in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  let head = Segment.owned_by a ~cid:a.Ctx.cid in
  ignore head;
  let seg = Layout.segment_of_addr lay (Cxl_ref.obj r) in
  let aux2 = Layout.page_aux2 lay ~gid:(Layout.page_gid lay ~seg ~page:0) in
  Mem.unsafe_poke (Shm.mem arena) aux2 3;
  let rep = Shm.fsck arena in
  Alcotest.(check bool) "repair verdict clean" true (Fsck.clean rep);
  Alcotest.(check int) "everything reclaimed by the sweep" before
    (Shm.free_segments arena)

(* ---- crash windows of the tail-first free (reset-before-release bug) ---- *)

(* Regression: free_huge used to wipe the head metadata before releasing
   the tail segments, so a crash mid-free left continuation segments that
   nothing could size or find. Now the head stays intact until the tails
   are back; recovery must finish the half-freed run at either window. *)
let crash_free_huge point () =
  let arena, a, _ = setup () in
  let lay = Shm.layout arena in
  let words = lay.Layout.segment_words + 500 in
  let before = Shm.free_segments arena in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  a.Ctx.fault <- Fault.at point ~nth:1;
  (try
     Cxl_ref.drop r;
     Alcotest.fail "expected crash"
   with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check int) "segments all returned" before
    (Shm.free_segments arena);
  Alcotest.(check bool) "validate clean" true
    (Validate.is_clean (Shm.validate arena))

(* Same half-freed run, but no targeted recovery: the offline repairer
   alone must finish releasing it. *)
let test_fsck_finishes_half_freed_run () =
  let arena, a, _ = setup () in
  let lay = Shm.layout arena in
  let words = lay.Layout.segment_words + 500 in
  let before = Shm.free_segments arena in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  a.Ctx.fault <- Fault.at Fault.Free_huge_mid_release ~nth:1;
  (try
     Cxl_ref.drop r;
     Alcotest.fail "expected crash"
   with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  let rep = Shm.fsck arena in
  Alcotest.(check bool) "repair verdict clean" true (Fsck.clean rep);
  Alcotest.(check int) "half-freed run fully released" before
    (Shm.free_segments arena)

(* ---- degraded-device placement (claim-order bug) ---- *)

(* Regression: claim_huge_run used to walk the arena head-first ignoring
   the degraded bitmap, so a fresh run could land on a device recovery had
   already given up on. The Healthy pass must now steer whole runs off
   degraded devices whenever such a run exists. *)
let test_huge_run_avoids_degraded_device () =
  let cfg =
    {
      Config.small with
      Config.backend =
        Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] };
    }
  in
  let arena = Shm.create ~cfg () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  (* claim the RootRef-page segment before degrading anything *)
  let warm = Shm.cxl_malloc a ~size_bytes:8 () in
  let owned_before = Segment.owned_by a ~cid:a.Ctx.cid in
  Ctx.mark_degraded svc 2;
  let words = (Shm.layout arena).Layout.segment_words + 500 in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  List.iter
    (fun s ->
      if not (List.mem s owned_before) then
        Alcotest.(check bool)
          (Printf.sprintf "segment %d of the run avoids the degraded device"
             s)
          true
          (Alloc.segment_device a s <> 2))
    (Segment.owned_by a ~cid:a.Ctx.cid);
  Cxl_ref.drop r;
  Cxl_ref.drop warm;
  Ctx.clear_degraded svc;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

(* The same windows under the schedule explorer: seeded-random schedules
   of two clients racing two-segment allocate/free cycles, with a crash
   injected at any labeled point (including both free_huge windows),
   recovery, and the full invariant oracle after every schedule. *)
let test_sched_huge_crashes () =
  let module Explore = Cxlshm_check.Explore in
  let m = Cxlshm_check.Scenarios.huge () in
  let r =
    Explore.random ~seed:3 ~schedules:40 ~crash:true ~max_steps:40_000 m
  in
  (match r.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s (replay: %s)" f.Explore.reason
        (Cxlshm_check.Schedule.to_string f.Explore.schedule));
  Alcotest.(check bool) "some schedules actually crashed" true
    (r.Explore.crashes_injected > 0)

(* ---- property: alloc/free round-trips across backends ---- *)

let prop_roundtrip backend name =
  QCheck.Test.make ~name ~count:30 Generators.huge_program (fun prog ->
      let cfg = { Config.small with Config.backend = backend } in
      let arena = Shm.create ~cfg () in
      let a = Shm.join arena () in
      (* warm up so the RootRef-page segment stays claimed throughout *)
      Cxl_ref.drop (Shm.cxl_malloc a ~size_bytes:8 ());
      let seg = (Shm.layout arena).Layout.segment_words in
      let before = Shm.free_segments arena in
      let held = ref [] in
      let alloc dw =
        try Some (Shm.cxl_malloc_words a ~data_words:dw ())
        with Alloc.Out_of_shared_memory -> None
      in
      List.iter
        (fun (segs, extra, hold) ->
          let dw = max 1 ((segs * seg) + extra) in
          match alloc dw with
          | None ->
              (* fragmented/full: dropping what we hold must make room *)
              List.iter Cxl_ref.drop !held;
              held := []
          | Some r ->
              Cxl_ref.write_word r 0 42;
              Cxl_ref.write_word r (dw - 1) 43;
              if Cxl_ref.data_words r <> dw then
                Alcotest.failf "data_words %d, want %d" (Cxl_ref.data_words r)
                  dw;
              if hold then held := r :: !held
              else begin
                if Cxl_ref.read_word r 0 <> 42 || Cxl_ref.read_word r (dw - 1) <> 43
                then Alcotest.fail "payload corrupted";
                Cxl_ref.drop r
              end)
        prog;
      List.iter Cxl_ref.drop !held;
      Shm.free_segments arena = before
      && Validate.is_clean (Shm.validate arena))

let prop_roundtrip_flat = prop_roundtrip Mem.Flat "huge roundtrips (flat)"

let prop_roundtrip_striped =
  prop_roundtrip
    (Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] })
    "huge roundtrips (striped)"

let suite =
  [
    Alcotest.test_case "single-segment huge" `Quick test_single_segment_huge;
    Alcotest.test_case "multi-segment huge" `Quick test_multi_segment_huge;
    Alcotest.test_case "huge shared across clients" `Quick test_huge_shared_across_clients;
    Alcotest.test_case "huge owner crash" `Quick test_huge_owner_crash;
    Alcotest.test_case "huge survives crash when shared" `Quick test_huge_survives_owner_crash_when_shared;
    Alcotest.test_case "huge OOM" `Quick test_huge_oom;
    Alcotest.test_case "true length beyond meta saturation" `Quick
      test_true_length_beyond_meta;
    Alcotest.test_case "fsck cross-checks true length" `Quick
      test_crosscheck_true_length;
    Alcotest.test_case "fsck repairs a lying true length" `Quick
      test_fsck_repairs_lying_true_length;
    Alcotest.test_case "crash mid tail release" `Quick
      (crash_free_huge Fault.Free_huge_mid_release);
    Alcotest.test_case "crash after head reset" `Quick
      (crash_free_huge Fault.Free_huge_after_reset);
    Alcotest.test_case "fsck finishes a half-freed run" `Quick
      test_fsck_finishes_half_freed_run;
    Alcotest.test_case "huge run avoids degraded device" `Quick
      test_huge_run_avoids_degraded_device;
    Alcotest.test_case "free windows under the schedule explorer" `Quick
      test_sched_huge_crashes;
    Generators.to_alcotest prop_roundtrip_flat;
    Generators.to_alcotest prop_roundtrip_striped;
  ]
