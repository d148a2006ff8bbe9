(* Live segment evacuation: basic object moves off degraded devices,
   directory pinning, no-space behaviour, huge runs, client-side rootref
   relocation, and the crash-resume/identity-preservation path through the
   migration journal (Evac_* crash points). *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem

let striped_cfg ?(devices = 4) () =
  {
    Config.small with
    Config.backend = Mem.Striped { devices; stripe_words = 0; tiers = [||] };
  }

let seg_of arena addr = Layout.segment_of_addr (Shm.layout arena) addr
let dev_of arena ctx addr = Alloc.segment_device ctx (seg_of arena addr)

let check_clean arena label =
  Alcotest.(check bool) (label ^ ": validate clean") true
    (Validate.is_clean (Shm.validate arena));
  Alcotest.(check bool) (label ^ ": fsck clean") true
    (Fsck.clean (Shm.fsck arena))

(* ---- basic move: every holder lands on the same replacement ---- *)

let test_basic_move () =
  let arena = Shm.create ~cfg:(striped_cfg ()) () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word child 0 0xBEEF;
  let parent = Shm.cxl_malloc b ~size_bytes:8 ~emb_cnt:1 () in
  Cxl_ref.set_emb parent 0 child;
  let obj0 = Cxl_ref.obj child in
  let dev = dev_of arena a obj0 in
  Ctx.mark_degraded svc dev;
  let r = Shm.evacuate arena in
  Alcotest.(check bool) "moved something" true (r.Evacuate.moved >= 1);
  Alcotest.(check (list string)) "no errors" [] r.Evacuate.errors;
  let obj1 = Cxl_ref.obj child in
  Alcotest.(check bool) "object left the old block" true (obj1 <> obj0);
  Alcotest.(check bool) "replacement is on a healthy device" true
    (dev_of arena a obj1 <> dev);
  Alcotest.(check bool) "both holders agree on one copy" true
    (Cxl_ref.get_emb parent 0 = obj1);
  Alcotest.(check int) "payload intact" 0xBEEF (Cxl_ref.read_word child 0);
  Cxl_ref.drop parent;
  Cxl_ref.drop child;
  Ctx.clear_degraded svc;
  check_clean arena "basic move"

(* ---- directory-held objects are pinned, and stay functional ---- *)

let test_directory_pinned () =
  let arena = Shm.create ~cfg:(striped_cfg ()) () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let qobj = Cxl_ref.obj (Transfer.queue_ref q) in
  Ctx.mark_degraded svc (dev_of arena a qobj);
  let r = Shm.evacuate arena in
  Alcotest.(check bool) "queue object pinned" true (r.Evacuate.pinned >= 1);
  Alcotest.(check bool) "queue object did not move" true
    (Cxl_ref.obj (Transfer.queue_ref q) = qobj);
  (* The queue still works across the sweep. *)
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
  Cxl_ref.drop payload;
  Transfer.close q;
  Ctx.clear_degraded svc;
  check_clean arena "directory pinned"

(* ---- every device degraded: nothing healthy to move to ---- *)

let test_no_space () =
  let arena = Shm.create ~cfg:(striped_cfg ~devices:2 ()) () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let h = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word h 0 31337;
  let obj0 = Cxl_ref.obj h in
  Ctx.mark_degraded svc 0;
  Ctx.mark_degraded svc 1;
  let r = Shm.evacuate arena in
  Alcotest.(check int) "nothing moved" 0 r.Evacuate.moved;
  Alcotest.(check bool) "no-space reported" true (r.Evacuate.no_space >= 1);
  Alcotest.(check bool) "object untouched" true (Cxl_ref.obj h = obj0);
  Alcotest.(check int) "payload untouched" 31337 (Cxl_ref.read_word h 0);
  Cxl_ref.drop h;
  Ctx.clear_degraded svc;
  check_clean arena "no space"

(* ---- huge run off a degraded device ---- *)

let test_huge_move () =
  let arena = Shm.create ~cfg:(striped_cfg ()) () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  (* keep the RootRef-page segment claimed across the churn *)
  let warm = Shm.cxl_malloc a ~size_bytes:8 () in
  let words = (Shm.layout arena).Layout.segment_words + 100 in
  let h = Shm.cxl_malloc_words a ~data_words:words () in
  Cxl_ref.write_word h 0 11;
  Cxl_ref.write_word h (words - 1) 22;
  let obj0 = Cxl_ref.obj h in
  let dev = dev_of arena a obj0 in
  Ctx.mark_degraded svc dev;
  let r = Shm.evacuate arena in
  Alcotest.(check bool) "run moved" true (r.Evacuate.moved >= 1);
  let obj1 = Cxl_ref.obj h in
  Alcotest.(check bool) "new run" true (obj1 <> obj0);
  Alcotest.(check int) "first word" 11 (Cxl_ref.read_word h 0);
  Alcotest.(check int) "last word" 22 (Cxl_ref.read_word h (words - 1));
  (* no segment of the replacement run touches the degraded device *)
  let head_seg = seg_of arena obj1 in
  for k = 0 to Heap.huge_span ~read:(Ctx.load a) (Shm.layout arena) head_seg - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "run segment %d healthy" (head_seg + k))
      true
      (Alloc.segment_device a (head_seg + k) <> dev)
  done;
  Cxl_ref.drop h;
  Cxl_ref.drop warm;
  Ctx.clear_degraded svc;
  check_clean arena "huge move"

(* ---- client-side relocation fully drains the device ---- *)

let test_relocate_own_drains_device () =
  let arena = Shm.create ~cfg:(striped_cfg ()) () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let h = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word h 0 4242;
  (* degrade the device holding the RootRef block itself: only the owner
     can move that (the monitor sweep pins it) *)
  let dev = dev_of arena a (Cxl_ref.rootref h) in
  Ctx.mark_degraded svc dev;
  let rep = Evacuate.relocate_own a in
  Alcotest.(check (list string)) "no errors" [] rep.Evacuate.errors;
  (* patch handles whose rootref moved *)
  let h =
    match List.assoc_opt (Cxl_ref.rootref h) rep.Evacuate.remapped with
    | Some rr2 -> Cxl_ref.of_rootref a rr2
    | None -> h
  in
  (* a monitor sweep mops up anything the client did not own *)
  ignore (Shm.evacuate arena);
  Alcotest.(check (list int)) "zero live segments on the degraded device" []
    (Evacuate.live_segments_on svc ~dev);
  Alcotest.(check int) "payload intact through the remapped handle" 4242
    (Cxl_ref.read_word h 0);
  Cxl_ref.drop h;
  Ctx.clear_degraded svc;
  check_clean arena "relocate own"

(* ---- evacuator crash at each Evac_* point: recovery cleans up, the next
   sweep breaks the dead claim, resumes the migration journal, and finishes
   the move without forking object identity ---- *)

let crash_resume point () =
  let arena = Shm.create ~cfg:(striped_cfg ()) () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word child 0 0xFACE;
  let parent = Shm.cxl_malloc b ~size_bytes:8 ~emb_cnt:1 () in
  Cxl_ref.set_emb parent 0 child;
  let obj0 = Cxl_ref.obj child in
  let dev = dev_of arena a obj0 in
  Ctx.mark_degraded svc dev;
  let w = Shm.join arena () in
  w.Ctx.fault <- Fault.at point ~nth:1;
  (match Evacuate.evacuate_obj w ~obj:obj0 with
  | exception Fault.Crashed _ -> ()
  | _ -> Alcotest.fail "evacuator did not crash");
  (* The dead evacuator's guard and bootstrap rootrefs are ordinary slot
     state: standard client recovery releases them. The sweep claim stays
     behind on purpose (a dead process cleans up nothing). *)
  Client.declare_failed svc ~cid:w.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:w.Ctx.cid);
  Alcotest.(check bool) "clean after evacuator recovery" true
    (Validate.is_clean (Shm.validate arena));
  ignore (Shm.evacuate arena);
  let obj1 = Cxl_ref.obj child in
  Alcotest.(check bool) "moved off the degraded device" true
    (dev_of arena a obj1 <> dev);
  Alcotest.(check bool) "holders agree on a single copy" true
    (Cxl_ref.get_emb parent 0 = obj1);
  Alcotest.(check int) "payload survived" 0xFACE (Cxl_ref.read_word child 0);
  Cxl_ref.drop parent;
  Cxl_ref.drop child;
  Ctx.clear_degraded svc;
  check_clean arena "crash resume"

(* ---- an evacuator killed inside a re-point swap keeps its claim until
   recovery has resolved that swap: a peer that resumed the journal first
   would re-point the half-swapped holder a second time. Once recovered,
   the claim is breakable even after the slot is registered again ---- *)

let test_claim_held_until_recovery () =
  let arena = Shm.create ~cfg:(striped_cfg ()) () in
  let svc = Shm.service_ctx arena in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word child 0 0xBEEF;
  let parent = Shm.cxl_malloc b ~size_bytes:8 ~emb_cnt:1 () in
  Cxl_ref.set_emb parent 0 child;
  let obj0 = Cxl_ref.obj child in
  Ctx.mark_degraded svc (dev_of arena a obj0);
  let w = Shm.join arena () in
  w.Ctx.fault <- Fault.at Fault.Swap_after_link ~nth:1;
  (match Evacuate.evacuate_obj w ~obj:obj0 with
  | exception Fault.Crashed _ -> ()
  | _ -> Alcotest.fail "evacuator did not crash");
  Client.declare_failed svc ~cid:w.Ctx.cid;
  let before = Evacuate.relocate_own a in
  Alcotest.(check int) "busy before recovery" 1 before.Evacuate.busy;
  ignore (Shm.recover arena ~failed_cid:w.Ctx.cid);
  (* A new incarnation of the evacuator's slot, registered before anyone
     broke the claim, must not inherit it: its lease grant era is newer. *)
  let w' = Shm.join arena ~cid:w.Ctx.cid () in
  let after = Evacuate.relocate_own a in
  Alcotest.(check int) "not busy after recovery" 0 after.Evacuate.busy;
  Alcotest.(check (list string)) "no errors" [] after.Evacuate.errors;
  let child =
    match List.assoc_opt (Cxl_ref.rootref child) after.Evacuate.remapped with
    | Some rr2 -> Cxl_ref.of_rootref a rr2
    | None -> child
  in
  Alcotest.(check bool) "holders agree on a single copy" true
    (Cxl_ref.get_emb parent 0 = Cxl_ref.obj child);
  Alcotest.(check int) "payload survived" 0xBEEF (Cxl_ref.read_word child 0);
  Alcotest.(check bool) "validate clean" true
    (Validate.is_clean (Shm.validate arena));
  Cxl_ref.drop parent;
  Cxl_ref.drop child;
  Shm.leave w';
  Ctx.clear_degraded svc;
  check_clean arena "claim held until recovery, after drop"

(* ---- the evacuate model under the schedule explorer ---- *)

let test_sched_evacuate () =
  let module Explore = Cxlshm_check.Explore in
  let m = Cxlshm_check.Scenarios.evacuate () in
  let r =
    Explore.random ~seed:5 ~schedules:60 ~crash:true ~max_steps:60_000 m
  in
  (match r.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s (replay: %s)" f.Explore.reason
        (Cxlshm_check.Schedule.to_string f.Explore.schedule));
  Alcotest.(check bool) "some schedules actually crashed" true
    (r.Explore.crashes_injected > 0)

let suite =
  [
    Alcotest.test_case "basic move re-points every holder" `Quick
      test_basic_move;
    Alcotest.test_case "directory objects pinned but functional" `Quick
      test_directory_pinned;
    Alcotest.test_case "all devices degraded: no space" `Quick test_no_space;
    Alcotest.test_case "huge run evacuation" `Quick test_huge_move;
    Alcotest.test_case "relocate_own drains the device" `Quick
      test_relocate_own_drains_device;
    Alcotest.test_case "crash after copy" `Quick
      (crash_resume Fault.Evac_after_copy);
    Alcotest.test_case "crash mid re-point (journal resume)" `Quick
      (crash_resume Fault.Evac_after_repoint);
    Alcotest.test_case "crash before release" `Quick
      (crash_resume Fault.Evac_before_release);
    Alcotest.test_case "claim held until the evacuator is recovered" `Quick
      test_claim_held_until_recovery;
    Alcotest.test_case "evacuate model under the explorer" `Quick
      test_sched_evacuate;
  ]
