(* Extension features: the §4.2 lock-based straw-man (and why it loses),
   §6.4.1 persistent named roots and §5.4 hazard-era reclamation. *)

open Cxlshm
module Locked_refc = Cxlshm_check.Locked_refc

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena (), Shm.join arena ())

(* ---- Locked_refc (§4.2 straw-man) ---- *)

let test_locked_basic () =
  let _, a, _ = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  let slot = Obj_header.emb_slot (Cxl_ref.obj parent) 0 in
  let ta = Locked_refc.create a in
  Locked_refc.attach ta ~ref_addr:slot ~refed:(Cxl_ref.obj child);
  Alcotest.(check int) "count 2" 2 (Refc.ref_cnt a (Cxl_ref.obj child));
  Alcotest.(check int) "linked" (Cxl_ref.obj child) (Ctx.load a slot);
  let n = Locked_refc.detach ta ~ref_addr:slot ~refed:(Cxl_ref.obj child) in
  Alcotest.(check int) "back to 1" 1 n;
  Alcotest.(check int) "unlinked" 0 (Ctx.load a slot)

let test_locked_blocks_on_crash () =
  (* The §4.2 punchline: a dead lock holder stalls everyone else until
     recovery runs; the era algorithm does not. *)
  let _, a, b = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  let obj = Cxl_ref.obj child in
  let slot = Obj_header.emb_slot (Cxl_ref.obj parent) 0 in
  let ta = Locked_refc.create a in
  let tb = Locked_refc.share ta b in
  (* a crashes inside the critical section *)
  a.Ctx.fault <- Fault.at Fault.Txn_after_cas ~nth:1;
  (try Locked_refc.attach ta ~ref_addr:slot ~refed:obj with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  Alcotest.(check (option int)) "lock abandoned by a" (Some a.Ctx.cid)
    (Locked_refc.holder tb obj);
  (* b cannot make progress on the same stripe *)
  let parent_b = Shm.cxl_malloc b ~size_bytes:8 ~emb_cnt:1 () in
  let slot_b = Obj_header.emb_slot (Cxl_ref.obj parent_b) 0 in
  Alcotest.(check bool) "b is blocked" false
    (Locked_refc.attach_bounded tb ~ref_addr:slot_b ~refed:obj ~spins:10_000);
  (* the blocking design's recovery releases the lock and replays the log *)
  let released = Locked_refc.recover tb ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "one stripe released" 1 released;
  Alcotest.(check int) "a's logged increment was replayed" 2 (Refc.ref_cnt b obj);
  Alcotest.(check int) "a's link was replayed" obj (Ctx.load b slot);
  (* now b proceeds *)
  Alcotest.(check bool) "b unblocked after recovery" true
    (Locked_refc.attach_bounded tb ~ref_addr:slot_b ~refed:obj ~spins:10_000);
  Alcotest.(check int) "count now 3" 3 (Refc.ref_cnt b obj)

let test_locked_replay_is_idempotent () =
  (* If the dead client had already executed the logged stores, replay must
     not change anything (the absolute-count trick). *)
  let _, a, b = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  let obj = Cxl_ref.obj child in
  let slot = Obj_header.emb_slot (Cxl_ref.obj parent) 0 in
  let ta = Locked_refc.create a in
  let tb = Locked_refc.share ta b in
  a.Ctx.fault <- Fault.at Fault.Txn_after_modify_ref ~nth:1;
  (try Locked_refc.attach ta ~ref_addr:slot ~refed:obj with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  (* both effects already applied; count is 2 *)
  Alcotest.(check int) "already 2" 2 (Refc.ref_cnt b obj);
  ignore (Locked_refc.recover tb ~failed_cid:a.Ctx.cid);
  Alcotest.(check int) "replay left 2" 2 (Refc.ref_cnt b obj);
  Alcotest.(check int) "link intact" obj (Ctx.load b slot)

let test_era_does_not_block_on_crash () =
  (* the era counterpart of test_locked_blocks_on_crash: b proceeds
     immediately, before any recovery *)
  let _, a, b = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  let obj = Cxl_ref.obj child in
  a.Ctx.fault <- Fault.at Fault.Txn_after_cas ~nth:1;
  (try
     Cxl_ref.set_emb parent 0 child
   with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  (* no recovery has run; b attaches anyway *)
  let rr = Alloc.alloc_rootref b in
  Refc.attach b ~ref_addr:(Rootref.pptr_slot rr) ~refed:obj;
  Alcotest.(check bool) "b made progress without recovery" true
    (Refc.ref_cnt b obj >= 2);
  Reclaim.release_rootref b rr

(* ---- Named_roots (§6.4.1) ---- *)

let test_named_roots_survive_all_clients () =
  let arena, a, b = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_bytes r (Bytes.of_string "durable!");
  Named_roots.publish a ~name:"config" r;
  Cxl_ref.drop r;
  (* every client dies *)
  let svc = Shm.service_ctx arena in
  List.iter
    (fun (c : Ctx.t) ->
      Client.declare_failed svc ~cid:c.Ctx.cid;
      ignore (Recovery.recover svc ~failed_cid:c.Ctx.cid))
    [ a; b ];
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "the named object survived" 1 v.Validate.live_objects;
  (* a brand new client finds the data *)
  let c = Shm.join arena () in
  (match Named_roots.lookup c ~name:"config" with
  | Some r2 ->
      Alcotest.(check string) "data intact" "durable!"
        (Bytes.to_string (Cxl_ref.read_bytes r2 ~len:8));
      Cxl_ref.drop r2
  | None -> Alcotest.fail "named root lost");
  (* unpublish releases the last reference *)
  Alcotest.(check bool) "unpublish" true (Named_roots.unpublish c ~name:"config");
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "now reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_named_roots_conflicts () =
  let _, a, _ = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:8 () in
  Named_roots.publish a ~name:"x" r;
  Alcotest.check_raises "duplicate name" (Named_roots.Name_taken "x") (fun () ->
      Named_roots.publish a ~name:"x" r);
  Alcotest.(check bool) "lookup other name misses" true
    (Named_roots.lookup a ~name:"y" = None);
  Alcotest.(check bool) "unpublish missing" false
    (Named_roots.unpublish a ~name:"y");
  Alcotest.(check int) "one name listed" 1
    (List.length (Named_roots.names_hashes a));
  ignore (Named_roots.unpublish a ~name:"x");
  Cxl_ref.drop r

let test_named_roots_crash_mid_publish () =
  let arena, a, _ = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:8 () in
  (* die after the directory's attach commits but before phase=published *)
  a.Ctx.fault <- Fault.at Fault.Txn_after_cas ~nth:1;
  (try Named_roots.publish a ~name:"half" r with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  let c = Shm.join arena () in
  Alcotest.(check bool) "half-published name rolled back" true
    (Named_roots.lookup c ~name:"half" = None);
  let v = Shm.validate arena in
  Alcotest.(check int) "nothing leaked" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

(* ---- Hazard eras (§5.4) ---- *)

let test_hazard_protects_reader () =
  let _, a, b = setup () in
  (* b announces; a retires something afterwards: not yet safe *)
  Hazard.enter b;
  let e = Hazard.retire_epoch a in
  Alcotest.(check bool) "reader epoch blocks reclamation" true
    (Hazard.min_announced a <= e);
  Hazard.exit b;
  Alcotest.(check bool) "safe after reader leaves" true
    (Hazard.min_announced a > e)

let test_hazard_dead_reader_ignored () =
  let arena, a, b = setup () in
  Hazard.enter b;
  let e = Hazard.retire_epoch a in
  Alcotest.(check bool) "blocked while b lives" true (Hazard.min_announced a <= e);
  (* b dies mid-read: its announcement must stop counting *)
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:b.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:b.Ctx.cid);
  Alcotest.(check bool) "dead reader cannot stall reclamation" true
    (Hazard.min_announced a > e);
  ignore arena

let test_hazard_with_protection () =
  let _, a, _ = setup () in
  Alcotest.(check int) "protected result" 42
    (Hazard.with_protection a (fun () ->
         Alcotest.(check bool) "announced inside" true
           (Hazard.announced a ~cid:a.Ctx.cid > 0);
         42));
  Alcotest.(check int) "cleared outside" 0 (Hazard.announced a ~cid:a.Ctx.cid)

let suite =
  [
    Alcotest.test_case "locked: basic" `Quick test_locked_basic;
    Alcotest.test_case "locked: blocks on crash (§4.2)" `Quick test_locked_blocks_on_crash;
    Alcotest.test_case "locked: replay idempotent" `Quick test_locked_replay_is_idempotent;
    Alcotest.test_case "era: does NOT block on crash" `Quick test_era_does_not_block_on_crash;
    Alcotest.test_case "named roots survive all clients" `Quick test_named_roots_survive_all_clients;
    Alcotest.test_case "named roots conflicts" `Quick test_named_roots_conflicts;
    Alcotest.test_case "named roots crash mid-publish" `Quick test_named_roots_crash_mid_publish;
    Alcotest.test_case "hazard protects reader" `Quick test_hazard_protects_reader;
    Alcotest.test_case "hazard ignores dead reader" `Quick test_hazard_dead_reader_ignored;
    Alcotest.test_case "hazard with_protection" `Quick test_hazard_with_protection;
  ]
