(* §5.3 reclamation: POTENTIAL_LEAKING scans, orphan adoption, deferred
   cross-client frees. *)

open Cxlshm

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena (), Shm.join arena ())

let test_scan_skips_live_blocks () =
  let arena, a, _ = setup () in
  let keep = Shm.cxl_malloc a ~size_bytes:32 () in
  let dead = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.drop dead;
  let svc = Shm.service_ctx arena in
  let seg = Layout.segment_of_addr (Shm.layout arena) (Cxl_ref.obj keep) in
  Segment.mark_leaking svc seg;
  (* a live block in the segment: the full scan must NOT recycle it *)
  Alcotest.(check bool) "not recycled" false (Reclaim.scan_segment svc seg);
  Alcotest.(check bool) "still live" true (Refc.ref_cnt a (Cxl_ref.obj keep) = 1);
  (* after the last reference dies, the scan recycles *)
  Cxl_ref.drop keep;
  Client.declare_failed svc ~cid:a.Ctx.cid;
  Alcotest.(check bool) "recycled when empty" true (Reclaim.scan_segment svc seg)

let test_scan_all_respects_live_owner () =
  let arena, a, _ = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.drop r;
  let svc = Shm.service_ctx arena in
  let seg = Segment.owned_by svc ~cid:a.Ctx.cid |> List.hd in
  Segment.mark_leaking svc seg;
  (* the owner is alive: scan_all must leave its segment alone *)
  Alcotest.(check int) "no recycling under a live owner" 0
    (Reclaim.scan_all svc ~is_client_alive:(fun cid -> cid = a.Ctx.cid));
  (* owner declared dead: now it recycles *)
  Alcotest.(check bool) "recycles once owner is dead" true
    (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false) >= 1)

let test_leaked_block_recovered_via_scan () =
  (* A client dies between the decrement-to-zero and the reclaim: the
     block is off every list with count 0 — only the §5.3 scan gets it. *)
  let arena, a, _ = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  a.Ctx.fault <- Fault.at Fault.Release_before_reclaim ~nth:1;
  (try Cxl_ref.drop r with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "no pending blocks left" 0 v.Validate.pending_scan;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_orphan_adoption () =
  let arena, a, b = setup () in
  (* a allocates, shares with b, then exits cleanly without freeing the
     shared object — its segment is orphaned, not freed *)
  let ra = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_word ra 0 777;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  assert (Transfer.send q ra = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb =
    match Transfer.receive qb with
    | Transfer.Received r -> r
    | _ -> Alcotest.fail "recv"
  in
  Transfer.close q;
  Cxl_ref.drop ra;
  let seg = Layout.segment_of_addr (Shm.layout arena) (Cxl_ref.obj rb) in
  Shm.leave a;
  Alcotest.(check bool) "segment orphaned" true
    (Segment.state (Shm.service_ctx arena) seg = Segment.Orphaned);
  (* b adopts the orphan through the allocation slow path *)
  Alcotest.(check bool) "adopted" true (Segment.adopt b seg);
  Alcotest.(check int) "data intact after adoption" 777 (Cxl_ref.read_word rb 0);
  Transfer.close qb;
  Cxl_ref.drop rb

(* A client dies between a block's decrement-to-zero and its reclaim, in a
   segment that still holds a block another client uses. Recovery must
   leave the segment POTENTIAL_LEAKING, not adoptable: an adopter would make
   it Active, and the off-list block would never be reclaimed. *)
let test_recovery_keeps_leak_mark () =
  let arena, a, b = setup () in
  let keep = Shm.cxl_malloc a ~size_bytes:32 () in
  let dead = Shm.cxl_malloc a ~size_bytes:32 () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  assert (Transfer.send q keep = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb =
    match Transfer.receive qb with
    | Transfer.Received r -> r
    | _ -> Alcotest.fail "recv"
  in
  a.Ctx.fault <- Fault.at Fault.Release_before_reclaim ~nth:1;
  (try Cxl_ref.drop dead with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  let seg = Layout.segment_of_addr (Shm.layout arena) (Cxl_ref.obj rb) in
  (* an allocator with no free segment adopts whatever it can *)
  let adopted = Segment.adopt b seg in
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check bool) "not adoptable" false adopted;
  Alcotest.(check bool) "leak mark kept" true
    (Segment.state svc seg = Segment.Leaking);
  Transfer.close qb;
  Cxl_ref.drop rb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_deferred_free_returns_blocks () =
  let arena, a, b = setup () in
  (* b frees a block living in a's segment: it lands on the cross-client
     stack until a's slow path collects it *)
  let ra = Shm.cxl_malloc a ~size_bytes:32 () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  assert (Transfer.send q ra = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb = match Transfer.receive qb with Transfer.Received r -> r | _ -> assert false in
  Cxl_ref.drop ra;
  Cxl_ref.drop rb;
  (* block is in a's client_free stack; collect and verify it is reusable *)
  Alloc.collect_deferred a;
  let again = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.drop again;
  Transfer.close q;
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_release_rootref_double_raise () =
  let _, a, _ = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:16 () in
  let rr = Cxl_ref.rootref r in
  Cxl_ref.drop r;
  Alcotest.check_raises "double release detected"
    (Refc.Refcount_violation "release_rootref: local count already 0")
    (fun () -> Reclaim.release_rootref a rr)

(* A crash around the last holder's detach (its header write is a store,
   not a CAS) recovers as before: before the write the redo record is not
   committed and recovery releases the child through the parent; after it
   Condition 1 proves the commit, recovery replays the unlink, and the
   leak-marked block goes to the scan. Either way nothing is left. *)
let test_last_holder_detach_crashes () =
  List.iter
    (fun (point, resumed, cnt) ->
      let label = Fault.point_name point in
      let arena, a, _ = setup () in
      let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
      let child = Shm.cxl_malloc a ~size_bytes:8 () in
      let child_obj = Cxl_ref.obj child in
      Cxl_ref.set_emb parent 0 child;
      Cxl_ref.drop child;
      a.Ctx.fault <- Fault.at point ~nth:1;
      (match Cxl_ref.clear_emb parent 0 with
      | () -> Alcotest.failf "%s: expected a crash" label
      | exception Fault.Crashed _ -> ());
      a.Ctx.fault <- Fault.none;
      Alcotest.(check int) (label ^ ": child count") cnt
        (Refc.ref_cnt a child_obj);
      Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
      let r = Shm.recover arena ~failed_cid:a.Ctx.cid in
      Alcotest.(check bool) (label ^ ": txn resumed") resumed
        r.Recovery.resumed_txn;
      ignore (Shm.scan_leaking arena);
      let v = Shm.validate arena in
      Alcotest.(check int) (label ^ ": nothing alive") 0 v.Validate.live_objects;
      Alcotest.(check bool)
        (label ^ ": " ^ String.concat "; " v.Validate.errors)
        true (Validate.is_clean v))
    [ (Fault.Txn_after_redo, false, 1); (Fault.Txn_after_cas, true, 0) ]

(* Property: interleaved alloc/free across two clients with shared blocks
   always validates clean after quiesce + scan. *)
let prop_reclaim_clean =
  QCheck.Test.make ~name:"reclaim always clean after quiesce" ~count:30
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 3))
    (fun ops ->
      let arena, a, b = setup () in
      let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:8 in
      let qb = ref None in
      let mine = ref [] and theirs = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> mine := Shm.cxl_malloc a ~size_bytes:24 () :: !mine
          | 1 -> (
              match !mine with
              | r :: rest ->
                  mine := rest;
                  Cxl_ref.drop r
              | [] -> ())
          | 2 -> (
              match !mine with
              | r :: _ -> if Transfer.send q r = Transfer.Sent then () else ()
              | [] -> ())
          | _ -> (
              if !qb = None then qb := Transfer.open_from b ~sender:a.Ctx.cid;
              match !qb with
              | Some queue -> (
                  match Transfer.receive queue with
                  | Transfer.Received r -> theirs := r :: !theirs
                  | Transfer.Empty | Transfer.Drained -> ())
              | None -> ()))
        ops;
      List.iter (fun r -> if Cxl_ref.is_live r then Cxl_ref.drop r) !mine;
      List.iter (fun r -> if Cxl_ref.is_live r then Cxl_ref.drop r) !theirs;
      Transfer.close q;
      (* the receiver must close its end too or the directory keeps the
         queue alive (by design) *)
      (if !qb = None then qb := Transfer.open_from b ~sender:a.Ctx.cid);
      (match !qb with Some queue -> Transfer.close queue | None -> ());
      Alloc.collect_deferred a;
      Alloc.collect_deferred b;
      ignore (Shm.scan_leaking arena);
      let v = Shm.validate arena in
      Validate.is_clean v && v.Validate.live_objects = 0)

let suite =
  [
    Alcotest.test_case "scan skips live blocks" `Quick test_scan_skips_live_blocks;
    Alcotest.test_case "scan_all respects live owner" `Quick test_scan_all_respects_live_owner;
    Alcotest.test_case "leaked block via scan" `Quick test_leaked_block_recovered_via_scan;
    Alcotest.test_case "orphan adoption" `Quick test_orphan_adoption;
    Alcotest.test_case "last-holder detach crash windows" `Quick
      test_last_holder_detach_crashes;
    Alcotest.test_case "recovery keeps a leak mark" `Quick
      test_recovery_keeps_leak_mark;
    Alcotest.test_case "deferred free returns blocks" `Quick test_deferred_free_returns_blocks;
    Alcotest.test_case "double rootref release raises" `Quick test_release_rootref_double_raise;
    Generators.to_alcotest prop_reclaim_clean;
  ]
