(* Epoch-batched retirement: parking semantics, the fence-per-batch
   contract and every new crash window. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Cxl_kv = Cxlshm_kv.Cxl_kv

let epoch_cfg ?(batch = 2) () = { Config.small with Config.epoch_batch = batch }

let check_clean arena label =
  let v = Shm.validate arena in
  Alcotest.(check bool)
    (label ^ " validate: " ^ String.concat "; " v.Validate.errors)
    true (Validate.is_clean v)

(* The sealed journal of client [cid] as the recovery service reads it:
   its entry count, 0 when no batch is in flight. *)
let journal_len arena cid =
  match Epoch.read_journal (Shm.service_ctx arena) ~cid with
  | None -> 0
  | Some slots -> Array.length slots

(* Paced retirement with a batch of 2: the drop that fills the buffer seals
   it and retires nothing, each later drop retires one sealed entry in slot
   order (newest parked first), a retired entry's rootref stays allocated
   until its batch is finished, and a clean leave drains the sealed
   remainder and the buffer. *)
let test_park_and_flush () =
  let arena = Shm.create ~cfg:(epoch_cfg ()) () in
  let a = Shm.join arena () in
  let live () = (Shm.validate arena).Validate.live_objects in
  let refs = Array.init 5 (fun _ -> Shm.cxl_malloc a ~size_bytes:32 ()) in
  Cxl_ref.drop refs.(0);
  (* One parked retirement: still linked, still counted, nothing sealed. *)
  Alcotest.(check (pair int int)) "drop 1 parks" (5, 0)
    (live (), journal_len arena a.Ctx.cid);
  Cxl_ref.drop refs.(1);
  (* The second park fills the batch of 2: sealed, nothing retired. *)
  Alcotest.(check (pair int int)) "drop 2 seals the batch" (5, 2)
    (live (), journal_len arena a.Ctx.cid);
  Cxl_ref.drop refs.(2);
  Alcotest.(check (pair int int)) "drop 3 retires the first sealed entry"
    (4, 2)
    (live (), journal_len arena a.Ctx.cid);
  (* Newest parked first: object 1 went, object 0 is still sealed. A
     retired entry's rootref is unlinked but stays allocated while the
     journal names it. *)
  let linked i = Rootref.obj a (Cxl_ref.rootref refs.(i)) <> 0 in
  let allocated i = Rootref.in_use a (Cxl_ref.rootref refs.(i)) in
  Alcotest.(check (pair bool bool)) "slot order: newest parked first"
    (true, false) (linked 0, linked 1);
  Alcotest.(check (pair bool bool)) "both rootrefs still allocated"
    (true, true) (allocated 0, allocated 1);
  Cxl_ref.drop refs.(3);
  (* Retires the last entry, clears the journal, then seals drops 3 and 4. *)
  Alcotest.(check (pair int int))
    "drop 4 finishes the batch and seals the next" (3, 2)
    (live (), journal_len arena a.Ctx.cid);
  (* Once the journal is cleared, each drop frees one of the finished
     batch's rootrefs, the latest retired first. *)
  Alcotest.(check (pair bool bool)) "drop 4 frees the latest retired rootref"
    (false, true) (allocated 0, allocated 1);
  Cxl_ref.drop refs.(4);
  Alcotest.(check (pair int int)) "drop 5 retires one entry" (2, 2)
    (live (), journal_len arena a.Ctx.cid);
  Alcotest.(check (pair bool bool)) "drop 5 frees the other"
    (false, false) (allocated 0, allocated 1);
  Shm.leave a;
  Alcotest.(check (pair int int))
    "leave drains the sealed remainder and the buffer" (0, 0)
    (live (), journal_len arena a.Ctx.cid);
  check_clean arena "after leave"

(* The tentpole contract, proved on the counting backend: a steady-state
   alloc+drop loop issues exactly one fence per K-retirement batch. *)
let test_fence_per_batch () =
  let batch = 16 in
  let cfg =
    {
      Config.small with
      Config.backend = Mem.Counting_fast;
      epoch_batch = batch;
    }
  in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  for _ = 1 to 2 * batch do
    Cxl_ref.drop (Shm.cxl_malloc a ~size_bytes:32 ())
  done;
  let f0 = a.Ctx.st.Stats.fences in
  let rounds = 4 * batch in
  for _ = 1 to rounds do
    Cxl_ref.drop (Shm.cxl_malloc a ~size_bytes:32 ())
  done;
  let fences = a.Ctx.st.Stats.fences - f0 in
  Alcotest.(check int) "one fence per retirement batch" (rounds / batch)
    fences

(* Crash at each labeled window of paced retirement under a batch of 2,
   reached at its drop of four in a row; recovery must finish exactly the
   unfinished suffix of the sealed batch, and the rootref scan releases
   what was only parked or still held. *)
let test_retire_crash_windows () =
  List.iter
    (fun (point, nth, at_drop, expect_replayed, expect_scanned) ->
      let arena = Shm.create ~cfg:(epoch_cfg ()) () in
      let a = Shm.join arena () in
      let refs = List.init 4 (fun _ -> Shm.cxl_malloc a ~size_bytes:32 ()) in
      let label = Printf.sprintf "%s #%d" (Fault.point_name point) nth in
      a.Ctx.fault <- Fault.at point ~nth;
      let crashed_at =
        match List.iter Cxl_ref.drop refs with
        | () -> 0
        | exception Fault.Crashed _ ->
            (* [drop] marks its handle dead before releasing. *)
            List.length (List.filter (fun r -> not (Cxl_ref.is_live r)) refs)
      in
      Alcotest.(check int) ("crashed inside drop, " ^ label) at_drop crashed_at;
      a.Ctx.fault <- Fault.none;
      Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
      let r = Shm.recover arena ~failed_cid:a.Ctx.cid in
      Alcotest.(check (pair int int))
        ("journal entries replayed, rootrefs released at " ^ label)
        (expect_replayed, expect_replayed + expect_scanned)
        (r.Recovery.journal_replayed, r.Recovery.rootrefs_released);
      Alcotest.(check int) ("journal cleared after " ^ label) 0
        (journal_len arena a.Ctx.cid);
      ignore (Shm.scan_leaking arena);
      Alcotest.(check int)
        ("nothing alive after " ^ label)
        0 (Shm.validate arena).Validate.live_objects;
      check_clean arena ("retire crash at " ^ label))
    [
      (* Drop 2 sealed; nothing retired yet: both entries replay, and
         the scan releases the two undropped rootrefs. *)
      (Fault.Retire_after_seal, 1, 2, 2, 2);
      (* Drop 3 retired the first entry (its pointer nulled): the second
         replays; drop 3 only parked and drop 4 never ran. *)
      (Fault.Retire_mid_batch, 1, 3, 1, 2);
      (* Drop 4 retired the last entry, the journal is not cleared yet:
         replay only frees the rootrefs, and drops 3-4 were never
         sealed. *)
      (Fault.Retire_mid_batch, 2, 4, 0, 2);
      (Fault.Retire_after_batch, 1, 4, 0, 2);
      (* Drop 4 finished the first batch, then sealed drops 3-4; the
         finished batch's rootrefs, still allocated, are freed by the
         scan as unlinked rootrefs, not released. *)
      (Fault.Retire_after_seal, 2, 4, 2, 0);
    ]

(* No release pays for more than one sealed entry. A steady loop drops
   parents that each hold the only reference to an embedded child, so
   every retirement is a detach, a child teardown and two frees. Each
   drop is priced on its own under the CXL latency model: the largest
   must stay near one entry's teardown (plus the batch's seal and
   finish), not near a whole batch of teardowns. *)
let test_release_retires_one () =
  let batch = 16 in
  let cfg =
    { Config.small with Config.epoch_batch = batch; num_segments = 16 }
  in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let n = 4 * batch in
  let parents =
    List.init n (fun _ ->
        let p = Shm.cxl_malloc a ~size_bytes:32 ~emb_cnt:1 () in
        let c = Shm.cxl_malloc a ~size_bytes:32 () in
        Cxl_ref.set_emb p 0 c;
        Cxl_ref.drop c;
        p)
  in
  Reclaim.flush_retired a;
  let model = Cxlshm_shmem.Latency.of_tier Cxlshm_shmem.Latency.Cxl in
  let cost r =
    let st0 = Cxlshm_shmem.Stats.copy a.Ctx.st in
    Cxl_ref.drop r;
    Cxlshm_shmem.Stats.(modeled_ns model (diff a.Ctx.st st0))
  in
  let costs = Array.of_list (List.map cost parents) in
  (* Past the first seal, drops retire one entry each on average, so
     their mean is one entry's teardown. *)
  let steady = Array.sub costs batch (n - batch) in
  let per_entry =
    Array.fold_left ( +. ) 0.0 steady /. float_of_int (Array.length steady)
  in
  let worst = Array.fold_left Float.max 0.0 costs in
  Alcotest.(check bool)
    (Printf.sprintf "largest drop %.0f ns within 3x one entry's teardown \
                     (%.0f ns)"
       worst per_entry)
    true
    (worst <= 3.0 *. per_entry);
  (* The last drop sealed the fourth batch; its parents and children are
     still alive. *)
  Alcotest.(check int) "three batches retired, the fourth sealed"
    (2 * batch)
    (Shm.validate arena).Validate.live_objects;
  Shm.leave a;
  check_clean arena "after paced drops"

(* Transactions between two paced retirements, on objects the sealed
   batch names: a crash at any retirement window, or after the commit CAS
   of any interleaved transaction, must recover clean. Client B holds the
   parent through a transfer, so after A dies the parent survives with
   whatever its embedded slot names, and the live count is exact. *)
let test_paced_crash_interleaved () =
  let second_ref ctx r =
    let rr = Alloc.alloc_rootref ctx in
    Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:(Cxl_ref.obj r);
    Cxl_ref.of_rootref ctx rr
  in
  let run point nth =
    let arena = Shm.create ~cfg:(epoch_cfg ()) () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    let p = Shm.cxl_malloc a ~size_bytes:32 ~emb_cnt:1 () in
    let c = Shm.cxl_malloc a ~size_bytes:32 () in
    let d = Shm.cxl_malloc a ~size_bytes:32 () in
    let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
    Alcotest.(check bool) "sent" true (Transfer.send q p = Transfer.Sent);
    let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
    let bp =
      match Transfer.receive qb with
      | Transfer.Received r -> r
      | _ -> Alcotest.fail "receive"
    in
    Transfer.close q;
    Transfer.close qb;
    let p' = second_ref a p and c' = second_ref a c and d' = second_ref a d in
    (* Closing parked both queue references: start from empty buffers. *)
    Reclaim.flush_retired a;
    Reclaim.flush_retired b;
    a.Ctx.fault <- Fault.at point ~nth;
    let crashed =
      try
        Cxl_ref.drop p;
        (* Seals the batch, newest first: [c; p]. *)
        Cxl_ref.drop c;
        Cxl_ref.set_emb p' 0 c';
        (* Retires c's entry. *)
        Cxl_ref.drop d;
        (* The swap's transient rootref retires p's entry, finishing the
           batch, and seals [transient; d]. *)
        Cxl_ref.change_emb p' 0 d';
        Cxl_ref.clear_emb p' 0;
        Cxl_ref.set_emb p' 0 c';
        (* Retires the transient rootref's entry. *)
        Cxl_ref.drop c';
        (* Retires d's entry, finishing the second batch, and seals
           [d'; c']. *)
        Cxl_ref.drop d';
        Cxl_ref.drop p';
        Shm.leave a;
        false
      with Fault.Crashed _ -> true
    in
    a.Ctx.fault <- Fault.none;
    let label = Printf.sprintf "%s #%d" (Fault.point_name point) nth in
    if crashed then begin
      Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
      ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
      Alcotest.(check int) ("journal cleared after " ^ label) 0
        (journal_len arena a.Ctx.cid)
    end;
    ignore (Shm.scan_leaking arena);
    let expect = if Cxl_ref.get_emb bp 0 = 0 then 1 else 2 in
    if not crashed then
      Alcotest.(check int) "a clean run leaves the child linked" 2 expect;
    Alcotest.(check int) ("live objects after " ^ label) expect
      (Shm.validate arena).Validate.live_objects;
    check_clean arena ("paced crash at " ^ label);
    Cxl_ref.drop bp;
    Shm.leave b;
    Alcotest.(check int) ("nothing alive once B leaves, " ^ label) 0
      (Shm.validate arena).Validate.live_objects;
    check_clean arena ("B left after " ^ label);
    crashed
  in
  (* Every point is swept until a run completes. A's releases seal at the
     2nd, the 4th (the change's transient rootref), the 6th and the leave;
     they retire one entry each from the 3rd on, plus two in the leave;
     the four embedded-slot transactions each commit one CAS. *)
  List.iter
    (fun (point, expect) ->
      let rec sweep nth = if run point nth then sweep (nth + 1) else nth - 1 in
      Alcotest.(check int)
        (Fault.point_name point ^ " windows crashed and recovered")
        expect (sweep 1))
    [
      (Fault.Retire_after_seal, 4);
      (Fault.Retire_mid_batch, 7);
      (Fault.Retire_after_batch, 4);
      (Fault.Txn_after_cas, 4);
    ]

(* A retired entry's RootRef is not handed out again while the journal
   still names it: were it, a crash before the batch's finish would leave
   the sealed slot naming a live RootRef, and the replay would release
   whatever its new owner holds. Here the allocation between two paced
   entries is a KV copy-on-write, whose RootRef parks the displaced
   version in the limbo while a reader is pinned: the version must reach
   the successor through the orphaned row, not be torn down by replay. *)
let test_reused_rootref_limbo () =
  let arena = Shm.create ~cfg:(epoch_cfg ()) () in
  let a = Shm.join arena () in
  let store, h = Cxl_kv.create a ~buckets:8 ~partitions:1 ~value_words:1 in
  Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
  for k = 0 to 3 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let r = Shm.join arena () in
  let hr = Cxl_kv.open_store r store in
  let x = Array.init 3 (fun _ -> Shm.cxl_malloc a ~size_bytes:32 ()) in
  (* The inserts parked their RootRefs: start from empty buffers. *)
  Reclaim.flush_retired a;
  Hazard.enter r;
  Cxl_ref.drop x.(0);
  (* Seals [x1; x0]. *)
  Cxl_ref.drop x.(1);
  (* Retires x1's entry; x0's is still sealed. *)
  Cxl_ref.drop x.(2);
  Cxl_kv.put_cow h ~key:0 ~value:100;
  Alcotest.(check int) "journal still sealed" 2 (journal_len arena a.Ctx.cid);
  (* A dies with the batch half retired. *)
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  Alcotest.(check int) "journal cleared" 0 (journal_len arena a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  (* The index, four records and the displaced version of key 0. *)
  Alcotest.(check int) "live objects after recovery" 6
    (Shm.validate arena).Validate.live_objects;
  check_clean arena "after recovery";
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
  Alcotest.(check int) "the displaced version reached the successor" 1
    (Cxl_kv.adopt_recovered hb);
  Alcotest.(check (option int)) "new value" (Some 100) (Cxl_kv.get hr ~key:0);
  Hazard.exit r;
  Cxl_kv.close hb;
  Shm.leave b;
  Cxl_kv.close hr;
  Shm.leave r;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check int) "nothing alive once every handle closed" 0
    (Shm.validate arena).Validate.live_objects;
  check_clean arena "after close"

(* Crash inside the count-neutral [Refc.swap] of an epoch-mode transfer
   receive; the Swap redo record must resume iff the relink landed. *)
let test_move_crash_windows () =
  List.iter
    (fun (point, expect_resumed) ->
      let arena = Shm.create ~cfg:(epoch_cfg ~batch:4 ()) () in
      let a = Shm.join arena () in
      let b = Shm.join arena () in
      let ra = Shm.cxl_malloc a ~size_bytes:32 () in
      let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
      Alcotest.(check bool) "sent" true (Transfer.send q ra = Transfer.Sent);
      Cxl_ref.drop ra;
      let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
      b.Ctx.fault <- Fault.at point ~nth:1;
      (try
         ignore (Transfer.receive qb);
         Alcotest.fail "expected crash"
       with Fault.Crashed _ -> ());
      b.Ctx.fault <- Fault.none;
      Client.declare_failed (Shm.service_ctx arena) ~cid:b.Ctx.cid;
      let r = Shm.recover arena ~failed_cid:b.Ctx.cid in
      Alcotest.(check bool)
        ("move resumed at " ^ Fault.point_name point)
        expect_resumed r.Recovery.resumed_txn;
      Transfer.close q;
      (* A's own drops parked in its epoch buffer; leaving drains them. *)
      Shm.leave a;
      ignore (Shm.scan_leaking arena);
      Alcotest.(check int)
        ("nothing alive after " ^ Fault.point_name point)
        0 (Shm.validate arena).Validate.live_objects;
      check_clean arena ("move crash at " ^ Fault.point_name point))
    [
      (* Record written, relink not yet: nothing to resume — the queue
         slot still owns the reference and endpoint recovery reaps it. *)
      (Fault.Txn_after_redo, false);
      (* RootRef linked, source slot not yet cleared: resume finishes the
         idempotent clear. *)
      (Fault.Swap_after_link, true);
      (* Cleared but the era not advanced: resume consumes the era. *)
      (Fault.Swap_after_store, true);
    ]

let suite =
  [
    Alcotest.test_case "park, batch flush, leave drains" `Quick
      test_park_and_flush;
    Alcotest.test_case "one fence per retirement batch" `Quick
      test_fence_per_batch;
    Alcotest.test_case "retirement crash windows" `Quick
      test_retire_crash_windows;
    Alcotest.test_case "a release retires at most one sealed entry" `Quick
      test_release_retires_one;
    Alcotest.test_case "paced crash windows with interleaved transactions"
      `Quick test_paced_crash_interleaved;
    Alcotest.test_case "retired rootref not reused: limbo park" `Quick
      test_reused_rootref_limbo;
    Alcotest.test_case "move crash windows" `Quick test_move_crash_windows;
  ]
