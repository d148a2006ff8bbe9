(* Epoch-batched retirement and sharded class heads: parking semantics,
   the fence-per-batch contract, every new crash window, and the
   stamp-pinning that makes cross-domain stealing safe against the §5.3
   segment recycler. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem

let epoch_cfg ?(batch = 2) () = { Config.small with Config.epoch_batch = batch }
let shard_cfg () = { Config.small with Config.num_domains = 2 }

let check_clean arena label =
  let v = Shm.validate arena in
  Alcotest.(check bool)
    (label ^ " validate: " ^ String.concat "; " v.Validate.errors)
    true (Validate.is_clean v)

(* A zero-count rootref parks in the volatile buffer: the object stays
   alive until the batch flushes, and a clean leave drains the tail. *)
let test_park_and_flush () =
  let arena = Shm.create ~cfg:(epoch_cfg ()) () in
  let a = Shm.join arena () in
  let r1 = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.drop r1;
  (* One parked retirement: still linked, still counted. *)
  Alcotest.(check int) "parked object still alive" 1
    (Shm.validate arena).Validate.live_objects;
  let r2 = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.drop r2;
  (* Second park fills the batch of 2 and flushes it. *)
  Alcotest.(check int) "batch flush retired both" 0
    (Shm.validate arena).Validate.live_objects;
  let r3 = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.drop r3;
  Shm.leave a;
  Alcotest.(check int) "leave drains the partial batch" 0
    (Shm.validate arena).Validate.live_objects;
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
  let mem = Shm.mem arena in
  let b0 = Option.get (Mem.op_breakdown mem) in
  let rounds = 4 * batch in
  for _ = 1 to rounds do
    Cxl_ref.drop (Shm.cxl_malloc a ~size_bytes:32 ())
  done;
  let b1 = Option.get (Mem.op_breakdown mem) in
  let fences = b1.Cxlshm_shmem.Backend_counting.fences
               - b0.Cxlshm_shmem.Backend_counting.fences in
  Alcotest.(check int) "one fence per retirement batch" (rounds / batch)
    fences

(* Crash inside [Epoch.flush_retired] at each labeled window; recovery
   must finish exactly the unfinished suffix of the sealed batch. *)
let test_retire_crash_windows () =
  List.iter
    (fun (point, expect_replayed) ->
      let arena = Shm.create ~cfg:(epoch_cfg ()) () in
      let a = Shm.join arena () in
      let r1 = Shm.cxl_malloc a ~size_bytes:32 () in
      let r2 = Shm.cxl_malloc a ~size_bytes:32 () in
      Cxl_ref.drop r1;
      a.Ctx.fault <- Fault.at point ~nth:1;
      (try
         Cxl_ref.drop r2;
         Alcotest.fail "expected crash"
       with Fault.Crashed _ -> ());
      a.Ctx.fault <- Fault.none;
      Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
      let r = Shm.recover arena ~failed_cid:a.Ctx.cid in
      Alcotest.(check int)
        ("journal entries replayed at " ^ Fault.point_name point)
        expect_replayed r.Recovery.journal_replayed;
      ignore (Shm.scan_leaking arena);
      Alcotest.(check int)
        ("nothing alive after " ^ Fault.point_name point)
        0 (Shm.validate arena).Validate.live_objects;
      check_clean arena ("retire crash at " ^ Fault.point_name point))
    [
      (* Sealed, nothing retired yet: both entries replay. *)
      (Fault.Retire_after_seal, 2);
      (* First entry fully retired (its in_use cleared): one replays. *)
      (Fault.Retire_mid_batch, 1);
      (* All retired, only the journal-clear store is missing. *)
      (Fault.Retire_after_batch, 0);
    ]

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

(* Non-owner frees park on the freeing client's domain stack and the next
   same-class allocation pops the parked block back. *)
let test_shard_park_and_pop () =
  let arena = Shm.create ~cfg:(shard_cfg ()) () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let ra = Shm.cxl_malloc a ~size_bytes:32 () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  Alcotest.(check bool) "sent" true (Transfer.send q ra = Transfer.Sent);
  Cxl_ref.drop ra;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb =
    match Transfer.receive qb with
    | Transfer.Received r -> r
    | _ -> Alcotest.fail "receive"
  in
  let obj = Cxl_ref.obj rb in
  (* B's drop is a non-owner free: the block parks on B's domain stack
     (stamped), and the arena must still validate — the stack walk counts
     parked blocks as free. *)
  Cxl_ref.drop rb;
  check_clean arena "block parked on shard stack";
  (* B's next same-class allocation pops the parked block. *)
  let rb2 = Shm.cxl_malloc b ~size_bytes:32 () in
  Alcotest.(check int) "shard pop returned the parked block" obj
    (Cxl_ref.obj rb2);
  Cxl_ref.drop rb2;
  Transfer.close q;
  Transfer.close qb;
  check_clean arena "after shard round-trip"

(* A parked stamp pins the donor segment: the §5.3 scan must not recycle
   the page under a stealable stack entry, even once the owner is dead —
   and fsck, which drops the stacks and stamps wholesale, unpins it. *)
let test_shard_pin_blocks_recycle () =
  let arena = Shm.create ~cfg:(shard_cfg ()) () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let ra = Shm.cxl_malloc a ~size_bytes:32 () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  Alcotest.(check bool) "sent" true (Transfer.send q ra = Transfer.Sent);
  Cxl_ref.drop ra;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb =
    match Transfer.receive qb with
    | Transfer.Received r -> r
    | _ -> Alcotest.fail "receive"
  in
  let obj = Cxl_ref.obj rb in
  let svc = Shm.service_ctx arena in
  let seg = Layout.segment_of_addr (Shm.layout arena) obj in
  Cxl_ref.drop rb;
  Transfer.close qb;
  (* Owner dies with the block parked in its segment. *)
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "parked stamp pins the donor segment" true
    (Segment.state svc seg <> Segment.Free);
  check_clean arena "pinned segment";
  (* A live peer can still steal the parked block out of the dead owner's
     segment — exactly what the pin protects. *)
  let rb2 = Shm.cxl_malloc b ~size_bytes:32 () in
  Alcotest.(check int) "stole the parked block" obj (Cxl_ref.obj rb2);
  Cxl_ref.drop rb2;
  (* B re-parks it on drop; B leaving doesn't drain domain stacks, so the
     segment stays pinned until fsck rebuilds the free structures. *)
  Shm.leave b;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "still pinned after re-park" true
    (Segment.state svc seg <> Segment.Free);
  let rep = Shm.fsck arena in
  Alcotest.(check bool) "fsck clean" true (Fsck.clean rep);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "fsck unpinned; segment recycled" true
    (Segment.state svc seg = Segment.Free)

let suite =
  [
    Alcotest.test_case "park, batch flush, leave drains" `Quick
      test_park_and_flush;
    Alcotest.test_case "one fence per retirement batch" `Quick
      test_fence_per_batch;
    Alcotest.test_case "retirement crash windows" `Quick
      test_retire_crash_windows;
    Alcotest.test_case "move crash windows" `Quick test_move_crash_windows;
    Alcotest.test_case "shard park and pop" `Quick test_shard_park_and_pop;
    Alcotest.test_case "parked stamp pins segment" `Quick
      test_shard_pin_blocks_recycle;
  ]
