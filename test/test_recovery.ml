(* Directed recovery scenarios: dead-client reaping, transaction resume
   through Conditions 1 & 2, queue-endpoint cleanup, restartability. *)

open Cxlshm
module Cxl_kv = Cxlshm_kv.Cxl_kv

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena (), Shm.join arena ())

let check_clean arena label =
  let v = Shm.validate arena in
  Alcotest.(check bool)
    (label ^ ": " ^ String.concat "; " v.Validate.errors)
    true (Validate.is_clean v)

let test_reap_simple () =
  let arena, a, _b = setup () in
  (* A allocates objects and "crashes" without freeing anything. *)
  let _leaked = List.init 20 (fun _ -> Shm.cxl_malloc a ~size_bytes:32 ()) in
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let r = Shm.recover arena ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "20 rootrefs released" 20 r.Recovery.rootrefs_released;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "nothing alive" 0 v.Validate.live_objects;
  check_clean arena "after reap"

let test_reap_preserves_shared () =
  let arena, a, b = setup () in
  (* A allocates and shares with B, then dies: B's reference must keep the
     object alive (the §1.2 double-free scenario). *)
  let ra = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_bytes ra (Bytes.of_string "survives");
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  Alcotest.(check bool) "sent" true (Transfer.send q ra = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb =
    match Transfer.receive qb with
    | Transfer.Received r -> r
    | _ -> Alcotest.fail "receive"
  in
  (* A dies. Note: no drop of ra / q — they are lost local handles. *)
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check string) "B still reads the data" "survives"
    (Bytes.to_string (Cxl_ref.read_bytes rb ~len:8));
  Alcotest.(check int) "exactly B's reference" 1 (Refc.ref_cnt b (Cxl_ref.obj rb));
  check_clean arena "shared object preserved";
  (* B finishes; everything must now be reclaimable. *)
  Transfer.close qb;
  Cxl_ref.drop rb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "all reclaimed" 0 v.Validate.live_objects;
  check_clean arena "after B exits"

let test_resume_attach_after_cas () =
  let arena, a, _b = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  (* Crash right after the commit CAS of the attach: ModifyRefCnt done,
     ModifyRef pending. *)
  a.Ctx.fault <- Fault.at Fault.Txn_after_cas ~nth:1;
  (try
     Cxl_ref.set_emb parent 0 child;
     Alcotest.fail "expected crash"
   with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  (* The count was incremented but the slot not yet written. *)
  Alcotest.(check int) "count already 2" 2 (Refc.ref_cnt a (Cxl_ref.obj child));
  Alcotest.(check int) "slot still null" 0 (Cxl_ref.get_emb parent 0);
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let r = Shm.recover arena ~failed_cid:a.Ctx.cid in
  Alcotest.(check bool) "txn resumed" true r.Recovery.resumed_txn;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "nothing alive" 0 v.Validate.live_objects;
  check_clean arena "resume attach"

let test_resume_not_committed () =
  let arena, a, _b = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  (* Crash after writing the redo record but before the CAS: the commit
     never happened, recovery must NOT redo the ModifyRef. *)
  a.Ctx.fault <- Fault.at Fault.Txn_after_redo ~nth:1;
  (try
     Cxl_ref.set_emb parent 0 child;
     Alcotest.fail "expected crash"
   with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  Alcotest.(check int) "count still 1" 1 (Refc.ref_cnt a (Cxl_ref.obj child));
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let r = Shm.recover arena ~failed_cid:a.Ctx.cid in
  Alcotest.(check bool) "txn NOT resumed" false r.Recovery.resumed_txn;
  ignore (Shm.scan_leaking arena);
  check_clean arena "uncommitted attach"

type repoint_case = {
  arena : Shm.arena;
  victim : Ctx.t;
  op : unit -> unit;
  after : string -> unit;  (** post-recovery checks, given a label prefix *)
  release : unit -> unit;  (** the survivor lets go of everything *)
}

(* Kill the client at every crash-point hit of each re-point — a linked
   [change_emb], a KV prepend into a non-empty bucket, and on the 3-key
   chain 2 -> 1 -> 0 of one bucket a [put_cow] or [delete] of the middle
   and of the tail key — then run monitor recovery and adopt or drain the
   dead client's limbo: the slot holds the old or the new target, and
   Validate and Fsck are clean. A survivor holds the structure; once it
   lets go no block is left. *)
let test_repoint_crash_windows () =
  let crossed = Hashtbl.create 8 in
  let one_of label got olds news =
    if got <> olds && got <> news then
      Alcotest.failf "%s: neither the old nor the new target" label
  in
  (* survivor's own counted reference to [r]'s object *)
  let hold b r =
    let rr = Alloc.alloc_rootref b in
    Refc.attach b ~ref_addr:(Rootref.pptr_slot rr) ~refed:(Cxl_ref.obj r);
    Cxl_ref.of_rootref b rr
  in
  let change_emb () =
    let arena, a, b = setup () in
    let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
    let x = Shm.cxl_malloc a ~size_bytes:8 () in
    let y = Shm.cxl_malloc a ~size_bytes:8 () in
    Cxl_ref.set_emb parent 0 x;
    let pb = hold b parent in
    let x_obj = Cxl_ref.obj x and y_obj = Cxl_ref.obj y in
    {
      arena;
      victim = a;
      op = (fun () -> Cxl_ref.change_emb parent 0 y);
      after = (fun label -> one_of label (Cxl_ref.get_emb pb 0) x_obj y_obj);
      release = (fun () -> Cxl_ref.drop pb);
    }
  in
  (* [op] on the chain 2 -> 1 -> 0 (values 10 + key) turns [key]'s value
     into [expect]; the survivor then takes the partition over and adopts
     the dead writer's limbo rows, or leaves them to the leak scan's
     drain. *)
  let kv_chain ?(adopt = true) op key expect () =
    let arena = Shm.create ~cfg:Config.small () in
    let a = Shm.join arena () in
    let store, h = Cxl_kv.create a ~buckets:1 ~partitions:1 ~value_words:1 in
    Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
    for k = 0 to 2 do
      Cxl_kv.put h ~key:k ~value:(10 + k)
    done;
    let b = Shm.join arena () in
    let hb = Cxl_kv.open_store b store in
    {
      arena;
      victim = a;
      op = (fun () -> op h key);
      after =
        (fun label ->
          if adopt then begin
            Alcotest.(check bool) (label ^ " takeover") true
              (Cxl_kv.takeover_partition hb 0);
            ignore (Cxl_kv.adopt_recovered hb);
            Cxl_kv.quiesce hb
          end
          else ignore (Shm.scan_leaking arena);
          let old = if key < 3 then Some (10 + key) else None in
          one_of label (Cxl_kv.get hb ~key) old expect;
          List.iter
            (fun k ->
              if k <> key then
                Alcotest.(check (option int)) (label ^ " other key")
                  (Some (10 + k)) (Cxl_kv.get hb ~key:k))
            [ 0; 1; 2 ]);
      release =
        (fun () ->
          Cxl_kv.close hb;
          Shm.leave b);
    }
  in
  let prepend h key = Cxl_kv.put h ~key ~value:(10 + key) in
  let put_cow h key = Cxl_kv.put_cow h ~key ~value:(100 + key) in
  let delete h key = ignore (Cxl_kv.delete h ~key) in
  let sweep (name, make) =
    let hits =
      let c = make () in
      let plan = Fault.nth_point ~n:max_int in
      c.victim.Ctx.fault <- plan;
      c.op ();
      Fault.hits plan
    in
    for n = 1 to hits do
      let c = make () in
      let label = Printf.sprintf "%s, crash %d" name n in
      c.victim.Ctx.fault <- Fault.nth_point ~n;
      (match c.op () with
      | () -> Alcotest.failf "%s: expected a crash" label
      | exception Fault.Crashed point -> Hashtbl.replace crossed point ());
      c.victim.Ctx.fault <- Fault.none;
      let m = Monitor.create ~mem:(Shm.mem c.arena) ~lay:(Shm.layout c.arena) () in
      Client.declare_failed (Monitor.ctx m) ~cid:c.victim.Ctx.cid;
      Alcotest.(check (list int)) (label ^ " recovered") [ c.victim.Ctx.cid ]
        (List.map fst (Monitor.recover_suspects m));
      c.after label;
      check_clean c.arena label;
      c.release ();
      ignore (Shm.scan_leaking c.arena);
      Alcotest.(check int) (label ^ " no block left") 0
        (Shm.validate c.arena).Validate.live_objects
    done
  in
  List.iter sweep
    [
      ("change_emb", change_emb);
      ("kv prepend", kv_chain prepend 3 (Some 13));
      ("kv put_cow mid", kv_chain put_cow 1 (Some 101));
      ("kv put_cow tail", kv_chain put_cow 0 (Some 100));
      ("kv delete mid", kv_chain ~adopt:false delete 1 None);
      ("kv delete tail", kv_chain ~adopt:false delete 0 None);
    ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("crossed " ^ Fault.point_name p)
        true
        (Hashtbl.mem crossed (Fault.point_name p)))
    Fault.[ Txn_after_redo; Swap_after_link; Swap_after_store ]

let test_alloc_crash_windows () =
  List.iter
    (fun point ->
      let arena, a, _b = setup () in
      (* Warm up so the crash hits the fast path, not page setup. *)
      let warm = Shm.cxl_malloc a ~size_bytes:32 () in
      Cxl_ref.drop warm;
      a.Ctx.fault <- Fault.at point ~nth:1;
      (try
         ignore (Shm.cxl_malloc a ~size_bytes:32 ());
         Alcotest.fail "expected crash"
       with Fault.Crashed _ -> ());
      a.Ctx.fault <- Fault.none;
      Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
      ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
      ignore (Shm.scan_leaking arena);
      check_clean arena ("alloc crash at " ^ Fault.point_name point))
    [
      Fault.Alloc_after_rootref;
      Fault.Alloc_after_link;
      Fault.Alloc_after_advance;
      Fault.Alloc_after_header;
    ]

let test_sender_crash_mid_send () =
  let arena, a, b = setup () in
  let ra = Shm.cxl_malloc a ~size_bytes:16 () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  (* Crash after the slot attach but before publishing the tail: the
     reference is in the queue but ownership never transferred (§5.2). *)
  a.Ctx.fault <- Fault.at Fault.Send_after_attach ~nth:1;
  (try
     ignore (Transfer.send q ra);
     Alcotest.fail "expected crash"
   with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  (* B opens the (now sender-closed) queue: nothing must arrive. *)
  (match Transfer.open_from b ~sender:a.Ctx.cid with
  | None -> () (* queue already fully reclaimed *)
  | Some qb ->
      (match Transfer.receive qb with
      | Transfer.Drained | Transfer.Empty -> ()
      | Transfer.Received _ -> Alcotest.fail "unpublished send must not arrive");
      Transfer.close qb);
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "no stranded objects" 0 v.Validate.live_objects;
  check_clean arena "sender crash mid-send"

(* Kill the receiver at every crash-point hit of a single [receive], then
   of a two-message [receive_batch]: after recovery and the sender's close
   every message is reclaimed — each one was owned either by the queue or
   by one of the dead receiver's RootRefs, never both and never neither. *)
let test_receive_crash_windows () =
  let crossed = Hashtbl.create 8 in
  let make () =
    let arena, a, b = setup () in
    let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
    for v = 1 to 2 do
      let r = Shm.cxl_malloc a ~size_bytes:16 () in
      Cxl_ref.write_word r 0 v;
      Alcotest.(check bool) "sent" true (Transfer.send q r = Transfer.Sent);
      Cxl_ref.drop r
    done;
    (arena, b, q, Option.get (Transfer.open_from b ~sender:a.Ctx.cid))
  in
  let sweep (name, op) =
    let hits =
      let _, b, _, qb = make () in
      let plan = Fault.nth_point ~n:max_int in
      b.Ctx.fault <- plan;
      op qb;
      Fault.hits plan
    in
    for n = 1 to hits do
      let arena, b, q, qb = make () in
      let label = Printf.sprintf "%s, crash %d" name n in
      b.Ctx.fault <- Fault.nth_point ~n;
      (match op qb with
      | () -> Alcotest.failf "%s: expected a crash" label
      | exception Fault.Crashed point -> Hashtbl.replace crossed point ());
      b.Ctx.fault <- Fault.none;
      Client.declare_failed (Shm.service_ctx arena) ~cid:b.Ctx.cid;
      ignore (Shm.recover arena ~failed_cid:b.Ctx.cid);
      Transfer.close q;
      ignore (Shm.scan_leaking arena);
      let v = Shm.validate arena in
      Alcotest.(check int) (label ^ " no stranded objects") 0
        v.Validate.live_objects;
      check_clean arena label
    done
  in
  List.iter sweep
    [
      ("receive", fun qb -> ignore (Transfer.receive qb));
      ("receive_batch", fun qb -> ignore (Transfer.receive_batch qb ~max:2));
    ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("crossed " ^ Fault.point_name p)
        true
        (Hashtbl.mem crossed (Fault.point_name p)))
    Fault.[ Txn_after_redo; Swap_after_link; Swap_after_store; Recv_after_advance ]

let test_recovery_is_idempotent () =
  let arena, a, _b = setup () in
  let _ = List.init 10 (fun _ -> Shm.cxl_malloc a ~size_bytes:32 ()) in
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  (* Run it again: nothing further must change, nothing must break. *)
  let r2 = Shm.recover arena ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "second pass finds nothing" 0 r2.Recovery.rootrefs_released;
  ignore (Shm.scan_leaking arena);
  check_clean arena "double recovery"

let test_recovery_restartable () =
  (* Crash the recovery service itself mid-way, then restart it. *)
  let arena, a, _b = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:2 () in
  let c1 = Shm.cxl_malloc a ~size_bytes:8 () in
  let c2 = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.set_emb parent 0 c1;
  Cxl_ref.set_emb parent 1 c2;
  Cxl_ref.drop c1;
  Cxl_ref.drop c2;
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let svc = Shm.service_ctx arena in
  let crashed = ref 0 in
  (* Keep crashing the service at successive points until it completes. *)
  let rec attempt n =
    if n > 200 then Alcotest.fail "recovery never completed";
    svc.Ctx.fault <- Fault.nth_point ~n;
    match Recovery.resume_interrupted svc with
    | exception Fault.Crashed _ ->
        incr crashed;
        svc.Ctx.fault <- Fault.none;
        attempt (n + 1)
    | Some _ -> ()
    | None -> (
        match Recovery.recover svc ~failed_cid:a.Ctx.cid with
        | _ -> ()
        | exception Fault.Crashed _ ->
            incr crashed;
            svc.Ctx.fault <- Fault.none;
            attempt (n + 1))
  in
  attempt 1;
  svc.Ctx.fault <- Fault.none;
  Alcotest.(check bool) "service did crash at least once" true (!crashed > 0);
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "everything reclaimed" 0 v.Validate.live_objects;
  check_clean arena "restartable recovery"

let test_crash_at_mid_phases_then_resume () =
  (* The directed version of restartability: the recovery service dies at
     the dedicated Recovery_mid_phases window — after transaction resume,
     before segment handling — and a fresh service finishes the job. *)
  let arena, a, _b = setup () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.set_emb parent 0 child;
  Cxl_ref.drop child;
  (* A dies mid-transaction, leaving a redo log to resume. *)
  a.Ctx.fault <- Fault.at Fault.Txn_after_cas ~nth:1;
  (try Cxl_ref.clear_emb parent 0 with Fault.Crashed _ -> ());
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let svc = Shm.service_ctx arena in
  svc.Ctx.fault <- Fault.at Fault.Recovery_mid_phases ~nth:1;
  (match Recovery.recover svc ~failed_cid:a.Ctx.cid with
  | _ -> Alcotest.fail "service must crash at recovery-mid-phases"
  | exception Fault.Crashed p ->
      Alcotest.(check string) "crashed at the new point" "recovery-mid-phases" p);
  svc.Ctx.fault <- Fault.none;
  (* The half-done recovery is recorded in the arena; a restarted service
     picks it up. *)
  (match Recovery.resume_interrupted svc with
  | Some _ -> ()
  | None -> Alcotest.fail "interrupted recovery not found on restart");
  Alcotest.(check bool) "nothing left to resume" true
    (Recovery.resume_interrupted svc = None);
  (* Run the client's recovery once more: it must be a no-op, not a
     double-apply. *)
  let r2 = Shm.recover arena ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "idempotent after resume" 0 r2.Recovery.rootrefs_released;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "everything reclaimed" 0 v.Validate.live_objects;
  check_clean arena "mid-phase crash resumed"

let test_segments_released_after_recovery () =
  let arena, a, _b = setup () in
  let before = Shm.free_segments arena in
  let _ = List.init 30 (fun _ -> Shm.cxl_malloc a ~size_bytes:64 ()) in
  Alcotest.(check bool) "segments consumed" true (Shm.free_segments arena < before);
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  Alcotest.(check int) "all segments back" before (Shm.free_segments arena)

let test_slot_reuse_after_recovery () =
  let arena, a, b = setup () in
  let cid = a.Ctx.cid in
  let _ = List.init 5 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  Client.declare_failed (Shm.service_ctx arena) ~cid;
  ignore (Shm.recover arena ~failed_cid:cid);
  (* The slot must be reusable, and eras must stay monotone so Condition 2
     can never confuse the new incarnation with the old one. *)
  let a2 = Shm.join arena ~cid () in
  Alcotest.(check bool) "era continues, not reset" true
    (Era.self a2 > Era.initial);
  let r = Shm.cxl_malloc a2 ~size_bytes:16 () in
  (* Cross-client txn still behaves. *)
  let rrb = Alloc.alloc_rootref b in
  Refc.attach b ~ref_addr:(Rootref.pptr_slot rrb) ~refed:(Cxl_ref.obj r);
  Reclaim.release_rootref b rrb;
  Cxl_ref.drop r;
  ignore (Shm.scan_leaking arena);
  check_clean arena "slot reuse"

(* A dead client holds the head of a chain deeper than any fixed-size
   teardown stack: each node is held only by its predecessor's embedded
   slot. Recovery must take every node to zero, so after the §5.3 scan
   nothing is alive and no count is left without a holder. *)
let test_deep_chain () =
  let arena, a, _b = setup () in
  let head = ref (Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 ()) in
  for _ = 2 to 200 do
    let node = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
    Cxl_ref.set_emb node 0 !head;
    Cxl_ref.drop !head;
    head := node
  done;
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "nothing alive" 0 v.Validate.live_objects;
  check_clean arena "deep chain"

(* A's huge run, shared with B, carries a RootRef page in its payload at
   the continuation's page-metadata offsets, naming an object B holds
   alone. Recovering A must read that continuation as payload: the
   words stay as written and B's object keeps its count. *)
let test_huge_payload_not_metadata () =
  let arena, a, b = setup () in
  let mine = Shm.cxl_malloc b ~size_bytes:8 () in
  let words = (Shm.layout arena).Layout.segment_words in
  let ra = Shm.cxl_malloc_words a ~data_words:words () in
  Cxlshm_check.Scenarios.plant_rootref_decoy ra ~target:(Cxl_ref.obj mine);
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  Alcotest.(check bool) "sent" true (Transfer.send q ra = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb =
    match Transfer.receive qb with
    | Transfer.Received r -> r
    | _ -> Alcotest.fail "receive"
  in
  let payload () = List.init words (Cxl_ref.read_word rb) in
  let before = payload () in
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  Alcotest.(check (list int)) "payload unchanged" before (payload ());
  Alcotest.(check int) "B's object keeps its count" 1
    (Refc.ref_cnt b (Cxl_ref.obj mine));
  check_clean arena "huge payload"

(* Recovery does not block peers. Between its RootRef phase and its
   segment phase, B drops the last count of A's shared huge object, which
   frees A's run, and C claims the run's head segment (as the allocator
   does before it carves a page). The segment phase must leave C's
   segment alone, not take it for A's count-zero huge head. *)
let test_segment_claimed_mid_recovery () =
  let arena, a, b = setup () in
  let c = Shm.join arena () in
  let lay = Shm.layout arena in
  let ra = Shm.cxl_malloc_words a ~data_words:lay.Layout.segment_words () in
  let run = Layout.segment_of_addr lay (Cxl_ref.obj ra) in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  Alcotest.(check bool) "sent" true (Transfer.send q ra = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let rb =
    match Transfer.receive qb with
    | Transfer.Received r -> r
    | _ -> Alcotest.fail "receive"
  in
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let claimed = ref false in
  Fault.on_point :=
    Some
      (fun p ->
        if p = Fault.Recovery_mid_phases && not !claimed then begin
          Cxl_ref.drop rb;
          claimed := Segment.claim c run
        end);
  Fun.protect
    ~finally:(fun () -> Fault.on_point := None)
    (fun () -> ignore (Shm.recover arena ~failed_cid:a.Ctx.cid));
  Alcotest.(check bool) "C claimed the freed head" true !claimed;
  Alcotest.(check (option int)) "C still owns it" (Some c.Ctx.cid)
    (Segment.owner c run);
  Alcotest.(check bool) "still active" true
    (Segment.state c run = Segment.Active)

let suite =
  [
    Alcotest.test_case "reap simple" `Quick test_reap_simple;
    Alcotest.test_case "reap preserves shared" `Quick test_reap_preserves_shared;
    Alcotest.test_case "resume attach after CAS" `Quick test_resume_attach_after_cas;
    Alcotest.test_case "uncommitted not redone" `Quick test_resume_not_committed;
    Alcotest.test_case "re-point crash windows" `Quick test_repoint_crash_windows;
    Alcotest.test_case "alloc crash windows" `Quick test_alloc_crash_windows;
    Alcotest.test_case "sender crash mid-send" `Quick test_sender_crash_mid_send;
    Alcotest.test_case "receive crash windows" `Quick test_receive_crash_windows;
    Alcotest.test_case "recovery idempotent" `Quick test_recovery_is_idempotent;
    Alcotest.test_case "recovery restartable" `Quick test_recovery_restartable;
    Alcotest.test_case "crash at mid-phases, resume" `Quick test_crash_at_mid_phases_then_resume;
    Alcotest.test_case "segments released" `Quick test_segments_released_after_recovery;
    Alcotest.test_case "slot reuse after recovery" `Quick test_slot_reuse_after_recovery;
    Alcotest.test_case "deep chain" `Quick test_deep_chain;
    Alcotest.test_case "huge payload is not page metadata" `Quick
      test_huge_payload_not_metadata;
    Alcotest.test_case "segment claimed mid-recovery" `Quick
      test_segment_claimed_mid_recovery;
  ]
