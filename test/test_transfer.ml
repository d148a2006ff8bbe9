(* Reference-transfer queues (§5.2): capacity, ordering, closing, cleanup,
   directory behaviour. *)

open Cxlshm

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena (), Shm.join arena ())

let mk ctx v =
  let r = Shm.cxl_malloc ctx ~size_bytes:8 () in
  Cxl_ref.write_word r 0 v;
  r

let test_fifo_order () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:8 in
  let sent = List.init 5 (fun i -> mk a (100 + i)) in
  List.iter (fun r -> assert (Transfer.send q r = Transfer.Sent)) sent;
  List.iter Cxl_ref.drop sent;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  List.iteri
    (fun i _ ->
      match Transfer.receive qb with
      | Transfer.Received r ->
          Alcotest.(check int) (Printf.sprintf "msg %d" i) (100 + i)
            (Cxl_ref.read_word r 0);
          Cxl_ref.drop r
      | Transfer.Empty | Transfer.Drained -> Alcotest.fail "expected message")
    sent;
  Transfer.close q;
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_pending_count () =
  let _, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  Alcotest.(check int) "empty" 0 (Transfer.pending q);
  let r = mk a 1 in
  ignore (Transfer.send q r);
  ignore (Transfer.send q r);
  Alcotest.(check int) "two pending" 2 (Transfer.pending q);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  (match Transfer.receive qb with Transfer.Received x -> Cxl_ref.drop x | _ -> ());
  Alcotest.(check int) "one after receive" 1 (Transfer.pending qb);
  Cxl_ref.drop r

let test_capacity_full () =
  let _, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  let r = mk a 1 in
  Alcotest.(check bool) "1" true (Transfer.send q r = Transfer.Sent);
  Alcotest.(check bool) "2" true (Transfer.send q r = Transfer.Sent);
  Alcotest.(check bool) "full" true (Transfer.send q r = Transfer.Full);
  (* consuming makes room *)
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  (match Transfer.receive qb with
  | Transfer.Received x -> Cxl_ref.drop x
  | _ -> Alcotest.fail "recv");
  Alcotest.(check bool) "room again" true (Transfer.send q r = Transfer.Sent);
  Cxl_ref.drop r

let test_send_shares_not_moves () =
  let _, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let r = mk a 7 in
  assert (Transfer.send q r = Transfer.Sent);
  (* the sender's handle is still usable after sending *)
  Alcotest.(check int) "sender still reads" 7 (Cxl_ref.read_word r 0);
  Alcotest.(check int) "count: rootref + queue slot" 2
    (Refc.ref_cnt a (Cxl_ref.obj r));
  Cxl_ref.drop r

let test_receiver_sees_sender_close () =
  let _, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let r = mk a 9 in
  assert (Transfer.send q r = Transfer.Sent);
  Cxl_ref.drop r;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Transfer.close q;
  (* in-flight message still delivered, then Drained *)
  (match Transfer.receive qb with
  | Transfer.Received x -> Cxl_ref.drop x
  | _ -> Alcotest.fail "in-flight message lost");
  (match Transfer.receive qb with
  | Transfer.Drained -> ()
  | _ -> Alcotest.fail "expected Drained");
  Transfer.close qb

let test_sender_sees_receiver_close () =
  let _, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Transfer.close qb;
  let r = mk a 3 in
  Alcotest.(check bool) "closed" true (Transfer.send q r = Transfer.Closed);
  Cxl_ref.drop r;
  Transfer.close q

let test_both_close_frees_everything () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  (* leave an unconsumed message in the ring *)
  let r = mk a 4 in
  assert (Transfer.send q r = Transfer.Sent);
  Cxl_ref.drop r;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Transfer.close q;
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "ring message reclaimed with the queue" 0
    v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_multiple_queues_between_pairs () =
  let arena, a, b = setup () in
  let c = Shm.join arena () in
  let qab = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let qac = Transfer.connect a ~receiver:c.Ctx.cid ~capacity:4 in
  let qba = Transfer.connect b ~receiver:a.Ctx.cid ~capacity:4 in
  let rb = mk a 1 and rc = mk a 2 and ra = mk b 3 in
  assert (Transfer.send qab rb = Transfer.Sent);
  assert (Transfer.send qac rc = Transfer.Sent);
  assert (Transfer.send qba ra = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let qc = Option.get (Transfer.open_from c ~sender:a.Ctx.cid) in
  let qa = Option.get (Transfer.open_from a ~sender:b.Ctx.cid) in
  let recv q =
    match Transfer.receive q with
    | Transfer.Received r ->
        let v = Cxl_ref.read_word r 0 in
        Cxl_ref.drop r;
        v
    | _ -> Alcotest.fail "recv"
  in
  Alcotest.(check int) "a->b" 1 (recv qb);
  Alcotest.(check int) "a->c" 2 (recv qc);
  Alcotest.(check int) "b->a" 3 (recv qa);
  List.iter Cxl_ref.drop [ rb; rc; ra ];
  List.iter Transfer.close [ qab; qac; qba; qb; qc; qa ];
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_directory_exhaustion () =
  let cfg = { Config.small with Config.queue_slots = 2 } in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let q1 = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  let q2 = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  Alcotest.check_raises "directory full"
    (Failure "Transfer.connect: queue directory full") (fun () ->
      ignore (Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2));
  (* closing a pair frees the slot for reuse *)
  let qb1 = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Transfer.close q1;
  Transfer.close qb1;
  let q3 = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  Transfer.close q2;
  Transfer.close q3

let test_wraparound () =
  let _, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:3 in
  let qb = ref None in
  for round = 1 to 20 do
    let r = mk a round in
    assert (Transfer.send q r = Transfer.Sent);
    Cxl_ref.drop r;
    if !qb = None then qb := Transfer.open_from b ~sender:a.Ctx.cid;
    match Transfer.receive (Option.get !qb) with
    | Transfer.Received x ->
        Alcotest.(check int) (Printf.sprintf "round %d" round) round
          (Cxl_ref.read_word x 0);
        Cxl_ref.drop x
    | _ -> Alcotest.fail "recv"
  done

(* Batched handoff: one publish covers the whole batch, FIFO order and
   exactly-once delivery are preserved, and a partially-accepted batch can
   be resumed from the unsent suffix. *)
let test_batch_roundtrip () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:8 in
  let refs = List.init 5 (fun i -> mk a (200 + i)) in
  let n, res = Transfer.send_batch q refs in
  Alcotest.(check int) "all sent" 5 n;
  Alcotest.(check bool) "Sent" true (res = Transfer.Sent);
  List.iter Cxl_ref.drop refs;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let drain ~max =
    match Transfer.receive_batch qb ~max with
    | Transfer.Received_batch rs ->
        List.map
          (fun r ->
            let v = Cxl_ref.read_word r 0 in
            Cxl_ref.drop r;
            v)
          rs
    | Transfer.Batch_empty | Transfer.Batch_drained ->
        Alcotest.fail "expected a batch"
  in
  Alcotest.(check (list int)) "first three in order" [ 200; 201; 202 ]
    (drain ~max:3);
  Alcotest.(check (list int)) "rest" [ 203; 204 ] (drain ~max:8);
  (match Transfer.receive_batch qb ~max:8 with
  | Transfer.Batch_empty -> ()
  | _ -> Alcotest.fail "expected Batch_empty");
  Transfer.close q;
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "nothing stranded" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_batch_partial_then_resume () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  let refs = List.init 4 (fun i -> mk a (i + 1)) in
  let n, res = Transfer.send_batch q refs in
  Alcotest.(check int) "room-limited" 2 n;
  Alcotest.(check bool) "Full" true (res = Transfer.Full);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let drain ~max =
    match Transfer.receive_batch qb ~max with
    | Transfer.Received_batch rs ->
        List.map
          (fun r ->
            let v = Cxl_ref.read_word r 0 in
            Cxl_ref.drop r;
            v)
          rs
    | _ -> Alcotest.fail "expected a batch"
  in
  Alcotest.(check (list int)) "accepted prefix" [ 1; 2 ] (drain ~max:8);
  let rest = List.filteri (fun i _ -> i >= 2) refs in
  let n2, res2 = Transfer.send_batch q rest in
  Alcotest.(check int) "suffix sent" 2 n2;
  Alcotest.(check bool) "Sent" true (res2 = Transfer.Sent);
  Alcotest.(check (list int)) "suffix in order" [ 3; 4 ] (drain ~max:8);
  List.iter Cxl_ref.drop refs;
  Transfer.close q;
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

(* A sender killed between the per-message attaches and the single batch
   publish has sent nothing: the tail never moved, so the receiver sees
   no partial batch, and recovery reclaims the already-attached slot
   references with the dead client. *)
let test_batch_crash_before_publish () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:8 in
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let refs = List.init 3 (fun i -> mk a (i + 1)) in
  a.Ctx.fault <- Fault.at Fault.Send_after_attach ~nth:2;
  (try
     ignore (Transfer.send_batch q refs);
     Alcotest.fail "expected crash"
   with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  Alcotest.(check int) "nothing published" 0 (Transfer.pending q);
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  (match Transfer.receive_batch qb ~max:8 with
  | Transfer.Batch_drained -> ()
  | Transfer.Received_batch _ -> Alcotest.fail "unpublished batch leaked out"
  | Transfer.Batch_empty -> Alcotest.fail "expected Drained after recovery");
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "no stranded objects" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

(* Regression for the receive-side ordering fix: the head advance is now
   fenced and flushed before control returns, with a crash point right
   after. A receiver killed there has durably consumed the message — it
   must count as gone immediately and must never be replayed after
   recovery. *)
let test_crash_recv_after_advance () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let r1 = mk a 1 and r2 = mk a 2 in
  assert (Transfer.send q r1 = Transfer.Sent);
  assert (Transfer.send q r2 = Transfer.Sent);
  Cxl_ref.drop r1;
  Cxl_ref.drop r2;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  b.Ctx.fault <- Fault.at Fault.Recv_after_advance ~nth:1;
  (try
     ignore (Transfer.receive qb);
     Alcotest.fail "expected crash"
   with Fault.Crashed _ -> ());
  b.Ctx.fault <- Fault.none;
  (* Head was published before the crash: exactly one message remains. *)
  Alcotest.(check int) "head durably advanced" 1 (Transfer.pending q);
  Client.declare_failed (Shm.service_ctx arena) ~cid:b.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:b.Ctx.cid);
  Alcotest.(check int) "recovery does not rewind the head" 1
    (Transfer.pending q);
  Transfer.close q;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "no stranded objects" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

(* recover_endpoints with a live peer, sequential flavour: the monitor
   closes the dead sender's half; the surviving receiver must still drain
   every in-flight message in order before seeing Drained. *)
let test_recover_dead_sender_live_receiver () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:8 in
  for i = 1 to 6 do
    let r = mk a (10 + i) in
    assert (Transfer.send q r = Transfer.Sent);
    Cxl_ref.drop r
  done;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  for i = 1 to 6 do
    match Transfer.receive qb with
    | Transfer.Received r ->
        Alcotest.(check int) (Printf.sprintf "msg %d survives" i) (10 + i)
          (Cxl_ref.read_word r 0);
        Cxl_ref.drop r
    | Transfer.Empty | Transfer.Drained ->
        Alcotest.fail "in-flight message lost to sender recovery"
  done;
  (match Transfer.receive qb with
  | Transfer.Drained -> ()
  | _ -> Alcotest.fail "expected Drained after sender recovery");
  Transfer.close qb;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

(* Same scenario, genuinely racing: the receiver drains from the main
   domain while Shm.recover closes the dead sender's endpoint from another
   domain. Whatever the interleaving, the receiver sees all six messages
   in order and then Drained — never a lost or duplicated message. *)
let test_recover_endpoints_races_live_receiver () =
  for _round = 1 to 4 do
    let arena, a, b = setup () in
    let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:8 in
    for i = 1 to 6 do
      let r = mk a (100 + i) in
      assert (Transfer.send q r = Transfer.Sent);
      Cxl_ref.drop r
    done;
    let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
    Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
    let recoverer =
      Domain.spawn (fun () -> ignore (Shm.recover arena ~failed_cid:a.Ctx.cid))
    in
    let got = ref [] in
    let drained = ref false in
    while not !drained do
      match Transfer.receive qb with
      | Transfer.Received r ->
          got := Cxl_ref.read_word r 0 :: !got;
          Cxl_ref.drop r
      | Transfer.Empty -> Domain.cpu_relax ()
      | Transfer.Drained -> drained := true
    done;
    Domain.join recoverer;
    Alcotest.(check (list int)) "all six, in order"
      [ 101; 102; 103; 104; 105; 106 ]
      (List.rev !got);
    Transfer.close qb;
    ignore (Shm.scan_leaking arena);
    let v = Shm.validate arena in
    Alcotest.(check bool)
      ("clean: " ^ String.concat ";" v.Validate.errors)
      true (Validate.is_clean v)
  done

(* A loan moves the lender's only reference into the ring; the receiver
   reads it in place and takes no count; the lender's next lend into the
   slot frees the consumed message; teardown frees the rest. A shared
   handle is refused before anything moves. *)
let test_lend_roundtrip () =
  let arena, a, b = setup () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:1 in
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Alcotest.(check bool) "empty" true (Transfer.peek qb = None);
  let r1 = mk a 1 in
  let o1 = Cxl_ref.obj r1 in
  let r1' = Cxl_ref.clone r1 in
  (match Transfer.lend q r1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lending a shared handle must raise");
  Alcotest.(check int) "nothing lent" 0 (Transfer.pending q);
  Cxl_ref.drop r1';
  Alcotest.(check bool) "lent" true (Transfer.lend q r1 = Transfer.Sent);
  Alcotest.(check bool) "handle consumed" false (Cxl_ref.is_live r1);
  let r9 = mk a 9 in
  Alcotest.(check bool) "ring full" true (Transfer.lend q r9 = Transfer.Full);
  Alcotest.(check bool) "a refused handle stays live" true (Cxl_ref.is_live r9);
  Cxl_ref.drop r9;
  Alcotest.(check (option int)) "peek names the object" (Some o1)
    (Transfer.peek qb);
  Alcotest.(check int) "one count, the slot's" 1 (Refc.ref_cnt b o1);
  Transfer.advance qb;
  Alcotest.(check int) "still the slot's after advance" 1 (Refc.ref_cnt b o1);
  let r2 = mk a 2 in
  let o2 = Cxl_ref.obj r2 in
  Alcotest.(check bool) "second lend" true (Transfer.lend q r2 = Transfer.Sent);
  Alcotest.(check int) "leftover freed by the lend" 0 (Refc.ref_cnt a o1);
  Alcotest.(check (option int)) "peek the second" (Some o2) (Transfer.peek qb);
  Transfer.close qb;
  Transfer.close q;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) "clean" true (Validate.is_clean v);
  Alcotest.(check int) "teardown freed the unserved loan" 0
    v.Validate.live_objects

let suite =
  [
    Alcotest.test_case "fifo order" `Quick test_fifo_order;
    Alcotest.test_case "pending count" `Quick test_pending_count;
    Alcotest.test_case "capacity / Full" `Quick test_capacity_full;
    Alcotest.test_case "send shares (not moves)" `Quick test_send_shares_not_moves;
    Alcotest.test_case "receiver sees sender close" `Quick test_receiver_sees_sender_close;
    Alcotest.test_case "sender sees receiver close" `Quick test_sender_sees_receiver_close;
    Alcotest.test_case "both close frees all" `Quick test_both_close_frees_everything;
    Alcotest.test_case "multiple queues" `Quick test_multiple_queues_between_pairs;
    Alcotest.test_case "directory exhaustion" `Quick test_directory_exhaustion;
    Alcotest.test_case "ring wraparound" `Quick test_wraparound;
    Alcotest.test_case "lend, peek, advance" `Quick test_lend_roundtrip;
    Alcotest.test_case "batch roundtrip" `Quick test_batch_roundtrip;
    Alcotest.test_case "batch partial then resume" `Quick
      test_batch_partial_then_resume;
    Alcotest.test_case "batch crash before publish" `Quick
      test_batch_crash_before_publish;
    Alcotest.test_case "crash at recv-after-advance" `Quick
      test_crash_recv_after_advance;
    Alcotest.test_case "dead sender, live receiver (sequential)" `Quick
      test_recover_dead_sender_live_receiver;
    Alcotest.test_case "recover_endpoints races live receiver" `Slow
      test_recover_endpoints_races_live_receiver;
  ]
