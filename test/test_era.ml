(* The era matrix and commit-detection conditions of §4.3. *)

open Cxlshm

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  (arena, a, b)

let test_initial_era () =
  let _, a, _ = setup () in
  Alcotest.(check int) "starts at 1" Era.initial (Era.self a)

let test_era_advances_per_txn () =
  let _, a, _ = setup () in
  let r1 = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let r2 = Shm.cxl_malloc a ~size_bytes:8 () in
  let e0 = Era.self a in
  Cxl_ref.set_emb r1 0 r2;
  Alcotest.(check int) "attach advances era" (e0 + 1) (Era.self a);
  Cxl_ref.clear_emb r1 0;
  Alcotest.(check int) "detach advances era" (e0 + 2) (Era.self a);
  Cxl_ref.drop r1;
  Cxl_ref.drop r2

let test_change_emb_eras () =
  let _, a, _ = setup () in
  let p = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let x = Shm.cxl_malloc a ~size_bytes:8 () in
  let y = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.set_emb p 0 x;
  let e0 = Era.self a in
  Cxl_ref.change_emb p 0 y;
  (* the transient RootRef's attach, the swap, the release's detach *)
  Alcotest.(check int) "change_emb = three eras" (e0 + 3) (Era.self a);
  List.iter Cxl_ref.drop [ p; x; y ]

let test_observation_propagates () =
  let _, a, b = setup () in
  (* A touches an object, then B touches the same object: B must record
     A's era in Era[b][a] (Fig 4 (c) lines 5-6). *)
  let ra = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:2 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.set_emb ra 0 child;
  let a_era_at_touch = Era.self a - 1 in
  (* B attaches to the same child object via its own rootref. *)
  let rr = Alloc.alloc_rootref b in
  Refc.attach b ~ref_addr:(Rootref.pptr_slot rr) ~refed:(Cxl_ref.obj child);
  let seen = Era.read b ~i:b.Ctx.cid ~j:a.Ctx.cid in
  Alcotest.(check bool)
    (Printf.sprintf "Era[b][a]=%d >= %d" seen a_era_at_touch)
    true (seen >= a_era_at_touch);
  Reclaim.release_rootref b rr;
  Cxl_ref.drop ra;
  Cxl_ref.drop child

let test_committed_condition1 () =
  let _, a, _ = setup () in
  let cidb = 7 in
  (* Simulate: client [cidb]'s CAS committed at era e, header untouched. *)
  let r = Shm.cxl_malloc a ~size_bytes:8 () in
  let obj = Cxl_ref.obj r in
  let hdr = Obj_header.header_of_obj obj in
  Cxlshm_shmem.Mem.unsafe_poke a.Ctx.mem hdr
    (Obj_header.make ~lcid:cidb ~lera:5 ~ref_cnt:2);
  Cxlshm_shmem.Mem.unsafe_poke a.Ctx.mem (Layout.era_cell a.Ctx.lay cidb cidb) 5;
  Alcotest.(check bool) "condition 1 holds" true
    (Refc.committed a ~cid:cidb ~obj ~era:5);
  Alcotest.(check bool) "wrong era does not commit" false
    (Refc.committed a ~cid:cidb ~obj ~era:6);
  (* restore and clean up *)
  Cxlshm_shmem.Mem.unsafe_poke a.Ctx.mem hdr
    (Obj_header.make ~lcid:a.Ctx.cid ~lera:1 ~ref_cnt:1);
  Cxl_ref.drop r

let test_committed_condition2 () =
  let _, a, b = setup () in
  (* B commits at era e on an object, then A overwrites the header; B's
     commit must still be provable through Era[a][b] (Condition 2). *)
  let shared = Shm.cxl_malloc a ~size_bytes:8 () in
  let obj = Cxl_ref.obj shared in
  let e_b = Era.self b in
  let rr_b = Alloc.alloc_rootref b in
  Refc.attach b ~ref_addr:(Rootref.pptr_slot rr_b) ~refed:obj;
  (* A touches the header afterwards (observing B's era). *)
  let rr_a = Alloc.alloc_rootref a in
  Refc.attach a ~ref_addr:(Rootref.pptr_slot rr_a) ~refed:obj;
  (* Header now carries A's lcid; Condition 1 fails for B, Condition 2
     must succeed. *)
  let u = Obj_header.unpack (Ctx.load a (Obj_header.header_of_obj obj)) in
  Alcotest.(check bool) "header overwritten by A" true
    (u.Obj_header.lcid = Some a.Ctx.cid);
  Alcotest.(check bool) "condition 2 proves B's commit" true
    (Refc.committed a ~cid:b.Ctx.cid ~obj ~era:e_b);
  Reclaim.release_rootref a rr_a;
  Reclaim.release_rootref b rr_b;
  Cxl_ref.drop shared

let test_uncommitted_not_proven () =
  let _, a, b = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:8 () in
  let obj = Cxl_ref.obj r in
  (* B never touched this object; no era should prove a commit. *)
  let e_b = Era.self b in
  Alcotest.(check bool) "no phantom commit" false
    (Refc.committed a ~cid:b.Ctx.cid ~obj ~era:e_b);
  Cxl_ref.drop r

let test_refcount_violations_detected () =
  let _, a, _ = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let dead = Shm.cxl_malloc a ~size_bytes:8 () in
  let dead_obj = Cxl_ref.obj dead in
  Cxl_ref.drop dead;
  (* attaching to a freed object must raise *)
  (try
     Refc.attach a ~ref_addr:(Obj_header.emb_slot (Cxl_ref.obj r) 0)
       ~refed:dead_obj;
     Alcotest.fail "expected Refcount_violation"
   with Refc.Refcount_violation _ -> ());
  Cxl_ref.drop r

(* Property: after any interleaved sequence of attach/detach pairs from two
   clients on a shared object, the count equals 1 + (live extra refs), and
   eras are strictly monotone. *)
let prop_refcount_balanced =
  QCheck.Test.make ~name:"refcount balanced under interleaving" ~count:60
    QCheck.(list_of_size Gen.(1 -- 40) (pair bool bool))
    (fun ops ->
      let arena = Shm.create ~cfg:Config.small () in
      let a = Shm.join arena () in
      let b = Shm.join arena () in
      let base = Shm.cxl_malloc a ~size_bytes:8 () in
      let obj = Cxl_ref.obj base in
      let held_a = ref [] and held_b = ref [] in
      List.iter
        (fun (use_a, is_attach) ->
          let ctx = if use_a then a else b in
          let held = if use_a then held_a else held_b in
          if is_attach then begin
            let rr = Alloc.alloc_rootref ctx in
            Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:obj;
            held := rr :: !held
          end
          else
            match !held with
            | [] -> ()
            | rr :: rest ->
                held := rest;
                ignore
                  (Refc.detach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:obj);
                Alloc.free_rootref ctx rr
        )
        ops;
      let expected = 1 + List.length !held_a + List.length !held_b in
      Refc.ref_cnt a obj = expected)

let suite =
  [
    Alcotest.test_case "initial era" `Quick test_initial_era;
    Alcotest.test_case "era advances per txn" `Quick test_era_advances_per_txn;
    Alcotest.test_case "change_emb takes three eras" `Quick test_change_emb_eras;
    Alcotest.test_case "observation propagates" `Quick test_observation_propagates;
    Alcotest.test_case "condition 1" `Quick test_committed_condition1;
    Alcotest.test_case "condition 2" `Quick test_committed_condition2;
    Alcotest.test_case "uncommitted not proven" `Quick test_uncommitted_not_proven;
    Alcotest.test_case "violations detected" `Quick test_refcount_violations_detected;
    Generators.to_alcotest prop_refcount_balanced;
  ]
