(* The offline verify-and-repair pipeline: hand-crafted device damage
   (torn headers, wild references, broken page geometry) must fail
   verification, and one Fsck.repair must restore every structural
   invariant — idempotently, preserving what the durable roots anchor.
   Ends with the full soak matrix: every crash point x every fault
   schedule x both backends, zero post-fsck failures. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Soak = Cxlshm_check.Soak

let mem_lay arena = (Shm.mem arena, Shm.layout arena)

let check_clean arena = Validate.is_clean (Shm.validate arena)

let repair arena = Shm.fsck arena

(* A published object survives fsck (the durable root anchors it); the
   publishing client's slot does not — fsck treats every recorded client
   as dead, which offline they are. *)
let test_clean_arena_nothing_to_fix () =
  let arena = Shm.create ~cfg:Config.small () in
  let a = Shm.join arena () in
  let keep = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_word keep 0 4242;
  Named_roots.publish a ~name:"keep" keep;
  Cxl_ref.drop keep;
  let scratch = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.drop scratch;
  Alcotest.(check bool) "pre-check clean" true (check_clean arena);
  let r = repair arena in
  Alcotest.(check bool) "repair verdict clean" true (Fsck.clean r);
  Alcotest.(check int) "client swept" 1 r.Fsck.clients_swept;
  Alcotest.(check int) "nothing quarantined" 0 r.Fsck.pages_quarantined;
  Alcotest.(check int) "no torn headers" 0 r.Fsck.torn_headers_cleared;
  Alcotest.(check int) "no wild refs" 0 r.Fsck.wild_refs_cleared;
  Alcotest.(check int) "nothing freed" 0 r.Fsck.unreachable_freed;
  let b = Shm.join arena () in
  match Named_roots.lookup b ~name:"keep" with
  | None -> Alcotest.fail "published object lost by a no-op repair"
  | Some k ->
      Alcotest.(check int) "payload intact" 4242 (Cxl_ref.read_word k 0);
      Cxl_ref.drop k

let test_torn_header_repaired () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, _lay = mem_lay arena in
  let a = Shm.join arena () in
  let keep = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_word keep 0 777;
  Named_roots.publish a ~name:"keep" keep;
  let obj = Cxl_ref.obj keep in
  Cxl_ref.drop keep;
  Shm.leave a;
  (* a stuck word left a stale header: refcount 9, a dead client's mark *)
  Mem.unsafe_poke mem
    (Obj_header.header_of_obj obj)
    (Obj_header.make ~lcid:3 ~lera:77 ~ref_cnt:9);
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check bool) "a count was rewritten" true (r.Fsck.counts_fixed >= 1);
  let b = Shm.join arena () in
  (match Named_roots.lookup b ~name:"keep" with
  | None -> Alcotest.fail "anchored object lost"
  | Some k ->
      Alcotest.(check int) "payload intact" 777 (Cxl_ref.read_word k 0);
      Cxl_ref.drop k);
  Alcotest.(check bool) "still clean" true (check_clean arena)

let test_wild_ref_cleared_unreachable_freed () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, lay = mem_lay arena in
  let a = Shm.join arena () in
  let parent = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.set_emb parent 0 child;
  Cxl_ref.drop child;
  Named_roots.publish a ~name:"parent" parent;
  let pobj = Cxl_ref.obj parent in
  Cxl_ref.drop parent;
  Shm.leave a;
  (* the embedded reference word goes wild: it now points into an
     uninitialised page area. The child keeps its count but lost its only
     holder. *)
  Mem.unsafe_poke mem
    (Obj_header.emb_slot pobj 0)
    (Layout.segment_base lay (Config.small.Config.num_segments - 1) + 5);
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check bool) "wild ref cleared" true (r.Fsck.wild_refs_cleared >= 1);
  Alcotest.(check bool) "orphaned child freed" true (r.Fsck.unreachable_freed >= 1);
  let b = Shm.join arena () in
  (match Named_roots.lookup b ~name:"parent" with
  | None -> Alcotest.fail "anchored parent lost"
  | Some p ->
      Alcotest.(check int) "wild slot now empty" 0 (Cxl_ref.get_emb p 0);
      Cxl_ref.drop p);
  Alcotest.(check bool) "still clean" true (check_clean arena)

let test_broken_geometry_quarantined () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, lay = mem_lay arena in
  let a = Shm.join arena () in
  let r1 = Shm.cxl_malloc a ~size_bytes:32 () in
  let _, gid = Page.block_of_addr a (Cxl_ref.obj r1) in
  Named_roots.publish a ~name:"doomed" r1;
  Cxl_ref.drop r1;
  Shm.leave a;
  (* the page's block-size word no longer matches its size class: its
     geometry is unusable, nothing on it can be trusted *)
  Mem.unsafe_poke mem (Layout.page_block_words lay ~gid) 3;
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let rep = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean rep);
  Alcotest.(check bool) "page quarantined" true (rep.Fsck.pages_quarantined >= 1);
  let b = Shm.join arena () in
  Alcotest.(check int) "page marked quarantined"
    (Config.kind_quarantined Config.small)
    (Page.kind b ~gid);
  (* the object lived on the quarantined page: its anchor must be gone,
     not dangling *)
  (match Named_roots.lookup b ~name:"doomed" with
  | None -> ()
  | Some _ -> Alcotest.fail "root still points into a quarantined page");
  (* allocation keeps working and never lands on the quarantined page *)
  let held = List.init 50 (fun _ -> Shm.cxl_malloc b ~size_bytes:32 ()) in
  List.iter
    (fun r ->
      let _, g = Page.block_of_addr b (Cxl_ref.obj r) in
      Alcotest.(check bool) "quarantined page never reused" true (g <> gid))
    held;
  List.iter Cxl_ref.drop held;
  Shm.leave b;
  Alcotest.(check bool) "still clean" true (check_clean arena)

let test_repair_idempotent () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, _lay = mem_lay arena in
  let a = Shm.join arena () in
  let parent = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.set_emb parent 0 child;
  Cxl_ref.drop child;
  Named_roots.publish a ~name:"parent" parent;
  let pobj = Cxl_ref.obj parent in
  Cxl_ref.drop parent;
  (* two kinds of damage at once, with the client still recorded *)
  Mem.unsafe_poke mem (Obj_header.emb_slot pobj 0) 1;
  Mem.unsafe_poke mem
    (Obj_header.header_of_obj pobj)
    (Obj_header.make ~lcid:2 ~lera:5 ~ref_cnt:6);
  Alcotest.(check bool) "damage detected" false (check_clean arena);
  let r1 = repair arena in
  Alcotest.(check bool) "first repair clean" true (Fsck.clean r1);
  let r2 = repair arena in
  Alcotest.(check bool) "second repair clean" true (Fsck.clean r2);
  Alcotest.(check int) "nothing left: quarantines" 0 r2.Fsck.pages_quarantined;
  Alcotest.(check int) "nothing left: torn headers" 0 r2.Fsck.torn_headers_cleared;
  Alcotest.(check int) "nothing left: wild refs" 0 r2.Fsck.wild_refs_cleared;
  Alcotest.(check int) "nothing left: frees" 0 r2.Fsck.unreachable_freed;
  Alcotest.(check int) "nothing left: counts" 0 r2.Fsck.counts_fixed;
  Alcotest.(check int) "nothing left: clients" 0 r2.Fsck.clients_swept

let tmp = Filename.temp_file "cxlshm_fsck" ".pool"

let test_damaged_image_roundtrip () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, _lay = mem_lay arena in
  let a = Shm.join arena () in
  let keep = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.write_word keep 0 31337;
  Named_roots.publish a ~name:"keep" keep;
  let obj = Cxl_ref.obj keep in
  Cxl_ref.drop keep;
  Mem.unsafe_poke mem
    (Obj_header.header_of_obj obj)
    (Obj_header.make ~lcid:1 ~lera:2 ~ref_cnt:5);
  Shm.save arena tmp;
  (* load_raw presents the image as saved: the damage must survive the
     round trip for fsck to see it *)
  let loaded = Shm.load_raw tmp in
  Alcotest.(check bool) "damage survived the image" false (check_clean loaded);
  let r = Shm.fsck loaded in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  let b = Shm.join loaded () in
  match Named_roots.lookup b ~name:"keep" with
  | None -> Alcotest.fail "anchored object lost across save/fsck"
  | Some k -> Alcotest.(check int) "payload intact" 31337 (Cxl_ref.read_word k 0)

(* The headline guarantee: every crash point x every device-fault
   schedule x both backends recovers to a clean arena. *)
let test_soak_matrix () =
  let runs = Soak.run_matrix ~seed:20250806 ~steps:150 () in
  Alcotest.(check int) "full matrix size"
    (2 * List.length Soak.default_schedules * (1 + List.length Fault.all_points))
    (List.length runs);
  List.iter
    (fun r ->
      if not r.Soak.clean then
        Alcotest.failf "unclean run: %s/%s/%s seed=%d" r.Soak.backend
          r.Soak.schedule r.Soak.point r.Soak.seed)
    runs;
  (* faults actually flowed through the pipeline somewhere in the sweep *)
  Alcotest.(check bool) "faults injected" true
    (List.exists (fun r -> r.Soak.dev_faults > 0) runs);
  Alcotest.(check bool) "retries exercised" true
    (List.exists (fun r -> r.Soak.retries > 0) runs);
  Alcotest.(check bool) "escalations exercised" true
    (List.exists (fun r -> r.Soak.escalations > 0) runs);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let json = Soak.matrix_to_json ~seed:20250806 runs in
  Alcotest.(check bool) "json has totals" true
    (String.length json > 0
    && json.[0] = '{'
    && contains json "\"failures\":0")

(* Damaged limbo rows: a row still owned by a client slot that is free
   (the client left without closing, and no recovery orphaned the row),
   and a free row holding an entry. Validation must report both, and one
   repair pass (2.7) must orphan the first with its entry intact and clear
   the second. *)
let test_limbo_rows_repaired () =
  let arena = Shm.create ~cfg:Config.small () in
  let mem, lay = mem_lay arena in
  let peek = Mem.unsafe_peek mem in
  let a = Shm.join arena () in
  let t = Limbo.create a in
  let x = Shm.cxl_malloc a ~size_bytes:16 () in
  let rr = Cxl_ref.rootref x in
  Limbo.park t x ~unlink:ignore;
  let rows = List.init (Layout.limbo_rows lay) Fun.id in
  let owner r = peek (Layout.limbo_owner lay r) in
  let owned = List.find (fun r -> owner r = a.Ctx.cid + 1) rows in
  let free = List.find (fun r -> owner r = 0) rows in
  Alcotest.(check bool) "parked row clean" true (check_clean arena);
  (* the owner leaves without closing its limbo handle *)
  Shm.leave a;
  Mem.unsafe_poke mem (Layout.limbo_stamp lay free 0) 9;
  Mem.unsafe_poke mem (Layout.limbo_rr lay free 0) 54321;
  let v = Validate.run mem lay in
  let reported needle =
    let n = String.length needle in
    List.exists
      (fun e ->
        let rec go i =
          i + n <= String.length e && (String.sub e i n = needle || go (i + 1))
        in
        go 0)
      v.Validate.errors
  in
  Alcotest.(check bool) "owned row of a free slot reported" true
    (reported (Printf.sprintf "limbo row %d: owned by c%d" owned a.Ctx.cid));
  Alcotest.(check bool) "entry in a free row reported" true
    (reported (Printf.sprintf "limbo row %d: free row holds entry" free));
  let r = repair arena in
  Alcotest.(check bool) "repaired" true (Fsck.clean r);
  Alcotest.(check bool) "both repairs counted" true (r.Fsck.limbo_fixed >= 2);
  Alcotest.(check int) "row orphaned in place" Layout.limbo_orphaned
    (peek (Layout.limbo_owner lay owned));
  Alcotest.(check (list int)) "entry kept for a successor" [ rr ]
    (List.map fst (Limbo.peek_entries mem lay ~owner:Layout.limbo_orphaned));
  Alcotest.(check int) "free row's entry cleared" 0
    (peek (Layout.limbo_rr lay free 0));
  let r2 = repair arena in
  Alcotest.(check int) "idempotent" 0 r2.Fsck.limbo_fixed

let suite =
  [
    Alcotest.test_case "clean arena: nothing to fix" `Quick test_clean_arena_nothing_to_fix;
    Alcotest.test_case "limbo rows repaired" `Quick test_limbo_rows_repaired;
    Alcotest.test_case "torn header repaired" `Quick test_torn_header_repaired;
    Alcotest.test_case "wild ref cleared, orphan freed" `Quick test_wild_ref_cleared_unreachable_freed;
    Alcotest.test_case "broken geometry quarantined" `Quick test_broken_geometry_quarantined;
    Alcotest.test_case "repair is idempotent" `Quick test_repair_idempotent;
    Alcotest.test_case "damaged image round-trip" `Quick test_damaged_image_roundtrip;
    Alcotest.test_case "soak matrix all clean" `Quick test_soak_matrix;
  ]
