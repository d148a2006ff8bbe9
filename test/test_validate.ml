(* The validator must actually detect each class of corruption it claims
   to detect — otherwise the fault-injection results are vacuous. Each test
   injects one violation by poking the arena directly. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena ())

let test_detects_wild_pointer () =
  let arena, a = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
  (* point the embedded slot into a segment header — a wild pointer *)
  Mem.unsafe_poke (Shm.mem arena)
    (Obj_header.emb_slot (Cxl_ref.obj r) 0)
    (Layout.segment_base (Shm.layout arena) 0 + 2);
  let v = Shm.validate arena in
  Alcotest.(check bool) "wild pointer found" true (v.Validate.wild_pointers > 0);
  Alcotest.(check bool) "not clean" false (Validate.is_clean v)

let test_detects_count_too_high () =
  let arena, a = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:16 () in
  let obj = Cxl_ref.obj r in
  let hdr = Obj_header.header_of_obj obj in
  let u = Obj_header.unpack (Mem.unsafe_peek (Shm.mem arena) hdr) in
  Mem.unsafe_poke (Shm.mem arena) hdr
    (Obj_header.pack { u with Obj_header.ref_cnt = u.Obj_header.ref_cnt + 1 });
  let v = Shm.validate arena in
  Alcotest.(check bool) "overcount found" true (v.Validate.count_mismatches > 0)

let test_detects_count_too_low () =
  let arena, a = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.set_emb r 0 child;
  Cxl_ref.drop child;
  (* child's count is 1 (the emb ref); force it to... the emb ref plus our
     poke makes holders=1 vs count=0 on a live reference — dangling *)
  let obj = Cxl_ref.get_emb r 0 in
  let hdr = Obj_header.header_of_obj obj in
  let u = Obj_header.unpack (Mem.unsafe_peek (Shm.mem arena) hdr) in
  ignore u;
  Mem.unsafe_poke (Shm.mem arena) hdr
    (Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = 2 });
  let v = Shm.validate arena in
  Alcotest.(check bool) "mismatch found" true (v.Validate.count_mismatches > 0)

let test_detects_double_free () =
  let arena, a = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:16 () in
  let obj = Cxl_ref.obj r in
  Cxl_ref.drop r;
  (* push the freed block onto the page free list a second time by hand *)
  let lay = Shm.layout arena in
  let gid = Layout.page_gid_of_addr lay obj in
  let mem = Shm.mem arena in
  let head = Mem.unsafe_peek mem (Layout.page_free lay ~gid) in
  Alcotest.(check int) "freed block is the list head" obj head;
  (* make the block point at itself through another entry: duplicate it *)
  let next = Mem.unsafe_peek mem (obj + Config.header_words) in
  ignore next;
  Mem.unsafe_poke mem (obj + Config.header_words) obj;
  let v = Shm.validate arena in
  Alcotest.(check bool) "double free found" true (v.Validate.double_frees > 0)

let test_detects_leak () =
  let arena, a = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:16 () in
  let obj = Cxl_ref.obj r in
  (* erase the RootRef's in_use bit so nothing references the live block,
     then zero the header: count 0, off-list, owner alive -> leak *)
  let rr = Cxl_ref.rootref r in
  Mem.unsafe_poke (Shm.mem arena) rr 0;
  Mem.unsafe_poke (Shm.mem arena) (Obj_header.header_of_obj obj) 0;
  let v = Shm.validate arena in
  Alcotest.(check bool) "leak found" true (v.Validate.leaks > 0)

(* A huge run's continuation segment starts with payload, not a block: a
   reference to its first word is wild, however plausible the segment
   header looks. *)
let test_detects_pointer_into_huge_continuation () =
  let arena, a = setup () in
  let lay = Shm.layout arena in
  let r =
    Shm.cxl_malloc_words a ~data_words:(lay.Layout.segment_words + 100) ()
  in
  let head = Layout.segment_of_addr lay (Cxl_ref.obj r) in
  Alcotest.(check bool) "a two-segment run" true
    (Heap.classify ~read:(Mem.unsafe_peek (Shm.mem arena)) lay (head + 1)
    = Heap.Huge_cont);
  let rr = Alloc.alloc_rootref a in
  Mem.unsafe_poke (Shm.mem arena) (Rootref.pptr_slot rr)
    (Layout.segment_base lay (head + 1) + lay.Layout.seg_hdr_words);
  let v = Shm.validate arena in
  Alcotest.(check int) "wild pointer found" 1 v.Validate.wild_pointers;
  Alcotest.(check bool) "not clean" false (Validate.is_clean v)

let test_clean_arena_is_clean () =
  let arena, a = setup () in
  let rs = List.init 10 (fun i -> Shm.cxl_malloc a ~size_bytes:(8 * (i + 1)) ()) in
  let v = Shm.validate arena in
  Alcotest.(check bool) "live arena validates" true (Validate.is_clean v);
  Alcotest.(check int) "live objects" 10 v.Validate.live_objects;
  Alcotest.(check int) "rootrefs" 10 v.Validate.live_rootrefs;
  List.iter Cxl_ref.drop rs;
  let v = Shm.validate arena in
  Alcotest.(check int) "freed" 0 v.Validate.live_objects;
  Alcotest.(check bool) "still clean" true (Validate.is_clean v)

let suite =
  [
    Alcotest.test_case "detects wild pointer" `Quick test_detects_wild_pointer;
    Alcotest.test_case "detects count too high" `Quick test_detects_count_too_high;
    Alcotest.test_case "detects count too low" `Quick test_detects_count_too_low;
    Alcotest.test_case "detects double free" `Quick test_detects_double_free;
    Alcotest.test_case "detects leak" `Quick test_detects_leak;
    Alcotest.test_case "detects pointer into a huge continuation" `Quick
      test_detects_pointer_into_huge_continuation;
    Alcotest.test_case "clean arena is clean" `Quick test_clean_arena_is_clean;
  ]
