(* Focused unit tests for the small core modules: header packing, redo-log
   round-trips, fault plans, RootRef packing, eras at the edges. *)

open Cxlshm
module Debug = Cxlshm_check.Debug

let small_arena () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena ())

(* ---- Obj_header ---- *)

let prop_header_roundtrip =
  QCheck.Test.make ~name:"header pack/unpack roundtrip" ~count:500
    QCheck.(
      triple (option (int_bound (Obj_header.max_clients_representable - 1)))
        (int_bound 100_000) (int_bound 1_000))
    (fun (lcid, lera, ref_cnt) ->
      let h = { Obj_header.lcid; lera; ref_cnt } in
      Obj_header.unpack (Obj_header.pack h) = h)

let test_header_zero () =
  (* an untouched (all-zero) word must read as the zero header *)
  Alcotest.(check bool) "zero word" true (Obj_header.unpack 0 = Obj_header.zero);
  Alcotest.(check int) "cnt" 0 (Obj_header.ref_cnt_of 0);
  Alcotest.(check (option int)) "no lcid" None (Obj_header.lcid_of 0)

let test_header_field_access () =
  let w = Obj_header.make ~lcid:7 ~lera:12345 ~ref_cnt:42 in
  Alcotest.(check int) "cnt" 42 (Obj_header.ref_cnt_of w);
  Alcotest.(check int) "lera" 12345 (Obj_header.lera_of w);
  Alcotest.(check (option int)) "lcid" (Some 7) (Obj_header.lcid_of w);
  Alcotest.(check bool) "non-negative" true (w >= 0)

let prop_meta_roundtrip =
  QCheck.Test.make ~name:"meta pack roundtrip" ~count:500
    QCheck.(triple (int_bound 255) (int_bound 60_000) (int_bound 1_000_000))
    (fun (kind, emb_cnt, data_words) ->
      let m = Obj_header.pack_meta ~kind ~emb_cnt ~data_words in
      Obj_header.meta_kind m = kind
      && Obj_header.meta_emb_cnt m = emb_cnt
      && Obj_header.meta_data_words m = data_words)

let test_emb_slot_addressing () =
  Alcotest.(check int) "slot 0 = data" (Obj_header.data_of_obj 100)
    (Obj_header.emb_slot 100 0);
  Alcotest.(check int) "slot 3" (Obj_header.data_of_obj 100 + 3)
    (Obj_header.emb_slot 100 3);
  Alcotest.check_raises "negative slot"
    (Invalid_argument "Obj_header.emb_slot: negative index") (fun () ->
      ignore (Obj_header.emb_slot 100 (-1)))

(* ---- Redo_log ---- *)

let test_redo_roundtrip () =
  let _, a = small_arena () in
  let r =
    {
      Redo_log.op = Redo_log.Swap;
      era = 17;
      ref_addr = 1234;
      refed = 5678;
      refed2 = 9012;
      saved_cnt = 3;
    }
  in
  Redo_log.record a r;
  (match Redo_log.read a ~cid:a.Ctx.cid with
  | Some got ->
      Alcotest.(check bool) "record roundtrips" true (got = r)
  | None -> Alcotest.fail "no record");
  Redo_log.clear_for a ~cid:a.Ctx.cid;
  Alcotest.(check bool) "cleared" true (Redo_log.read a ~cid:a.Ctx.cid = None)

let test_redo_initially_empty () =
  let _, a = small_arena () in
  Alcotest.(check bool) "fresh client has no record" true
    (Redo_log.read a ~cid:a.Ctx.cid = None)

(* ---- Fault plans ---- *)

let test_fault_at_nth () =
  let plan = Fault.at Fault.Txn_after_cas ~nth:3 in
  Fault.maybe_crash plan Fault.Txn_after_cas;
  Fault.maybe_crash plan Fault.Txn_after_redo;
  (* different point: not counted toward the nth *)
  Fault.maybe_crash plan Fault.Txn_after_cas;
  (try
     Fault.maybe_crash plan Fault.Txn_after_cas;
     Alcotest.fail "expected crash at third occurrence"
   with Fault.Crashed p -> Alcotest.(check string) "label" "txn-after-cas" p);
  Alcotest.(check int) "hits counted" 4 (Fault.hits plan)

let test_fault_nth_point () =
  let plan = Fault.nth_point ~n:2 in
  Fault.maybe_crash plan Fault.Alloc_after_link;
  (try
     Fault.maybe_crash plan Fault.Send_after_attach;
     Alcotest.fail "expected crash at second hit"
   with Fault.Crashed _ -> ())

let test_fault_none_never () =
  let plan = Fault.none in
  List.iter (fun p -> Fault.maybe_crash plan p) Fault.all_points;
  List.iter (fun p -> Fault.maybe_crash plan p) Fault.all_points

let test_fault_point_names_unique () =
  let names = List.map Fault.point_name Fault.all_points in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---- Rootref packing ---- *)

let test_rootref_state () =
  let _, a = small_arena () in
  let rr = Alloc.alloc_rootref a in
  Alcotest.(check bool) "in use" true (Rootref.in_use a rr);
  Alcotest.(check int) "cnt 1" 1 (Rootref.local_cnt a rr);
  Rootref.set_local_cnt a rr 5;
  Alcotest.(check int) "cnt 5" 5 (Rootref.local_cnt a rr);
  Alcotest.(check bool) "still in use" true (Rootref.in_use a rr);
  Rootref.set_state a rr ~in_use:false ~cnt:0;
  Alcotest.(check bool) "cleared" false (Rootref.in_use a rr);
  Alloc.free_rootref a rr

(* ---- Pptr ---- *)

let test_pptr () =
  Alcotest.(check bool) "null" true (Cxlshm_shmem.Pptr.is_null Cxlshm_shmem.Pptr.null);
  Alcotest.(check bool) "non-null" false (Cxlshm_shmem.Pptr.is_null 5);
  Alcotest.(check int) "add" 15 (Cxlshm_shmem.Pptr.add 10 5);
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Pptr.of_word_offset: negative offset") (fun () ->
      ignore (Cxlshm_shmem.Pptr.of_word_offset (-1)))

(* ---- Era edges ---- *)

let test_era_self_vs_others () =
  let arena = Shm.create ~cfg:Config.small () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  (* nobody has observed anyone yet *)
  Alcotest.(check int) "max seen of a is 0" 0
    (Era.max_seen_by_others a ~cid:a.Ctx.cid);
  (* manual observation *)
  Era.observe b ~saw_cid:a.Ctx.cid ~saw_era:9;
  Alcotest.(check int) "b's observation counts" 9
    (Era.max_seen_by_others a ~cid:a.Ctx.cid);
  (* observations only ratchet upward *)
  Era.observe b ~saw_cid:a.Ctx.cid ~saw_era:4;
  Alcotest.(check int) "no downgrade" 9
    (Era.max_seen_by_others a ~cid:a.Ctx.cid)

let test_debug_dump_smoke () =
  let arena, a = small_arena () in
  let r = Shm.cxl_malloc a ~size_bytes:32 ~emb_cnt:1 () in
  Named_roots.publish a ~name:"dbg" r;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Debug.pp_arena ppf (Shm.mem arena, Shm.layout arena);
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions clients" true (contains s "clients");
  Alcotest.(check bool) "mentions roots" true (contains s "named roots");
  let summary = Debug.summary (Shm.mem arena) (Shm.layout arena) in
  Alcotest.(check bool) "summary mentions alive" true
    (String.length summary > 0);
  ignore (Named_roots.unpublish a ~name:"dbg");
  Cxl_ref.drop r

let suite =
  [
    Generators.to_alcotest prop_header_roundtrip;
    Alcotest.test_case "header zero" `Quick test_header_zero;
    Alcotest.test_case "header fields" `Quick test_header_field_access;
    Generators.to_alcotest prop_meta_roundtrip;
    Alcotest.test_case "emb slot addressing" `Quick test_emb_slot_addressing;
    Alcotest.test_case "redo roundtrip" `Quick test_redo_roundtrip;
    Alcotest.test_case "redo initially empty" `Quick test_redo_initially_empty;
    Alcotest.test_case "fault at nth" `Quick test_fault_at_nth;
    Alcotest.test_case "fault nth point" `Quick test_fault_nth_point;
    Alcotest.test_case "fault none" `Quick test_fault_none_never;
    Alcotest.test_case "fault names unique" `Quick test_fault_point_names_unique;
    Alcotest.test_case "rootref state" `Quick test_rootref_state;
    Alcotest.test_case "pptr" `Quick test_pptr;
    Alcotest.test_case "era edges" `Quick test_era_self_vs_others;
    Alcotest.test_case "debug dump smoke" `Quick test_debug_dump_smoke;
  ]
