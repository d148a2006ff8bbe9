(* Sorted-list ordered map and the broadcast log (lib/structures). *)

open Cxlshm
module Sl = Cxlshm_structures.Sorted_list
module Bl = Cxlshm_structures.Broadcast_log

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena (), Shm.join arena ())

(* ---- sorted list ---- *)

let test_sl_basic () =
  let arena, a, _ = setup () in
  let l = Sl.create a ~value_words:1 in
  Alcotest.(check bool) "insert 5" true (Sl.insert l ~key:5 ~value:50);
  Alcotest.(check bool) "insert 1" true (Sl.insert l ~key:1 ~value:10);
  Alcotest.(check bool) "insert 9" true (Sl.insert l ~key:9 ~value:90);
  Alcotest.(check bool) "dup rejected" false (Sl.insert l ~key:5 ~value:55);
  Alcotest.(check (option int)) "find 5" (Some 50) (Sl.find l ~key:5);
  Alcotest.(check (option int)) "find 2" None (Sl.find l ~key:2);
  Alcotest.(check (option (pair int int))) "min" (Some (1, 10)) (Sl.min_binding l);
  Alcotest.(check int) "length" 3 (Sl.length l);
  (* ordered iteration *)
  let seen = ref [] in
  Sl.iter l (fun ~key ~value -> seen := (key, value) :: !seen);
  Alcotest.(check (list (pair int int))) "ascending" [ (1, 10); (5, 50); (9, 90) ]
    (List.rev !seen);
  Sl.close l;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "all reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_sl_replace_delete () =
  let arena, a, _ = setup () in
  let l = Sl.create a ~value_words:2 in
  Sl.replace l ~key:3 ~value:30;
  Sl.replace l ~key:3 ~value:33;
  Alcotest.(check (option int)) "replaced" (Some 33) (Sl.find l ~key:3);
  Sl.replace l ~key:7 ~value:70;
  Alcotest.(check bool) "delete 3" true (Sl.delete l ~key:3);
  Alcotest.(check bool) "delete 3 again" false (Sl.delete l ~key:3);
  Alcotest.(check (option int)) "gone" None (Sl.find l ~key:3);
  Alcotest.(check (option int)) "7 intact" (Some 70) (Sl.find l ~key:7);
  Sl.quiesce l;
  Sl.close l;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_sl_range () =
  let _, a, _ = setup () in
  let l = Sl.create a ~value_words:1 in
  List.iter (fun k -> ignore (Sl.insert l ~key:k ~value:(k * 10)))
    [ 4; 1; 8; 2; 16; 32 ];
  Alcotest.(check (list (pair int int))) "range [2,16)"
    [ (2, 20); (4, 40); (8, 80) ]
    (Sl.range l ~lo:2 ~hi:16);
  Alcotest.(check (list (pair int int))) "empty range" [] (Sl.range l ~lo:9 ~hi:10);
  Sl.close l

let test_sl_shared_reader () =
  let arena, a, b = setup () in
  let l = Sl.create a ~value_words:1 in
  List.iter (fun k -> ignore (Sl.insert l ~key:k ~value:k)) [ 1; 2; 3 ];
  (* share the sentinel through a queue; b reads the same list *)
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:2 in
  assert (Transfer.send q (Sl.handle_ref l) = Transfer.Sent);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  let shared = match Transfer.receive qb with Transfer.Received r -> r | _ -> assert false in
  let lb = Sl.attach b shared in
  Alcotest.(check (option int)) "remote find" (Some 2) (Sl.find lb ~key:2);
  (* a's mutation becomes visible to b with no copy *)
  ignore (Sl.insert l ~key:10 ~value:100);
  Alcotest.(check (option int)) "remote sees new key" (Some 100)
    (Sl.find lb ~key:10);
  Sl.close lb;
  Transfer.close q;
  Transfer.close qb;
  Sl.close l;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_sl_writer_crash () =
  let arena, a, _ = setup () in
  let l = Sl.create a ~value_words:1 in
  List.iter (fun k -> ignore (Sl.insert l ~key:k ~value:k)) [ 1; 2; 3 ];
  (* crash mid-splice: RootRef relinked, predecessor's next not stored *)
  a.Ctx.fault <- Fault.at Fault.Swap_after_link ~nth:1;
  (try ignore (Sl.insert l ~key:99 ~value:99) with Fault.Crashed _ -> ());
  a.Ctx.fault <- Fault.none;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "everything reaped with the writer" 0
    v.Validate.live_objects

(* A reader paused on a node across the writer's delete and quiesce still
   reads that node: its announced era pins the parked node, and the node
   keeps its next link, so the walk goes on to the tail. *)
let test_sl_paused_reader () =
  let arena, a, b = setup () in
  let l = Sl.create a ~value_words:1 in
  List.iter (fun k -> ignore (Sl.insert l ~key:k ~value:k)) [ 1; 2; 3 ];
  let rr = Alloc.alloc_rootref b in
  Refc.attach b ~ref_addr:(Rootref.pptr_slot rr)
    ~refed:(Cxl_ref.obj (Sl.handle_ref l));
  let lb = Sl.attach b (Cxl_ref.of_rootref b rr) in
  let visits = ref 0 in
  Sl.walk_hook :=
    (fun () ->
      incr visits;
      if !visits = 2 then begin
        (* b is about to read node 2's key *)
        Sl.walk_hook := ignore;
        Alcotest.(check bool) "deleted" true (Sl.delete l ~key:2);
        Sl.quiesce l
      end);
  let seen = ref [] in
  Fun.protect
    ~finally:(fun () -> Sl.walk_hook := ignore)
    (fun () -> Sl.iter lb (fun ~key ~value:_ -> seen := key :: !seen));
  Alcotest.(check (list int)) "the paused walk read the unlinked node"
    [ 1; 2; 3 ] (List.rev !seen);
  Alcotest.(check (option int)) "a new walk misses it" None (Sl.find lb ~key:2);
  Sl.quiesce l;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena));
  Sl.close lb;
  Sl.close l;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "all reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean after close" true (Validate.is_clean v)

(* model-based property *)
let prop_sl_matches_map =
  QCheck.Test.make ~name:"sorted list matches stdlib Map" ~count:30
    QCheck.(list_of_size Gen.(1 -- 80) (pair (int_bound 40) (int_bound 2)))
    (fun ops ->
      let arena, a, _ = setup () in
      let l = Sl.create a ~value_words:1 in
      let module M = Map.Make (Int) in
      let m = ref M.empty in
      List.iter
        (fun (key, kind) ->
          match kind with
          | 0 ->
              Sl.replace l ~key ~value:(key * 7);
              m := M.add key (key * 7) !m
          | 1 ->
              let got = Sl.delete l ~key in
              let expect = M.mem key !m in
              m := M.remove key !m;
              assert (got = expect)
          | _ -> assert (Sl.find l ~key = M.find_opt key !m))
        ops;
      (* full-order check *)
      let got = ref [] in
      Sl.iter l (fun ~key ~value -> got := (key, value) :: !got);
      let ok = List.rev !got = M.bindings !m in
      Sl.close l;
      ignore (Shm.scan_leaking arena);
      ok && Validate.is_clean (Shm.validate arena))

(* ---- broadcast log ---- *)

let mk ctx v =
  let r = Shm.cxl_malloc ctx ~size_bytes:8 () in
  Cxl_ref.write_word r 0 v;
  r

let test_bl_fanout () =
  let arena, a, b = setup () in
  let c = Shm.join arena () in
  let w = Bl.create a ~capacity:8 in
  let cb = Bl.subscribe b (Bl.log_ref w) in
  let cc = Bl.subscribe c (Bl.log_ref w) in
  for i = 1 to 5 do
    let p = mk a (i * 10) in
    ignore (Bl.publish w p);
    Cxl_ref.drop p
  done;
  let drain cur =
    let rec go acc =
      match Bl.poll cur with
      | `Entry (_, r) ->
          let v = Cxl_ref.read_word r 0 in
          Cxl_ref.drop r;
          go (v :: acc)
      | `Empty -> List.rev acc
      | `Lagged _ -> go acc
    in
    go []
  in
  Alcotest.(check (list int)) "b sees all" [ 10; 20; 30; 40; 50 ] (drain cb);
  Alcotest.(check (list int)) "c sees all independently" [ 10; 20; 30; 40; 50 ]
    (drain cc);
  Bl.close_cursor cb;
  Bl.close_cursor cc;
  Bl.close_writer w;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check int) "log reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v)

let test_bl_lag () =
  let arena, a, b = setup () in
  let w = Bl.create a ~capacity:4 in
  let cur = Bl.subscribe b (Bl.log_ref w) in
  for i = 1 to 10 do
    let p = mk a i in
    ignore (Bl.publish w p);
    Cxl_ref.drop p
  done;
  (* capacity 4, 10 published: the cursor must lag to entry 6 *)
  (match Bl.poll cur with
  | `Lagged n -> Alcotest.(check int) "skipped" 6 n
  | _ -> Alcotest.fail "expected lag");
  let rec drain acc =
    match Bl.poll cur with
    | `Entry (_, r) ->
        let v = Cxl_ref.read_word r 0 in
        Cxl_ref.drop r;
        drain (v :: acc)
    | `Empty -> List.rev acc
    | `Lagged _ -> drain acc
  in
  Alcotest.(check (list int)) "retained window" [ 7; 8; 9; 10 ] (drain []);
  Bl.close_cursor cur;
  Bl.close_writer w;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_bl_subscriber_keeps_entry_alive () =
  let arena, a, b = setup () in
  let w = Bl.create a ~capacity:2 in
  let cur = Bl.subscribe b (Bl.log_ref w) in
  let p = mk a 111 in
  ignore (Bl.publish w p);
  Cxl_ref.drop p;
  let held =
    match Bl.poll cur with
    | `Entry (_, r) -> r
    | _ -> Alcotest.fail "no entry"
  in
  (* overwrite the whole ring: the held entry must survive *)
  for i = 1 to 6 do
    let q = mk a i in
    ignore (Bl.publish w q);
    Cxl_ref.drop q
  done;
  Alcotest.(check int) "held entry alive after overwrite" 111
    (Cxl_ref.read_word held 0);
  Cxl_ref.drop held;
  Bl.close_cursor cur;
  Bl.close_writer w;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let suite =
  [
    Alcotest.test_case "sorted list basic" `Quick test_sl_basic;
    Alcotest.test_case "sorted list replace/delete" `Quick test_sl_replace_delete;
    Alcotest.test_case "sorted list range" `Quick test_sl_range;
    Alcotest.test_case "sorted list shared reader" `Quick test_sl_shared_reader;
    Alcotest.test_case "sorted list writer crash" `Quick test_sl_writer_crash;
    Alcotest.test_case "sorted list paused reader" `Quick test_sl_paused_reader;
    Generators.to_alcotest prop_sl_matches_map;
    Alcotest.test_case "broadcast fan-out" `Quick test_bl_fanout;
    Alcotest.test_case "broadcast lag" `Quick test_bl_lag;
    Alcotest.test_case "broadcast holds entries" `Quick test_bl_subscriber_keeps_entry_alive;
  ]
