(* Cycle collection (§4.1 future work) and pool persistence (save/load). *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem

let setup () =
  let arena = Shm.create ~cfg:Config.small () in
  (arena, Shm.join arena ())

(* Build an unreachable 3-cycle through embedded references. *)
let make_cycle ctx =
  let a = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
  let b = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
  let c = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
  Cxl_ref.set_emb a 0 b;
  Cxl_ref.set_emb b 0 c;
  Cxl_ref.set_emb c 0 a;
  (* drop the handles: the cycle keeps itself alive *)
  List.iter Cxl_ref.drop [ a; b; c ]

let test_cycle_leaks_without_gc () =
  let arena, a = setup () in
  make_cycle a;
  let v = Shm.validate arena in
  Alcotest.(check int) "cycle is alive" 3 v.Validate.live_objects;
  Alcotest.(check bool) "but the arena is consistent" true (Validate.is_clean v)

let test_gc_collects_cycle () =
  let arena, a = setup () in
  make_cycle a;
  (* reachable data must survive the collection *)
  let keep = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.write_word child 0 777;
  Cxl_ref.set_emb keep 0 child;
  Cxl_ref.drop child;
  let r = Cycle_gc.collect (Shm.service_ctx arena) in
  Alcotest.(check int) "three cycle members collected" 3 r.Cycle_gc.collected;
  Alcotest.(check bool) "live data marked" true (r.Cycle_gc.marked >= 2);
  Alcotest.(check int) "reachable child intact" 777
    (Ctx.load a (Obj_header.data_of_obj (Cxl_ref.get_emb keep 0)));
  Cxl_ref.drop keep;
  Alloc.collect_deferred a;
  let v = Shm.validate arena in
  Alcotest.(check int) "all reclaimed" 0 v.Validate.live_objects;
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_gc_traces_through_queues_and_roots () =
  let arena, a = setup () in
  let b = Shm.join arena () in
  (* in-flight queue message and a named root: both must be GC roots *)
  let msg = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.write_word msg 0 1;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  assert (Transfer.send q msg = Transfer.Sent);
  Cxl_ref.drop msg;
  let rooted = Shm.cxl_malloc a ~size_bytes:8 () in
  Named_roots.publish a ~name:"gc-root" rooted;
  Cxl_ref.drop rooted;
  let r = Cycle_gc.collect (Shm.service_ctx arena) in
  Alcotest.(check int) "nothing falsely collected" 0 r.Cycle_gc.collected;
  (* the in-flight message is still deliverable *)
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  (match Transfer.receive qb with
  | Transfer.Received x ->
      Alcotest.(check int) "message survived gc" 1 (Cxl_ref.read_word x 0);
      Cxl_ref.drop x
  | _ -> Alcotest.fail "message lost");
  ignore (Named_roots.unpublish b ~name:"gc-root");
  Transfer.close q;
  Transfer.close qb

let prop_gc_never_touches_reachable =
  QCheck.Test.make ~name:"gc never collects reachable objects" ~count:25
    QCheck.(pair (int_bound 1000) (int_bound 10))
    (fun (seed, cycles) ->
      let arena, a = setup () in
      let rng = Random.State.make [| seed |] in
      (* reachable working set *)
      let live =
        List.init 10 (fun i ->
            let r = Shm.cxl_malloc a ~size_bytes:8 () in
            Cxl_ref.write_word r 0 (i * 100 + Random.State.int rng 10);
            r)
      in
      let expected = List.map (fun r -> Cxl_ref.read_word r 0) live in
      for _ = 1 to cycles do
        make_cycle a
      done;
      let rep = Cycle_gc.collect (Shm.service_ctx arena) in
      let ok_counts = rep.Cycle_gc.collected = 3 * cycles in
      let ok_data =
        List.for_all2 (fun r e -> Cxl_ref.read_word r 0 = e) live expected
      in
      List.iter Cxl_ref.drop live;
      Alloc.collect_deferred a;
      ok_counts && ok_data && Validate.is_clean (Shm.validate arena))

(* Cycle_gc and Fsck sweep over the same mark (Root_set.mark). Random graphs —
   chains, 2-4 cycles, cross links, a queued message, a named root and one
   huge object — lose a random subset of their handles; after a collection
   the arena validates, everything reachable from a kept handle reads back,
   and the repairer finds nothing unreachable, no count to fix and no wild
   reference. The clients leave first (their handles stay behind as
   holders), so the repair sweeps no client. *)
let prop_gc_and_fsck_agree =
  QCheck.Test.make ~name:"gc and fsck agree on the mark" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let arena, a = setup () in
      let b = Shm.join arena () in
      let rng = Random.State.make [| seed |] in
      let mem = Shm.mem arena in
      let payload : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let handles = ref [] in
      (* two embedded slots, then one payload word *)
      let node () =
        let r = Shm.cxl_malloc a ~size_bytes:24 ~emb_cnt:2 () in
        let v = Random.State.bits rng in
        Cxl_ref.write_word r 2 v;
        Hashtbl.replace payload (Cxl_ref.obj r) v;
        handles := r :: !handles;
        r
      in
      let link r i target = Cxl_ref.set_emb r i target in
      let chain n =
        let ns = List.init n (fun _ -> node ()) in
        List.iteri (fun i r -> if i > 0 then link (List.nth ns (i - 1)) 0 r) ns;
        ns
      in
      let cycle n =
        let ns = chain n in
        link (List.nth ns (n - 1)) 0 (List.hd ns);
        ns
      in
      let chains = List.init 3 (fun _ -> chain (1 + Random.State.int rng 4)) in
      (* cycles 0-2 are anchored below; 3-5 only by cross links *)
      let cycles = List.init 6 (fun _ -> cycle (2 + Random.State.int rng 3)) in
      (* cross links from chain heads into cycles, through slot 1 *)
      List.iter
        (fun ch ->
          if Random.State.bool rng then
            link (List.hd ch) 1
              (List.hd (List.nth cycles (Random.State.int rng 6))))
        chains;
      (* one huge object, held by a chain node or by its handle alone *)
      let huge =
        Shm.cxl_malloc_words a
          ~data_words:(Config.max_class_data_words Config.small + 100)
          ~emb_cnt:1 ()
      in
      let hv = Random.State.bits rng in
      Cxl_ref.write_word huge 1 hv;
      Hashtbl.replace payload (Cxl_ref.obj huge) hv;
      link huge 0 (List.hd (List.nth cycles 0));
      handles := huge :: !handles;
      (* a queued message and a named root, each holding a cycle; one of
         them may hold the huge object too *)
      let msg = node () in
      link msg 0 (List.hd (List.nth cycles 1));
      let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
      assert (Transfer.send q msg = Transfer.Sent);
      let rooted = node () in
      link rooted 0 (List.hd (List.nth cycles 2));
      (match Random.State.int rng 3 with
      | 0 -> link msg 1 huge
      | 1 -> link rooted 1 huge
      | _ -> ());
      Named_roots.publish a ~name:"agree" rooted;
      let kept, dropped =
        List.partition (fun _ -> Random.State.bool rng) !handles
      in
      List.iter Cxl_ref.drop dropped;
      ignore (Cycle_gc.collect (Shm.service_ctx arena));
      let clean = Validate.is_clean (Shm.validate arena) in
      (* everything reachable from a kept handle reads back *)
      let seen = Hashtbl.create 64 in
      let rec intact o =
        Hashtbl.mem seen o
        || begin
             Hashtbl.replace seen o ();
             let emb =
               Obj_header.meta_emb_cnt
                 (Mem.unsafe_peek mem (Obj_header.meta_of_obj o))
             in
             Mem.unsafe_peek mem (Obj_header.data_of_obj o + emb)
             = Hashtbl.find payload o
             && List.for_all
                  (fun i ->
                    let c = Mem.unsafe_peek mem (Obj_header.emb_slot o i) in
                    c = 0 || intact c)
                  (List.init emb Fun.id)
           end
      in
      let data_ok = List.for_all (fun r -> intact (Cxl_ref.obj r)) kept in
      Shm.leave a;
      Shm.leave b;
      let rep = Shm.fsck arena in
      clean && data_ok
      && rep.Fsck.unreachable_freed = 0
      && rep.Fsck.counts_fixed = 0
      && rep.Fsck.wild_refs_cleared = 0
      && Fsck.clean rep)

(* ---- persistence ---- *)

let tmp = Filename.temp_file "cxlshm" ".pool"

let test_save_load_roundtrip () =
  let arena, a = setup () in
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  Cxl_ref.write_bytes r (Bytes.of_string "persisted");
  Named_roots.publish a ~name:"state" r;
  Cxl_ref.drop r;
  (* the whole cluster powers off; the pool (own PSU) keeps its contents *)
  Shm.save arena tmp;
  let arena2 = Shm.load tmp in
  let v = Shm.validate arena2 in
  Alcotest.(check bool) ("clean after load: " ^ String.concat ";" v.Validate.errors)
    true (Validate.is_clean v);
  Alcotest.(check int) "rooted object survived the blackout" 1
    v.Validate.live_objects;
  let c = Shm.join arena2 () in
  (match Named_roots.lookup c ~name:"state" with
  | Some r2 ->
      Alcotest.(check string) "bytes intact" "persisted"
        (Bytes.to_string (Cxl_ref.read_bytes r2 ~len:9));
      Cxl_ref.drop r2
  | None -> Alcotest.fail "named root lost across restart");
  Sys.remove tmp

let test_load_reaps_stale_clients () =
  let arena, a = setup () in
  (* a holds unrooted data and is "alive" at snapshot time *)
  let _leak = List.init 10 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
  Shm.save arena tmp;
  let arena2 = Shm.load tmp in
  (* the stale client was reaped on load; its garbage is gone *)
  let v = Shm.validate arena2 in
  Alcotest.(check int) "stale client data reaped" 0 v.Validate.live_objects;
  Alcotest.(check bool) "clean" true (Validate.is_clean v);
  (* its slot is reusable *)
  let c = Shm.join arena2 ~cid:a.Ctx.cid () in
  let r = Shm.cxl_malloc c ~size_bytes:8 () in
  Cxl_ref.drop r;
  Sys.remove tmp

let test_load_rejects_garbage () =
  let oc = open_out_bin tmp in
  Marshal.to_channel oc Config.small [];
  Marshal.to_channel oc (Array.make (Layout.make Config.small).Layout.total_words 0) [];
  close_out oc;
  Alcotest.check_raises "bad magic"
    (Invalid_argument "Shm.load: not a CXL-SHM pool image") (fun () ->
      ignore (Shm.load tmp));
  Sys.remove tmp

let suite =
  [
    Alcotest.test_case "cycle leaks without gc" `Quick test_cycle_leaks_without_gc;
    Alcotest.test_case "gc collects cycle" `Quick test_gc_collects_cycle;
    Alcotest.test_case "gc roots: queues + named" `Quick test_gc_traces_through_queues_and_roots;
    Generators.to_alcotest prop_gc_never_touches_reachable;
    Generators.to_alcotest prop_gc_and_fsck_agree;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "load reaps stale clients" `Quick test_load_reaps_stale_clients;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
  ]
