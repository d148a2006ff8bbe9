(* Allocation fast/slow path, size classes, huge objects, reclamation. *)

open Cxlshm
module Stats = Cxlshm_shmem.Stats

let small_arena () = Shm.create ~cfg:Config.small ()

let test_alloc_basic () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let r = Shm.cxl_malloc a ~size_bytes:64 () in
  Alcotest.(check bool) "live" true (Cxl_ref.is_live r);
  Alcotest.(check int) "refcount 1" 1 (Refc.ref_cnt a (Cxl_ref.obj r));
  Cxl_ref.write_bytes r (Bytes.of_string "payload");
  Alcotest.(check string) "data roundtrip" "payload"
    (Bytes.to_string (Cxl_ref.read_bytes r ~len:7));
  Cxl_ref.drop r;
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat "; " v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "no live objects" 0 v.Validate.live_objects

let test_clone_semantics () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let r = Shm.cxl_malloc a ~size_bytes:16 () in
  let r2 = Cxl_ref.clone r in
  (* Same-thread clone touches only the RootRef local count (§5.2). *)
  Alcotest.(check int) "obj count still 1" 1 (Refc.ref_cnt a (Cxl_ref.obj r));
  Cxl_ref.drop r;
  Alcotest.(check bool) "r2 still live" true (Cxl_ref.is_live r2);
  Alcotest.(check int) "obj alive" 1 (Refc.ref_cnt a (Cxl_ref.obj r2));
  Cxl_ref.drop r2;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_double_drop_raises () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let r = Shm.cxl_malloc a ~size_bytes:16 () in
  Cxl_ref.drop r;
  Alcotest.check_raises "double drop" (Invalid_argument "Cxl_ref: use after drop")
    (fun () -> Cxl_ref.drop r)

let test_many_allocs_reuse () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  (* Allocate and free far more objects than the arena could hold live:
     blocks must be reused through the free lists. *)
  for _ = 1 to 10_000 do
    let r = Shm.cxl_malloc a ~size_bytes:32 () in
    Cxl_ref.drop r
  done;
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat "; " v.Validate.errors) true
    (Validate.is_clean v)

let test_size_classes () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let refs =
    List.map
      (fun sz -> (sz, Shm.cxl_malloc a ~size_bytes:sz ()))
      [ 1; 8; 16; 17; 64; 100; 200; 400 ]
  in
  List.iter
    (fun (sz, r) ->
      let b = Bytes.init sz (fun i -> Char.chr (i land 0x7f)) in
      Cxl_ref.write_bytes r b;
      Alcotest.(check bytes)
        (Printf.sprintf "size %d roundtrip" sz)
        b
        (Cxl_ref.read_bytes r ~len:sz))
    refs;
  List.iter (fun (_, r) -> Cxl_ref.drop r) refs;
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_huge_object () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  (* Bigger than the largest size class of the small config. *)
  let words = Config.max_class_data_words Config.small * 4 in
  let r = Shm.cxl_malloc_words a ~data_words:words () in
  Cxl_ref.write_word r (words - 1) 9999;
  Alcotest.(check int) "tail word" 9999 (Cxl_ref.read_word r (words - 1));
  let before = Shm.free_segments arena in
  Cxl_ref.drop r;
  let after = Shm.free_segments arena in
  Alcotest.(check bool) "segments returned" true (after > before);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_out_of_memory () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let live = ref [] in
  Alcotest.check_raises "oom" Alloc.Out_of_shared_memory (fun () ->
      for _ = 1 to 1_000_000 do
        live := Shm.cxl_malloc a ~size_bytes:400 () :: !live
      done);
  (* Free everything; the arena must be fully usable again. *)
  List.iter Cxl_ref.drop !live;
  let r = Shm.cxl_malloc a ~size_bytes:400 () in
  Cxl_ref.drop r;
  Alcotest.(check bool) "clean after oom" true
    (Validate.is_clean (Shm.validate arena))

let test_cross_client_free () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  (* A allocates; B becomes the last holder and frees into A's segment. *)
  let ra = Shm.cxl_malloc a ~size_bytes:32 () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  Alcotest.(check bool) "sent" true (Transfer.send q ra = Transfer.Sent);
  let rb =
    match
      let qb = Transfer.open_from b ~sender:a.Ctx.cid in
      Option.map Transfer.receive qb
    with
    | Some (Transfer.Received r) -> r
    | _ -> Alcotest.fail "receive failed"
  in
  Cxl_ref.drop ra;
  Alcotest.(check int) "b holds it" 1 (Refc.ref_cnt b (Cxl_ref.obj rb));
  Cxl_ref.drop rb;
  (* The block went to A's segment cross-client stack; A's slow path
     collects it. *)
  Alloc.collect_deferred a;
  let v = Shm.validate arena in
  Alcotest.(check int) "one live object left (queue)" 1 v.Validate.live_objects;
  Alcotest.(check int) "two rootrefs left (queue endpoints)" 2
    v.Validate.live_rootrefs;
  Alcotest.(check bool) ("clean: " ^ String.concat "; " v.Validate.errors) true
    (Validate.is_clean v)

let test_emb_refs_basic () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:2 () in
  let child1 = Shm.cxl_malloc a ~size_bytes:8 () in
  let child2 = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.set_emb parent 0 child1;
  Alcotest.(check int) "child1 count 2" 2 (Refc.ref_cnt a (Cxl_ref.obj child1));
  Cxl_ref.set_emb parent 1 child2;
  (* Drop our handles: children stay alive through the parent. *)
  let c1_obj = Cxl_ref.obj child1 in
  Cxl_ref.drop child1;
  Cxl_ref.drop child2;
  Alcotest.(check int) "child1 kept alive" 1 (Refc.ref_cnt a c1_obj);
  (* Dropping the parent releases the whole subtree. *)
  Cxl_ref.drop parent;
  let v = Shm.validate arena in
  Alcotest.(check int) "all gone" 0 v.Validate.live_objects;
  Alcotest.(check bool) ("clean: " ^ String.concat "; " v.Validate.errors) true
    (Validate.is_clean v)

let test_change_emb () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  let x = Shm.cxl_malloc a ~size_bytes:8 () in
  let y = Shm.cxl_malloc a ~size_bytes:8 () in
  Cxl_ref.set_emb parent 0 x;
  (* §5.4 atomic re-pointing. *)
  Cxl_ref.change_emb parent 0 y;
  Alcotest.(check int) "slot points to y" (Cxl_ref.obj y) (Cxl_ref.get_emb parent 0);
  Alcotest.(check int) "x count back to 1" 1 (Refc.ref_cnt a (Cxl_ref.obj x));
  Alcotest.(check int) "y count 2" 2 (Refc.ref_cnt a (Cxl_ref.obj y));
  List.iter Cxl_ref.drop [ parent; x; y ];
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_word_access_guards () =
  let arena = small_arena () in
  let a = Shm.join arena () in
  let r = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
  (try
     ignore (Cxl_ref.read_word r 0);
     Alcotest.fail "reading an emb slot as data must fail"
   with Invalid_argument _ -> ());
  Cxl_ref.drop r

(* Placement equivalence of the allocator's page sets: before every
   allocation the test predicts, from a raw snapshot of shared memory, the
   page an ascending scan of the owned segments would serve — the current
   page while it has a free block, else the lowest owned usable page, else
   the same after draining the cross-client stacks, else the lowest unused
   page, else a page of the segment the claim ladder took — and checks the
   RootRef and the object land there. The workload mixes owner drops,
   cross-client drops, a peer leaving and crashing (so its segments are
   orphaned and adopted) and cache drops. *)

type snapshot = {
  s_kind : int array;  (* per page *)
  s_free : bool array;  (* per page: free head <> 0 *)
  s_pending : bool array;  (* per page: a cross-client free waits on the stack *)
  s_usable : bool array;  (* per segment: Active or Leaking *)
  s_owner : int array;  (* per segment: owner cid, -1 = none *)
  s_head : int array;  (* per kind-table index: current page, -1 = none *)
  s_pps : int;
}

let snapshot arena ~cid =
  let mem = Shm.mem arena and lay = Shm.layout arena in
  let cfg = Shm.config arena in
  let peek = Cxlshm_shmem.Mem.unsafe_peek mem in
  let npages = Layout.num_pages_total lay in
  let kind = Array.init npages (fun gid -> peek (Layout.page_kind lay ~gid)) in
  let pending = Array.make npages false in
  for seg = 0 to cfg.Config.num_segments - 1 do
    let rec walk b =
      if b <> 0 then begin
        let gid = Layout.page_gid_of_addr lay b in
        if peek (Layout.page_block_words lay ~gid) <> 0 then
          pending.(gid) <- true;
        let kind_rootref = kind.(gid) = Config.kind_rootref cfg in
        walk (peek (b + Page.next_slot_offset ~kind_rootref))
      end
    in
    (* The stack head's low 46 bits are the pointer, above them a tag. *)
    walk (peek (Layout.seg_client_free lay seg) land ((1 lsl 46) - 1))
  done;
  {
    s_kind = kind;
    s_free = Array.init npages (fun gid -> peek (Layout.page_free lay ~gid) <> 0);
    s_pending = pending;
    s_usable =
      Array.init cfg.Config.num_segments (fun s ->
          (* Active or Leaking *)
          let st = peek (Layout.seg_state lay s) in
          st = 1 || st = 3);
    s_owner =
      Array.init cfg.Config.num_segments (fun s ->
          peek (Layout.seg_occupied lay s) - 1);
    s_head =
      Array.init
        (lay.Layout.num_classes + 1)
        (fun k -> peek (Layout.class_head lay cid k) - 1);
    s_pps = cfg.Config.pages_per_segment;
  }

(* Mirror of [Alloc.ensure_page] over a snapshot, for the RootRef step then
   the object step of one [alloc_obj]. [claimed] are the segments the call
   newly owned, handed to the model's claim steps in order. *)
let predict snap ~cid ~claimed steps =
  let pps = snap.s_pps in
  let kind = Array.copy snap.s_kind and free = Array.copy snap.s_free in
  let usable = Array.copy snap.s_usable in
  let owned = Array.map (fun o -> o = cid) snap.s_owner in
  let drained = Array.make (Array.length owned) false in
  let claimed = ref claimed in
  let ok k g =
    kind.(g) = k && (free.(g) || (drained.(g / pps) && snap.s_pending.(g)))
  in
  let lowest p =
    let rec go g =
      if g >= Array.length kind then None
      else if owned.(g / pps) && usable.(g / pps) && p g then Some g
      else go (g + 1)
    in
    go 0
  in
  let rec step idx k =
    let cur = snap.s_head.(idx) in
    if cur >= 0 && ok k cur then Some cur
    else
      match lowest (ok k) with
      | Some _ as g -> g
      | None -> (
          Array.iteri (fun s o -> if o then drained.(s) <- true) owned;
          match lowest (ok k) with
          | Some _ as g -> g
          | None -> (
              match lowest (fun g -> kind.(g) = Config.kind_unused) with
              | Some g ->
                  kind.(g) <- k;
                  free.(g) <- true;
                  Some g
              | None -> (
                  match !claimed with
                  | s :: rest ->
                      claimed := rest;
                      owned.(s) <- true;
                      usable.(s) <- true;
                      step idx k
                  | [] -> None)))
  in
  List.map (fun (idx, k) -> step idx k) steps

(* One seeded round on a fresh arena; returns (checked, adopted). *)
let placement_round ~seed =
  let arena = small_arena () in
  let cfg = Shm.config arena and lay = Shm.layout arena in
  let nc = lay.Layout.num_classes in
  let rng = Random.State.make [| seed |] in
  let a = Shm.join arena () in
  (* Each incarnation of B takes the next slot, so a dead B's orphans wait
     for adoption instead of going back to a rejoin of the same slot. *)
  let next_b = ref 0 and donor = ref false in
  let join_b () =
    next_b := (!next_b mod (cfg.Config.max_clients - 1)) + 1;
    donor := not !donor;
    Shm.join arena ~cid:!next_b ()
  in
  let b = ref (join_b ()) in
  let mine = ref [] (* A's plain objects *)
  and holders = ref [] (* A's objects holding one of B's *)
  and b_held = ref [] (* B's references *) in
  let checked = ref 0 and adopted = ref 0 in
  let take l =
    match !l with
    | [] -> None
    | xs ->
        let i = Random.State.int rng (List.length xs) in
        let x = List.nth xs i in
        l := List.filteri (fun j _ -> j <> i) xs;
        Some x
  in
  let alloc_a ~emb_cnt =
    let size_bytes = List.nth [ 8; 24; 56; 120 ] (Random.State.int rng 4) in
    let data_words = max 1 (Alloc.data_words_for cfg ~size_bytes ~emb_cnt) in
    let cls = Option.get (Config.class_of_data_words cfg data_words) in
    let snap = snapshot arena ~cid:a.Ctx.cid in
    match Shm.cxl_malloc a ~size_bytes ~emb_cnt () with
    | exception Alloc.Out_of_shared_memory -> None
    | r ->
        let after = (snapshot arena ~cid:a.Ctx.cid).s_owner in
        let claimed =
          List.filter
            (fun s -> after.(s) = a.Ctx.cid && snap.s_owner.(s) <> a.Ctx.cid)
            (List.init cfg.Config.num_segments Fun.id)
        in
        List.iter (fun s -> if snap.s_owner.(s) >= 0 then incr adopted) claimed;
        (* Two claims in one call leave their order unknown. *)
        if List.length claimed <= 1 then begin
          let page x = Layout.page_gid_of_addr lay x in
          let want =
            predict snap ~cid:a.Ctx.cid ~claimed
              [
                (nc, Config.kind_rootref cfg); (cls, Config.kind_of_class cls);
              ]
          in
          let got =
            [ Some (page (Cxl_ref.rootref r)); Some (page (Cxl_ref.obj r)) ]
          in
          if got <> want then
            Alcotest.(check (list (option int)))
              (Printf.sprintf "allocation %d lands on the reference pages"
                 !checked)
              want got;
          incr checked
        end;
        Some r
  in
  for i = 1 to 1_000 do
    match Random.State.int rng 100 with
    | n when n < 45 ->
        (* A's share ramps up, so the peers' orphans pile up first and A
           runs out of free segments later. *)
        if List.length !mine < i / 6 then
          Option.iter (fun r -> mine := r :: !mine) (alloc_a ~emb_cnt:0)
    | n when n < 62 -> Option.iter Cxl_ref.drop (take mine)
    | n when n < 75 && not !donor -> (
        (* B becomes the last holder of one of A's objects. *)
        match take mine with
        | None -> ()
        | Some r -> (
            match Shm.cxl_malloc !b ~size_bytes:8 ~emb_cnt:1 () with
            | exception Alloc.Out_of_shared_memory -> mine := r :: !mine
            | h ->
                Cxl_ref.set_emb h 0 r;
                Cxl_ref.drop r;
                b_held := h :: !b_held))
    | n when n < 75 -> (
        (* A holds one of B's objects; B may keep its own handle. Only a
           donor B allocates these, so its segments see no final release,
           stay Active and are orphaned (not leak-marked) when it goes. *)
        match Shm.cxl_malloc !b ~size_bytes:24 () with
        | exception Alloc.Out_of_shared_memory -> ()
        | x -> (
            match alloc_a ~emb_cnt:1 with
            | None -> Cxl_ref.drop x
            | Some h ->
                Cxl_ref.set_emb h 0 x;
                if Random.State.bool rng then b_held := x :: !b_held
                else Cxl_ref.drop x;
                holders := h :: !holders))
    | n when n < 84 ->
        (* Cross-client drop: B lets go of one of its references. *)
        Option.iter Cxl_ref.drop (take b_held)
    | n when n < 86 -> Option.iter Cxl_ref.drop (take holders)
    | n when n < 91 -> Ctx.cache_drop a
    | n when n < 92 -> ignore (Shm.scan_leaking arena)
    | n when n < 96 ->
        List.iter Cxl_ref.drop !b_held;
        b_held := [];
        Shm.leave !b;
        b := join_b ()
    | _ ->
        (* B crashes holding references; recovery releases them. *)
        Client.declare_failed (Shm.service_ctx arena) ~cid:!b.Ctx.cid;
        ignore (Shm.recover arena ~failed_cid:!b.Ctx.cid);
        b_held := [];
        b := join_b ()
  done;
  List.iter Cxl_ref.drop (!mine @ !holders @ !b_held);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat "; " v.Validate.errors) true
    (Validate.is_clean v);
  (!checked, !adopted)

let test_placement_equivalence () =
  let checked, adopted =
    List.fold_left
      (fun (c, a) seed ->
        let c', a' = placement_round ~seed in
        (c + c', a + a'))
      (0, 0) (List.init 8 Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rounds adopted orphans (%d) and checked %d allocations"
       adopted checked)
    true
    (adopted >= 4 && checked >= 2_000)

(* A replacement client's first allocation reads its ownership set from
   the dense segment table on a cold context. Walking it upward is one
   stream of lines; walking it downward paid a random CXL read per line
   (about N/2 on an N-segment table). *)
let test_cold_owned_by_streams () =
  let cfg = { Config.small with num_segments = 256 } in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () and b = Shm.join arena () in
  let rng = Random.State.make [| 22 |] in
  for s = 0 to cfg.num_segments - 1 do
    if Random.State.int rng 4 = 0 then ignore (Segment.claim b s)
  done;
  let direct =
    List.filter
      (fun s -> Segment.owner a s = Some b.Ctx.cid)
      (List.init cfg.num_segments Fun.id)
  in
  List.iter
    (fun (who, ctx) ->
      Ctx.cache_drop ctx;
      Stats.reset ctx.Ctx.st;
      Cxlshm_shmem.Lines.reset ctx.Ctx.lines;
      let got = Segment.owned_by ctx ~cid:b.Ctx.cid in
      Alcotest.(check (list int)) (who ^ ": ascending owner filter") direct got;
      let rand = ctx.Ctx.st.Stats.rand_accesses in
      if rand > 2 then
        Alcotest.failf "%s: cold scan of %d segments took %d random reads" who
          cfg.num_segments rand)
    [ ("peer", a); ("owner", b) ];
  Alcotest.(check bool)
    "scattered" true
    (List.length direct >= 32 && List.length direct <= 96)

(* The service context acts as cid 0, which the first client to join
   also gets: an object it allocated would be recorded as that client's
   and reaped when the client is recovered. It refuses to allocate, on a
   fresh arena and on one re-attached raw from an image. *)
let test_service_ctx_cannot_allocate () =
  let refuses label arena =
    (match Shm.cxl_malloc (Shm.service_ctx arena) ~size_bytes:16 () with
    | _ -> Alcotest.fail (label ^ ": the service context allocated")
    | exception Invalid_argument _ -> ());
    Alcotest.(check int) (label ^ ": nothing allocated") 0
      (Shm.validate arena).Validate.live_objects
  in
  let arena = small_arena () in
  let a = Shm.join arena () in
  refuses "fresh" arena;
  let r = Shm.cxl_malloc a ~size_bytes:16 () in
  let path = Filename.temp_file "cxlshm_service" ".pool" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Shm.save arena path;
  Cxl_ref.drop r;
  let raw = Shm.load_raw path in
  match Shm.cxl_malloc (Shm.service_ctx raw) ~size_bytes:16 () with
  | _ -> Alcotest.fail "raw: the service context allocated"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "alloc basic" `Quick test_alloc_basic;
    Alcotest.test_case "clone semantics" `Quick test_clone_semantics;
    Alcotest.test_case "double drop raises" `Quick test_double_drop_raises;
    Alcotest.test_case "many allocs reuse" `Quick test_many_allocs_reuse;
    Alcotest.test_case "size classes" `Quick test_size_classes;
    Alcotest.test_case "huge object" `Quick test_huge_object;
    Alcotest.test_case "out of memory" `Quick test_out_of_memory;
    Alcotest.test_case "cross-client free" `Quick test_cross_client_free;
    Alcotest.test_case "service context cannot allocate" `Quick
      test_service_ctx_cannot_allocate;
    Alcotest.test_case "embedded refs basic" `Quick test_emb_refs_basic;
    Alcotest.test_case "change emb (§5.4)" `Quick test_change_emb;
    Alcotest.test_case "word access guards" `Quick test_word_access_guards;
    Alcotest.test_case "page sets place like a full scan" `Quick
      test_placement_equivalence;
    Alcotest.test_case "cold ownership scan streams" `Quick
      test_cold_owned_by_streams;
  ]
