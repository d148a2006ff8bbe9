(* Baseline allocators: correctness (no overlap, reuse), Ralloc recovery,
   buddy coalescing. *)

module Stats = Cxlshm_shmem.Stats

module Check (A : Cxlshm_allocators.Alloc_intf.S) = struct
  (* Allocate a batch, write distinct patterns, verify none overlap. *)
  let no_overlap ~words ~count ~size () =
    let a = A.create ~words ~threads:2 in
    let th = A.thread a 0 in
    let blocks = Array.init count (fun _ -> A.alloc th ~size_bytes:size) in
    Array.iteri (fun i b -> A.write_word th b 0 (1000 + i)) blocks;
    Array.iteri
      (fun i b ->
        Alcotest.(check int)
          (Printf.sprintf "%s block %d pattern" A.name i)
          (1000 + i) (A.read_word th b 0))
      blocks;
    Array.iter (fun b -> A.free th b) blocks

  let reuse ~words () =
    let a = A.create ~words ~threads:1 in
    let th = A.thread a 0 in
    (* Churn far more than the arena holds: frees must recycle. *)
    for i = 1 to 20_000 do
      let b = A.alloc th ~size_bytes:64 in
      A.write_word th b 0 i;
      A.free th b
    done

  let cases ~words =
    [
      Alcotest.test_case (A.name ^ " no overlap") `Quick
        (no_overlap ~words ~count:100 ~size:64);
      Alcotest.test_case (A.name ^ " reuse") `Quick (reuse ~words);
    ]
end

module M = Check (Cxlshm_allocators.Local_mimalloc)
module J = Check (Cxlshm_allocators.Local_jemalloc)
module R = Check (Cxlshm_allocators.Ralloc)
module B = Check (Cxlshm_allocators.Buddy)

let test_ralloc_recovery () =
  let module R = Cxlshm_allocators.Ralloc in
  let a = R.create ~words:200_000 ~threads:1 in
  let th = R.thread a 0 in
  (* A root object pointing at a child; plus garbage that must be swept. *)
  (* Zero whole payloads: freshly carved blocks contain stale free-chain
     pointers, which a conservative scan would (legitimately) retain. *)
  let zero b = for w = 0 to 7 do R.write_word th b w 0 done in
  let root = R.alloc th ~size_bytes:64 in
  let child = R.alloc th ~size_bytes:64 in
  zero root;
  zero child;
  R.write_word th root 0 child;
  R.set_root th root;
  let garbage = List.init 200 (fun _ -> R.alloc th ~size_bytes:64) in
  List.iter zero garbage;
  (* crash: nothing freed; recover *)
  let st = Stats.create () in
  let live, swept = R.recover a ~st ~lines:(Cxlshm_shmem.Lines.create ()) in
  Alcotest.(check int) "two blocks reachable" 2 live;
  Alcotest.(check bool) "garbage swept" true (swept >= 200);
  (* The sweep visits every carved block (heap-proportional), unlike
     CXL-SHM's recovery which visits only the dead client's RootRefs. *)
  Alcotest.(check bool) "recovery cost is heap-proportional" true
    (R.words_scanned a > 200);
  (* allocator still usable; swept blocks recycle *)
  let b = R.alloc th ~size_bytes:64 in
  R.write_word th b 0 42;
  Alcotest.(check int) "usable after recovery" 42 (R.read_word th b 0)

let test_buddy_coalesce () =
  let module B = Cxlshm_allocators.Buddy in
  let a = B.create ~words:8_192 ~threads:1 in
  let th = B.thread a 0 in
  (* Fill the heap with small blocks, free all, then a maximal block must
     fit again — proving buddies re-merge. *)
  let rec grab acc =
    match B.alloc th ~size_bytes:64 with
    | b -> grab (b :: acc)
    | exception Out_of_memory -> acc
  in
  let all = grab [] in
  Alcotest.(check bool) "heap was filled" true (List.length all > 10);
  List.iter (fun b -> B.free th b) all;
  let big = B.alloc th ~size_bytes:(8 * 1024) in
  B.write_word th big 0 7;
  Alcotest.(check int) "merged big block" 7 (B.read_word th big 0);
  B.free th big

let test_buddy_double_free_detected () =
  let module B = Cxlshm_allocators.Buddy in
  let a = B.create ~words:4_096 ~threads:1 in
  let th = B.thread a 0 in
  let b = B.alloc th ~size_bytes:64 in
  B.free th b;
  Alcotest.check_raises "double free" (Invalid_argument "Buddy.free: double free")
    (fun () -> B.free th b)

let test_buddy_serialises () =
  let module B = Cxlshm_allocators.Buddy in
  let a = B.create ~words:16_384 ~threads:2 in
  let per = 200 in
  let body tid () =
    let th = B.thread a tid in
    for _ = 1 to per do
      let b = B.alloc th ~size_bytes:64 in
      B.free th b
    done
  in
  let d = Domain.spawn (body 1) in
  body 0 ();
  Domain.join d;
  let s = B.serial_stats a in
  Alcotest.(check bool) "all traffic serialised" true
    (Stats.total_accesses s > 2 * per)

let test_variable_sizes_all () =
  (* Cross-allocator: mixed sizes roundtrip their payloads. *)
  let check (module A : Cxlshm_allocators.Alloc_intf.S) =
    let a = A.create ~words:300_000 ~threads:1 in
    let th = A.thread a 0 in
    let sizes = [ 8; 16; 64; 100; 200; 400 ] in
    let blocks = List.map (fun s -> (s, A.alloc th ~size_bytes:s)) sizes in
    List.iteri (fun i (_, b) -> A.write_word th b 0 i) blocks;
    List.iteri
      (fun i (s, b) ->
        Alcotest.(check int)
          (Printf.sprintf "%s size %d" A.name s)
          i (A.read_word th b 0))
      blocks;
    List.iter (fun (_, b) -> A.free th b) blocks
  in
  List.iter check
    [
      (module Cxlshm_allocators.Local_mimalloc);
      (module Cxlshm_allocators.Local_jemalloc);
      (module Cxlshm_allocators.Ralloc);
      (module Cxlshm_allocators.Buddy);
    ]

let suite =
  M.cases ~words:300_000 @ J.cases ~words:300_000 @ R.cases ~words:300_000
  @ B.cases ~words:65_536
  @ [
      Alcotest.test_case "ralloc STW recovery" `Quick test_ralloc_recovery;
      Alcotest.test_case "buddy coalesce" `Quick test_buddy_coalesce;
      Alcotest.test_case "buddy double free" `Quick test_buddy_double_free_detected;
      Alcotest.test_case "buddy serialises" `Quick test_buddy_serialises;
      Alcotest.test_case "variable sizes (all)" `Quick test_variable_sizes_all;
    ]
