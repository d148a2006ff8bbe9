(* Incremental limbo reclamation: every row's worth of parks releases a
   bounded share of the passed entries, so a writer that never quiesces
   keeps a short limbo, no single call frees a backlog, and an announced
   reader era still pins everything stamped at or after it. Stamps are
   loads of the epoch, which moves only when a release keeps a pinned
   entry. *)

open Cxlshm
module Cxl_kv = Cxlshm_kv.Cxl_kv

let bound = 2 * Layout.limbo_row_entries

(* The default per-client share of 256 parks: a limbo that only quiesce
   drains grows to it before it frees anything. *)
let cfg =
  {
    Config.small with
    Config.num_segments = 32;
    pages_per_segment = 8;
    park_slots = 256;
  }

let fresh ~keys =
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let store, h = Cxl_kv.create a ~buckets:64 ~partitions:1 ~value_words:1 in
  Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
  for k = 0 to keys - 1 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  (arena, a, store, h)

(* COW-update an existing key; the parked records the call released. *)
let put_cow_released h ~key ~value =
  let before = Cxl_kv.deferred_count h in
  Cxl_kv.put_cow h ~key ~value;
  before + 1 - Cxl_kv.deferred_count h

let check_clean arena =
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* [(obj, stamp)] of every entry in rows whose owner word is [owner]. *)
let parked_by arena ~owner =
  let peek = Cxlshm_shmem.Mem.unsafe_peek (Shm.mem arena) in
  List.map
    (fun (rr, stamp) -> (peek (Rootref.pptr_slot rr), stamp))
    (Limbo.peek_entries (Shm.mem arena) (Shm.layout arena) ~owner)

let parked arena (ctx : Ctx.t) = parked_by arena ~owner:(ctx.Ctx.cid + 1)

let with_no_advance f =
  Limbo.mutation_no_advance := true;
  Fun.protect ~finally:(fun () -> Limbo.mutation_no_advance := false) f

(* No reader, no quiesce: the parks alone keep the limbo within two rows. *)
let test_bounded_without_quiesce () =
  let keys = 1024 in
  let arena, _a, _store, h = fresh ~keys in
  let peak = ref 0 in
  for i = 1 to 10_000 do
    Cxl_kv.put_cow h ~key:(i mod keys) ~value:i;
    peak := max !peak (Cxl_kv.deferred_count h)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "peak parked %d <= %d" !peak bound)
    true (!peak <= bound);
  Alcotest.(check (option int)) "last value" (Some 10_000)
    (Cxl_kv.get h ~key:(10_000 mod keys));
  Cxl_kv.close h;
  check_clean arena

(* A backlog of passed entries drains a row at a time: only a row-filling
   park (or a reserve with every owned entry taken) releases, and it
   releases at most two rows' worth; quiesce still frees the rest in one
   call. *)
let test_release_per_call_bounded () =
  let n = 600 in
  let arena, _a, _store, h = fresh ~keys:n in
  let rctx = Shm.join arena () in
  Hazard.enter rctx;
  for k = 0 to n - 1 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "pinned backlog" n (Cxl_kv.deferred_count h);
  Hazard.exit rctx;
  let most = ref 0 and releasing = ref 0 in
  for k = 0 to 199 do
    let freed = put_cow_released h ~key:k ~value:(200 + k) in
    most := max !most freed;
    if freed > 0 then incr releasing
  done;
  Alcotest.(check int) "no call releases more than two rows" bound !most;
  (* a row-filling park releases, and so does the first reserve that finds
     every owned entry taken *)
  Alcotest.(check bool)
    (Printf.sprintf "%d releasing calls in 200" !releasing)
    true
    (!releasing <= (200 / Layout.limbo_row_entries) + 1);
  Cxl_kv.quiesce h;
  Alcotest.(check bool) "quiesce frees every passed entry" true
    (Cxl_kv.deferred_count h <= 1);
  Shm.leave rctx;
  Cxl_kv.close h;
  check_clean arena

(* A reader inside [Hazard.enter] pins every entry parked since the last
   release before it announced through 1,000 COWs; once it exits the
   backlog drains at no more than two rows per releasing park. *)
let test_pinned_era_then_drain () =
  let keys = 1024 in
  let arena, a, _store, h = fresh ~keys in
  let early = 50 in
  for k = 0 to early - 1 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  let before = List.map fst (parked arena a) in
  Alcotest.(check int) "the releases left only the parks since the last"
    (early mod Layout.limbo_row_entries)
    (List.length before);
  let rctx = Shm.join arena () in
  Hazard.enter rctx;
  let era = Hazard.announced rctx ~cid:rctx.Ctx.cid in
  for k = 0 to 999 do
    Cxl_kv.put_cow h ~key:k ~value:(1000 + k)
  done;
  let now = parked arena a in
  Alcotest.(check int) "every COW under the pin is still parked" 1000
    (List.length (List.filter (fun (obj, _) -> not (List.mem obj before)) now));
  Alcotest.(check bool) "so is every entry parked before the era" true
    (List.for_all (fun obj -> List.mem_assoc obj now) before);
  Alcotest.(check bool) "no entry is stamped before the era" true
    (List.for_all (fun (_, s) -> s >= era) now);
  Hazard.exit rctx;
  let backlog = Cxl_kv.deferred_count h in
  let k = ref 0 and most = ref 0 in
  while Cxl_kv.deferred_count h > bound do
    let freed = put_cow_released h ~key:(!k mod keys) ~value:(5000 + !k) in
    most := max !most freed;
    incr k
  done;
  Alcotest.(check int) "at most two rows per releasing park" bound !most;
  (* each row of parks adds one row and releases two: a net row per row *)
  let row = Layout.limbo_row_entries in
  Alcotest.(check bool)
    (Printf.sprintf "%d parked drained in %d parks" backlog !k)
    true
    (!k >= backlog - bound - row && !k <= backlog + row);
  Alcotest.(check (option int)) "reader sees the latest value"
    (Some (5000 + !k - 1))
    (Cxl_kv.get h ~key:((!k - 1) mod keys));
  Shm.leave rctx;
  Cxl_kv.close h;
  check_clean arena

(* With no reader announced, a writer's release frees its own parks, the
   newest included; its walks run unannounced, and it never advances the
   epoch. *)
let test_own_parks_freed_unannounced () =
  let arena, a, _store, h = fresh ~keys:64 in
  let e0 = Hazard.retire_epoch a in
  let announced = ref 0 in
  Cxl_kv.walk_hook :=
    (fun () -> announced := max !announced (Hazard.announced a ~cid:a.Ctx.cid));
  Fun.protect ~finally:(fun () -> Cxl_kv.walk_hook := fun () -> ())
  @@ fun () ->
  let row = Layout.limbo_row_entries in
  for k = 0 to row - 2 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "parked until the row fills" (row - 1)
    (Cxl_kv.deferred_count h);
  Cxl_kv.put_cow h ~key:(row - 1) ~value:(100 + row);
  Alcotest.(check int) "the row-filling park frees every park, its own too" 0
    (Cxl_kv.deferred_count h);
  Cxl_kv.put_cow h ~key:0 ~value:7;
  Cxl_kv.quiesce h;
  Alcotest.(check int) "quiesce frees the newest park" 0
    (Cxl_kv.deferred_count h);
  Alcotest.(check int) "writer walks unannounced" 0 !announced;
  Alcotest.(check int) "no release advanced the epoch" e0
    (Hazard.retire_epoch a);
  Cxl_kv.close h;
  check_clean arena

(* A reader that exits and re-enters around every COW announces the
   newest epoch each time, so each release's advance lets the next release
   free what the last one kept: the limbo stays within two rows. Without
   the advance the reader would pin every stamp. *)
let test_reannouncing_reader_bounded () =
  let peak () =
    let keys = 1024 in
    let arena, _a, _store, h = fresh ~keys in
    let rctx = Shm.join arena () in
    let peak = ref 0 in
    Hazard.enter rctx;
    for i = 1 to 1000 do
      Cxl_kv.put_cow h ~key:(i mod keys) ~value:i;
      peak := max !peak (Cxl_kv.deferred_count h);
      Hazard.exit rctx;
      Hazard.enter rctx
    done;
    Hazard.exit rctx;
    Shm.leave rctx;
    Cxl_kv.close h;
    check_clean arena;
    !peak
  in
  let p = peak () in
  Alcotest.(check bool) (Printf.sprintf "peak parked %d <= %d" p bound) true
    (p <= bound);
  let p = with_no_advance peak in
  Alcotest.(check bool)
    (Printf.sprintf "mutation_no_advance: peak parked %d > %d" p bound)
    true (p > bound)

(* A dead writer's orphaned rows pinned by a reader that re-announces
   between leak scans: the scan that finds every entry pinned advances the
   epoch, so the next one drains them. *)
let test_drain_advances_past_reader () =
  let run () =
    let arena, a, store, h = fresh ~keys:16 in
    let rctx = Shm.join arena () in
    let hr = Cxl_kv.open_store rctx store in
    Hazard.enter rctx;
    for k = 0 to 2 do
      Cxl_kv.put_cow h ~key:k ~value:(100 + k)
    done;
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
    let orphaned () =
      List.length (parked_by arena ~owner:Layout.limbo_orphaned)
    in
    Alcotest.(check int) "orphaned" 3 (orphaned ());
    for _ = 1 to 2 do
      Hazard.exit rctx;
      Hazard.enter rctx;
      ignore (Shm.scan_leaking arena)
    done;
    let left = orphaned () in
    Hazard.exit rctx;
    ignore (Shm.scan_leaking arena);
    Alcotest.(check int) "drained once unpinned" 0 (orphaned ());
    Cxl_kv.close hr;
    Shm.leave rctx;
    check_clean arena;
    left
  in
  Alcotest.(check int) "drained under the re-announcing reader" 0 (run ());
  Alcotest.(check int) "mutation_no_advance: still pinned" 3
    (with_no_advance run)

(* Rows a successor takes over with [adopt_recovered] join its limbo and
   drain through its own later parks, with no quiesce call. *)
let test_adopted_rows_drain_by_parks () =
  let n = 20 in
  let arena, a, store, h = fresh ~keys:(2 * n) in
  let rctx = Shm.join arena () in
  (* the reader's handle keeps the index alive across the writer's death *)
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to n - 1 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
  Alcotest.(check int) "adopted" n (Cxl_kv.adopt_recovered hb);
  let adopted =
    Limbo.peek_entries (Shm.mem arena) (Shm.layout arena)
      ~owner:(b.Ctx.cid + 1)
  in
  Hazard.exit rctx;
  for k = n to (2 * n) - 1 do
    Cxl_kv.put_cow hb ~key:k ~value:(100 + k)
  done;
  let left =
    Limbo.peek_entries (Shm.mem arena) (Shm.layout arena)
      ~owner:(b.Ctx.cid + 1)
  in
  Alcotest.(check int) "every adopted entry released by the parks" 0
    (List.length (List.filter (fun e -> List.mem e adopted) left));
  Alcotest.(check bool) "successor limbo bounded" true
    (Cxl_kv.deferred_count hb <= bound);
  for k = 0 to (2 * n) - 1 do
    Alcotest.(check (option int)) "value" (Some (100 + k))
      (Cxl_kv.get hb ~key:k)
  done;
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close hb;
  Shm.leave b;
  check_clean arena

let suite =
  [
    Alcotest.test_case "bounded without quiesce" `Quick
      test_bounded_without_quiesce;
    Alcotest.test_case "release per call bounded" `Quick
      test_release_per_call_bounded;
    Alcotest.test_case "pinned era holds, then drains" `Quick
      test_pinned_era_then_drain;
    Alcotest.test_case "adopted rows drain by parks" `Quick
      test_adopted_rows_drain_by_parks;
    Alcotest.test_case "own parks freed unannounced" `Quick
      test_own_parks_freed_unannounced;
    Alcotest.test_case "re-announcing reader bounded" `Quick
      test_reannouncing_reader_bounded;
    Alcotest.test_case "drain advances past a reader" `Quick
      test_drain_advances_past_reader;
  ]
