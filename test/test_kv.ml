(* CXL-KV, the baselines, and the Fig 10 workload generators. *)

open Cxlshm
module Cxl_kv = Cxlshm_kv.Cxl_kv
module Tbb_kv = Cxlshm_kv.Tbb_kv
module Lightning_kv = Cxlshm_kv.Lightning_kv
module Zipf = Cxlshm_kv.Zipf
module Ycsb = Cxlshm_kv.Ycsb
module Tatp = Cxlshm_kv.Tatp
module Smallbank = Cxlshm_kv.Smallbank
module Kv_intf = Cxlshm_kv.Kv_intf
module Load_gen = Cxlshm_serve.Load_gen

let kv_cfg = { Config.small with Config.num_segments = 32; pages_per_segment = 8 }

let fresh () =
  let arena = Shm.create ~cfg:kv_cfg () in
  let a = Shm.join arena () in
  let store, h = Cxl_kv.create a ~buckets:64 ~partitions:4 ~value_words:2 in
  Alcotest.(check bool) "claim p0" true (Cxl_kv.claim_partition h 0);
  Alcotest.(check bool) "claim p1" true (Cxl_kv.claim_partition h 1);
  Alcotest.(check bool) "claim p2" true (Cxl_kv.claim_partition h 2);
  Alcotest.(check bool) "claim p3" true (Cxl_kv.claim_partition h 3);
  (arena, a, store, h)

let test_put_get_delete () =
  let arena, _a, _store, h = fresh () in
  Alcotest.(check (option int)) "miss" None (Cxl_kv.get h ~key:5);
  Cxl_kv.put h ~key:5 ~value:500;
  Alcotest.(check (option int)) "hit" (Some 500) (Cxl_kv.get h ~key:5);
  Cxl_kv.put h ~key:5 ~value:777;
  Alcotest.(check (option int)) "in-place update" (Some 777) (Cxl_kv.get h ~key:5);
  Alcotest.(check bool) "delete" true (Cxl_kv.delete h ~key:5);
  Alcotest.(check (option int)) "gone" None (Cxl_kv.get h ~key:5);
  Alcotest.(check bool) "delete again" false (Cxl_kv.delete h ~key:5);
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "store fully reclaimed" 0 v.Validate.live_objects

let test_collision_chains () =
  let arena, _a, _store, h = fresh () in
  (* 64 buckets, 500 keys: plenty of collisions. *)
  for k = 0 to 499 do
    Cxl_kv.put h ~key:k ~value:(k * 3)
  done;
  Alcotest.(check int) "size" 500 (Cxl_kv.size_estimate h);
  for k = 0 to 499 do
    Alcotest.(check (option int)) (Printf.sprintf "key %d" k) (Some (k * 3))
      (Cxl_kv.get h ~key:k)
  done;
  (* delete every third key *)
  for k = 0 to 499 do
    if k mod 3 = 0 then Alcotest.(check bool) "del" true (Cxl_kv.delete h ~key:k)
  done;
  for k = 0 to 499 do
    let expect = if k mod 3 = 0 then None else Some (k * 3) in
    Alcotest.(check (option int)) (Printf.sprintf "after del %d" k) expect
      (Cxl_kv.get h ~key:k)
  done;
  Cxl_kv.quiesce h;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check bool) "clean" true (Validate.is_clean (Shm.validate arena))

let test_put_cow_relocates () =
  let arena, _a, _store, h = fresh () in
  Cxl_kv.put h ~key:3 ~value:30;
  let before = Cxl_kv.get_all_words h ~key:3 in
  (* in-place update keeps the record where it is *)
  Cxl_kv.put h ~key:3 ~value:31;
  Alcotest.(check (option int)) "in place" (Some 31) (Cxl_kv.get h ~key:3);
  (* copy-on-write replaces the record atomically *)
  Cxl_kv.put_cow h ~key:3 ~value:99;
  Alcotest.(check (option int)) "after cow" (Some 99) (Cxl_kv.get h ~key:3);
  ignore before;
  Cxl_kv.quiesce h;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_multi_value_words () =
  let arena, _a, _store, h = fresh () in
  Cxl_kv.put h ~key:9 ~value:100;
  (match Cxl_kv.get_all_words h ~key:9 with
  | Some [| a; b |] ->
      Alcotest.(check int) "word0" 100 a;
      Alcotest.(check int) "word1" 101 b
  | _ -> Alcotest.fail "expected 2 value words");
  Cxl_kv.close h;
  ignore arena

let test_single_writer_enforced () =
  let arena, _a, store, h = fresh () in
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  (* b is not a writer of any partition. *)
  (try
     Cxl_kv.put hb ~key:1 ~value:1;
     Alcotest.fail "expected writer check to fire"
   with Failure _ -> ());
  (* but b reads everything (shared-everything). *)
  Cxl_kv.put h ~key:1 ~value:11;
  Alcotest.(check (option int)) "remote read" (Some 11) (Cxl_kv.get hb ~key:1);
  Cxl_kv.close hb;
  Cxl_kv.close h

let test_writer_failover () =
  (* §6.4.1: dead writer's partition is taken over with one CAS; no data
     moves; the new writer continues in place. *)
  let arena, a, store, h = fresh () in
  Cxl_kv.put h ~key:0 ~value:111;
  Cxl_kv.put h ~key:4 ~value:444;
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  (* writer a dies *)
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  (* data survives: the index holds the records *)
  Alcotest.(check (option int)) "data survives crash" (Some 111)
    (Cxl_kv.get hb ~key:0);
  Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
  Alcotest.(check (option int)) "writer id updated" (Some b.Ctx.cid)
    (Cxl_kv.writer_of_partition hb 0);
  Cxl_kv.put hb ~key:0 ~value:999;
  Alcotest.(check (option int)) "new writer writes" (Some 999)
    (Cxl_kv.get hb ~key:0);
  Cxl_kv.close hb;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_concurrent_readers () =
  let arena, _a, store, h = fresh () in
  for k = 0 to 199 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let reader () =
    let c = Shm.join arena () in
    let hr = Cxl_kv.open_store c store in
    let ok = ref true in
    for k = 0 to 199 do
      match Cxl_kv.get hr ~key:k with
      | Some v when v = k -> ()
      | _ -> ok := false
    done;
    Cxl_kv.close hr;
    Shm.leave c;
    !ok
  in
  let ds = List.init 3 (fun _ -> Domain.spawn reader) in
  let all = List.for_all Fun.id (List.map Domain.join ds) in
  Alcotest.(check bool) "all readers consistent" true all;
  Cxl_kv.close h

(* Model-based property: CXL-KV behaves like a Hashtbl under random op
   sequences. *)
let prop_kv_model =
  QCheck.Test.make ~name:"cxl-kv matches model" ~count:40
    QCheck.(list_of_size Gen.(1 -- 120) (pair (int_bound 60) (int_bound 2)))
    (fun ops ->
      let arena = Shm.create ~cfg:kv_cfg () in
      let a = Shm.join arena () in
      let _store, h = Cxl_kv.create a ~buckets:16 ~partitions:2 ~value_words:1 in
      ignore (Cxl_kv.claim_partition h 0);
      ignore (Cxl_kv.claim_partition h 1);
      let model = Hashtbl.create 64 in
      let ok =
        List.for_all
          (fun (key, kind) ->
            match kind with
            | 0 ->
                Cxl_kv.put h ~key ~value:(key * 7);
                Hashtbl.replace model key (key * 7);
                true
            | 1 ->
                let got = Cxl_kv.delete h ~key in
                let expect = Hashtbl.mem model key in
                Hashtbl.remove model key;
                got = expect
            | _ -> Cxl_kv.get h ~key = Hashtbl.find_opt model key)
          ops
      in
      Cxl_kv.close h;
      ignore (Shm.scan_leaking arena);
      ok && Validate.is_clean (Shm.validate arena))

let test_baselines_agree () =
  (* TBB-KV and Lightning-KV produce the same results as a model. *)
  let tbb = Tbb_kv.create ~buckets:32 ~value_words:1 ~capacity:1000 ~threads:1 in
  let th = Tbb_kv.handle tbb 0 in
  let lkv = Lightning_kv.create ~buckets:32 ~value_words:1 ~words:65_536 ~threads:1 in
  let lh = Lightning_kv.handle lkv 0 in
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 500 do
    let key = Random.State.int rng 50 in
    match Random.State.int rng 3 with
    | 0 ->
        let v = Random.State.int rng 10_000 in
        Tbb_kv.put th ~key ~value:v;
        Lightning_kv.put lh ~key ~value:v;
        Hashtbl.replace model key v
    | 1 ->
        let e = Hashtbl.mem model key in
        Hashtbl.remove model key;
        Alcotest.(check bool) "tbb delete" e (Tbb_kv.delete th ~key);
        Alcotest.(check bool) "lightning delete" e (Lightning_kv.delete lh ~key)
    | _ ->
        let e = Hashtbl.find_opt model key in
        Alcotest.(check (option int)) "tbb get" e (Tbb_kv.get th ~key);
        Alcotest.(check (option int)) "lightning get" e (Lightning_kv.get lh ~key)
  done

let test_zipf_shape () =
  let z = Zipf.create ~n:1000 ~theta:0.99 ~seed:1 in
  let counts = Array.make 1000 0 in
  let samples = 50_000 in
  for _ = 1 to samples do
    let k = Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  let top1 = float_of_int counts.(0) /. float_of_int samples in
  let expected = Zipf.expected_top1_mass z in
  Alcotest.(check bool)
    (Printf.sprintf "top-1 mass %.3f ≈ %.3f" top1 expected)
    true
    (Float.abs (top1 -. expected) < 0.02);
  (* skew: hottest beats the tail decisively *)
  Alcotest.(check bool) "skewed" true (counts.(0) > 10 * counts.(500));
  let u = Zipf.create ~n:1000 ~theta:0.0 ~seed:1 in
  let uc = Array.make 1000 0 in
  for _ = 1 to samples do
    let k = Zipf.sample u in
    uc.(k) <- uc.(k) + 1
  done;
  Alcotest.(check bool) "uniform is flat-ish" true
    (uc.(0) < 3 * (samples / 1000))

let test_ycsb_presets () =
  List.iter
    (fun (preset, expect_writes) ->
      let w = Ycsb.of_preset ~keys:100 ~seed:5 preset in
      let n = 4_000 in
      let writes = ref 0 in
      for _ = 1 to n do
        if Kv_intf.is_write (Ycsb.next w) then incr writes
      done;
      let ratio = float_of_int !writes /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f ≈ %.2f" (Ycsb.preset_name preset) ratio
           expect_writes)
        true
        (Float.abs (ratio -. expect_writes) < 0.03))
    [ (Ycsb.A, 0.5); (Ycsb.B, 0.05); (Ycsb.C, 0.0); (Ycsb.F, 0.5) ]

let test_kv_iter () =
  let arena, _a, _store, h = fresh () in
  for k = 0 to 49 do
    Cxl_kv.put h ~key:k ~value:(k * 2)
  done;
  Alcotest.(check (list int)) "keys sorted" (List.init 50 Fun.id) (Cxl_kv.keys h);
  let sum = ref 0 in
  Cxl_kv.iter h (fun ~key:_ ~value -> sum := !sum + value);
  Alcotest.(check int) "value sum" (49 * 50) !sum;
  Cxl_kv.close h;
  ignore arena

let test_ycsb_mix () =
  let w = Ycsb.create ~keys:100 ~write_ratio:0.1 ~theta:0.5 ~seed:3 in
  let n = 10_000 in
  let writes = ref 0 in
  for _ = 1 to n do
    if Kv_intf.is_write (Ycsb.next w) then incr writes
  done;
  let ratio = float_of_int !writes /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "write ratio %.3f ≈ 0.1" ratio)
    true
    (Float.abs (ratio -. 0.1) < 0.02)

let test_tatp_mix () =
  let t = Tatp.create ~subscribers:100 ~seed:4 in
  let txns = 10_000 in
  let reads = ref 0 in
  for _ = 1 to txns do
    let ops = Tatp.next t in
    if List.for_all (fun o -> not (Kv_intf.is_write o)) ops then incr reads
  done;
  let frac = float_of_int !reads /. float_of_int txns in
  Alcotest.(check bool)
    (Printf.sprintf "read-only fraction %.3f ≈ 0.8" frac)
    true
    (Float.abs (frac -. Tatp.read_fraction) < 0.02)

let test_smallbank_runs () =
  let sb = Smallbank.create ~accounts:50 ~seed:5 in
  let tbb = Tbb_kv.create ~buckets:64 ~value_words:1 ~capacity:500 ~threads:1 in
  let th = Tbb_kv.handle tbb 0 in
  let apply = function
    | Kv_intf.Insert (k, v) | Kv_intf.Update (k, v) ->
        Tbb_kv.put th ~key:k ~value:v
    | Kv_intf.Rmw (k, v) ->
        let old = Option.value (Tbb_kv.get th ~key:k) ~default:0 in
        Tbb_kv.put th ~key:k ~value:(old + v)
    | Kv_intf.Read k -> ignore (Tbb_kv.get th ~key:k)
    | Kv_intf.Delete k -> ignore (Tbb_kv.delete th ~key:k)
  in
  List.iter apply (Smallbank.load_ops sb);
  for _ = 1 to 1000 do
    List.iter apply (Smallbank.next sb)
  done

(* ---- generators, era-tied quiesce, handoff, open-loop arrivals ---- *)

(* The O(1) Gray sampler against the exact distribution: brute-force the
   normalizer and compare empirical rank frequencies at a fixed seed. *)
let test_zipf_reference () =
  let n = 200 and theta = 0.7 in
  let h = ref 0.0 in
  for i = 1 to n do
    h := !h +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  let z = Zipf.create ~n ~theta ~seed:7 in
  Alcotest.(check bool)
    (Printf.sprintf "top-1 closed form %.4f ≈ %.4f"
       (Zipf.expected_top1_mass z) (1.0 /. !h))
    true
    (Float.abs (Zipf.expected_top1_mass z -. (1.0 /. !h)) < 0.002);
  let samples = 100_000 in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let k = Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  List.iter
    (fun rank ->
      let expect =
        1.0 /. (Float.pow (float_of_int (rank + 1)) theta *. !h)
      in
      let got = float_of_int counts.(rank) /. float_of_int samples in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d: %.4f ≈ %.4f" rank got expect)
        true
        (Float.abs (got -. expect) < 0.005 +. (0.1 *. expect)))
    [ 0; 1; 2; 9; 49 ];
  (* the closed form needs theta in [0, 1) *)
  (match Zipf.create ~n:10 ~theta:1.0 ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "theta = 1 accepted");
  match Zipf.create ~n:10 ~theta:(-0.1) ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative theta accepted"

let test_ycsb_load_stream () =
  let w = Ycsb.create ~keys:500 ~write_ratio:0.5 ~theta:0.5 ~seed:3 in
  let n = ref 0 in
  Ycsb.load_iter w (fun op ->
      (match op with
      | Kv_intf.Insert (k, v) ->
          Alcotest.(check int) "load key order" !n k;
          Alcotest.(check int) "load value" k v
      | _ -> Alcotest.fail "load phase must be all inserts");
      incr n);
  Alcotest.(check int) "streamed count" 500 !n;
  Alcotest.(check int) "list count" 500 (List.length (Ycsb.load_ops w));
  Alcotest.(check bool) "seq matches list" true
    (List.of_seq (Ycsb.load_seq w) = Ycsb.load_ops w)

let test_ycsb_latest_bias () =
  let w = Ycsb.of_preset ~keys:10_000 ~seed:9 Ycsb.D in
  Alcotest.(check bool) "D reads the latest" true (Ycsb.dist w = Ycsb.Latest);
  let reads = ref 0 and hot = ref 0 in
  for _ = 1 to 8_000 do
    match Ycsb.next w with
    | Kv_intf.Read k ->
        incr reads;
        if k >= Ycsb.keys w * 9 / 10 then incr hot
    | _ -> ()
  done;
  let frac = float_of_int !hot /. float_of_int !reads in
  (* uniform would put 10% of reads in the newest decile; latest-biased
     zipf(0.9) puts ~75% there *)
  Alcotest.(check bool)
    (Printf.sprintf "newest-decile read fraction %.2f > 0.5" frac)
    true (frac > 0.5)

let test_rmw_semantics () =
  let _arena, _a, _store, h = fresh () in
  Alcotest.(check (option int)) "rmw on missing inserts delta" None
    (Cxl_kv.rmw h ~key:9 ~delta:5);
  Alcotest.(check (option int)) "inserted" (Some 5) (Cxl_kv.get h ~key:9);
  Alcotest.(check (option int)) "rmw returns old" (Some 5)
    (Cxl_kv.rmw h ~key:9 ~delta:37);
  Alcotest.(check (option int)) "accumulated" (Some 42) (Cxl_kv.get h ~key:9);
  let w = Ycsb.of_preset ~keys:50 ~seed:2 Ycsb.F in
  let saw = ref false in
  for _ = 1 to 200 do
    match Ycsb.next w with Kv_intf.Rmw _ -> saw := true | _ -> ()
  done;
  Alcotest.(check bool) "preset F emits rmw ops" true !saw

(* A paused protected traversal must pin COW-displaced records across
   quiesce; releasing the era unpins them. *)
let test_quiesce_era_tied () =
  let arena, _a, store, h = fresh () in
  Cxl_kv.put h ~key:1 ~value:11;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  Cxl_kv.put_cow h ~key:1 ~value:22;
  Alcotest.(check int) "parked" 1 (Cxl_kv.deferred_count h);
  Cxl_kv.quiesce h;
  Alcotest.(check int) "pinned by the announced era" 1
    (Cxl_kv.deferred_count h);
  Hazard.exit rctx;
  Cxl_kv.quiesce h;
  Alcotest.(check int) "freed once the reader moved on" 0
    (Cxl_kv.deferred_count h);
  Alcotest.(check (option int)) "new value" (Some 22) (Cxl_kv.get h ~key:1);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* Planned shard handoff: parked records ride a transfer queue to a
   successor, stay pinned there, and reclaim once the era clears. *)
let test_handoff_adopt () =
  let arena, a, store, h = fresh () in
  for k = 0 to 9 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  Hazard.enter rctx;
  for k = 0 to 9 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "ten parked" 10 (Cxl_kv.deferred_count h);
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:16 in
  let sent = Cxl_kv.handoff_deferred h q in
  Alcotest.(check int) "all sent" 10 sent;
  Alcotest.(check int) "sender drained" 0 (Cxl_kv.deferred_count h);
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Alcotest.(check int) "all adopted" 10 (Cxl_kv.adopt_deferred hb qb ~max:10);
  Alcotest.(check int) "parked at successor" 10 (Cxl_kv.deferred_count hb);
  Transfer.close qb;
  Transfer.close q;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "still pinned at successor" 10
    (Cxl_kv.deferred_count hb);
  Hazard.exit rctx;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "reclaimed" 0 (Cxl_kv.deferred_count hb);
  for k = 0 to 9 do
    Alcotest.(check (option int)) "value survives" (Some (100 + k))
      (Cxl_kv.get hb ~key:k)
  done;
  Cxl_kv.close hb;
  Shm.leave b;
  Shm.leave rctx;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* ---- crash adoption of a dead writer's limbo rows ---- *)

module Mem = Cxlshm_shmem.Mem

(* The (obj, stamp) pairs in the limbo rows whose owner word is [owner] —
   the objects recovery must never free while a reader era pins them. *)
let limbo_snapshot arena ~owner =
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  List.map
    (fun (rr, stamp) -> (peek (Rootref.pptr_slot rr), stamp))
    (Limbo.peek_entries (Shm.mem arena) (Shm.layout arena) ~owner)

let registry_snapshot arena cid = limbo_snapshot arena ~owner:(cid + 1)

let record_key arena r =
  Mem.unsafe_peek (Shm.mem arena) (Obj_header.data_of_obj r + 1)

let orphaned arena =
  List.length (limbo_snapshot arena ~owner:Layout.limbo_orphaned)

let check_clean arena =
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* A writer dies with era-pinned parked records; recovery orphans its
   rows in place (stamps intact) and a live successor adopts them —
   nothing is freed until the pinned reader moves on. *)
let test_crash_adopt_successor () =
  let arena, a, store, h = fresh () in
  for k = 0 to 9 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to 9 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "ten parked" 10 (Cxl_kv.deferred_count h);
  let parked = registry_snapshot arena a.Ctx.cid in
  Alcotest.(check int) "ten in the writer's rows" 10 (List.length parked);
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  let rep = Recovery.recover svc ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "all ten left in orphaned rows" 10
    rep.Recovery.parked_journaled;
  Alcotest.(check int) "rows orphaned in place" 10 (orphaned arena);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "parked record survives recovery" true
        (peek obj <> 0))
    parked;
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb 0);
  Alcotest.(check int) "successor adopts all" 10 (Cxl_kv.adopt_recovered hb);
  Alcotest.(check int) "no orphaned row left" 0 (orphaned arena);
  Alcotest.(check int) "re-parked at successor" 10 (Cxl_kv.deferred_count hb);
  Alcotest.(check bool) "original stamps kept" true
    (List.sort compare (registry_snapshot arena b.Ctx.cid)
    = List.sort compare parked);
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "stamps intact: still era-pinned" 10
    (Cxl_kv.deferred_count hb);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "still live under the pin" true (peek obj <> 0))
    parked;
  (* the pinned reader still sees every post-COW value *)
  for k = 0 to 9 do
    Alcotest.(check (option int)) "reader value" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Hazard.exit rctx;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "reclaimed once the era passed" 0
    (Cxl_kv.deferred_count hb);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close hb;
  ignore (Shm.scan_leaking arena);
  check_clean arena

(* No successor joins: the dead writer's rows stay orphaned, era-gated,
   until the leader's leak scan drains them once every announced era has
   passed. *)
let test_crash_no_successor_drain () =
  let arena, a, store, h = fresh () in
  for k = 0 to 5 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to 5 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  let parked = registry_snapshot arena a.Ctx.cid in
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  let rep = Recovery.recover svc ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "all orphaned" 6 rep.Recovery.parked_journaled;
  (* the era still pins: the leak scan must release nothing *)
  ignore (Shm.scan_leaking arena);
  Alcotest.(check int) "leak scan gated by the announced era" 6
    (orphaned arena);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "pinned record not freed" true (peek obj <> 0))
    parked;
  for k = 0 to 5 do
    Alcotest.(check (option int)) "reader value" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Hazard.exit rctx;
  ignore (Shm.scan_leaking arena);
  Alcotest.(check int) "drained once the era passed" 0 (orphaned arena);
  Alcotest.(check int) "no row left owned or orphaned" 0
    (List.length
       (List.filter
          (fun r ->
            Mem.unsafe_peek (Shm.mem arena)
              (Layout.limbo_owner (Shm.layout arena) r)
            <> 0)
          (List.init (Layout.limbo_rows (Shm.layout arena)) Fun.id)));
  Cxl_kv.close hr;
  Shm.leave rctx;
  ignore (Shm.scan_leaking arena);
  check_clean arena

(* Kill the protocol at every labeled limbo crash point — the writer
   mid-park, the recovery service mid-phases, a successor right after its
   row claim — then resume; every parked record must end adopted exactly
   once and never freed while the reader era pins. *)
let test_adoption_crash_windows () =
  let run_point point =
    let label suffix = Fault.point_name point ^ ": " ^ suffix in
    let arena = Shm.create ~cfg:kv_cfg () in
    let a = Shm.join arena () in
    let store, h = Cxl_kv.create a ~buckets:16 ~partitions:1 ~value_words:1 in
    Alcotest.(check bool) (label "claim") true (Cxl_kv.claim_partition h 0);
    let nkeys = 6 in
    for k = 0 to nkeys - 1 do
      Cxl_kv.put h ~key:k ~value:k
    done;
    let rctx = Shm.join arena () in
    let hr = Cxl_kv.open_store rctx store in
    Hazard.enter rctx;
    (* Park the displaced records; in the writer-side window the last COW
       dies right after its entry commits — parked, but neither unlinked
       nor on the volatile list. *)
    let cows_committed =
      if point = Fault.Park_after_append then begin
        for k = 0 to nkeys - 2 do
          Cxl_kv.put_cow h ~key:k ~value:(100 + k)
        done;
        a.Ctx.fault <- Fault.at point ~nth:1;
        (try
           Cxl_kv.put_cow h ~key:(nkeys - 1) ~value:(100 + nkeys - 1);
           Alcotest.fail (label "expected writer crash")
         with Fault.Crashed _ -> ());
        a.Ctx.fault <- Fault.none;
        nkeys - 1
      end
      else begin
        for k = 0 to nkeys - 1 do
          Cxl_kv.put_cow h ~key:k ~value:(100 + k)
        done;
        nkeys
      end
    in
    let parked = registry_snapshot arena a.Ctx.cid in
    Alcotest.(check int) (label "every park committed") nkeys
      (List.length parked);
    let peek = Mem.unsafe_peek (Shm.mem arena) in
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    (* Recovery-side window: a re-run resumes under the lock and must not
       orphan anything twice. *)
    if point = Fault.Recovery_mid_phases then begin
      svc.Ctx.fault <- Fault.at point ~nth:1;
      (try
         ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
         Alcotest.fail (label "expected recovery crash")
       with Fault.Crashed _ -> ());
      svc.Ctx.fault <- Fault.none
    end;
    ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
    Alcotest.(check int) (label "orphaned rows hold every parked record")
      nkeys (orphaned arena);
    List.iter
      (fun (obj, _) ->
        Alcotest.(check bool) (label "pinned record survives recovery") true
          (peek obj <> 0))
      parked;
    (* Successor-side window: the first adopter dies right after its claim
       CAS; recovering IT orphans the row again and a second successor
       takes over. *)
    let b1 = Shm.join arena () in
    let hb1 = Cxl_kv.open_store b1 store in
    let hb =
      if point = Fault.Adopt_after_claim then begin
        b1.Ctx.fault <- Fault.at point ~nth:1;
        (try
           ignore (Cxl_kv.adopt_recovered hb1);
           Alcotest.fail (label "expected successor crash")
         with Fault.Crashed _ -> ());
        b1.Ctx.fault <- Fault.none;
        Client.declare_failed svc ~cid:b1.Ctx.cid;
        ignore (Recovery.recover svc ~failed_cid:b1.Ctx.cid);
        Alcotest.(check int) (label "rows orphaned again after successor crash")
          nkeys (orphaned arena);
        let b2 = Shm.join arena () in
        Cxl_kv.open_store b2 store
      end
      else hb1
    in
    Alcotest.(check bool) (label "takeover") true
      (Cxl_kv.takeover_partition hb 0);
    Alcotest.(check int) (label "adopted all") nkeys
      (Cxl_kv.adopt_recovered hb);
    Alcotest.(check int) (label "no orphaned row left") 0 (orphaned arena);
    Cxl_kv.quiesce hb;
    Alcotest.(check int) (label "stamps intact: still era-pinned") nkeys
      (Cxl_kv.deferred_count hb);
    List.iter
      (fun (obj, _) ->
        Alcotest.(check bool) (label "still live under the pin") true
          (peek obj <> 0))
      parked;
    (* the pinned reader sees a consistent store: committed COWs show the
       new value, the crashed COW kept the old record in the chain *)
    for k = 0 to nkeys - 1 do
      let expect = if k < cows_committed then 100 + k else k in
      Alcotest.(check (option int)) (label "reader value") (Some expect)
        (Cxl_kv.get hr ~key:k)
    done;
    Hazard.exit rctx;
    Cxl_kv.quiesce hb;
    Alcotest.(check int) (label "reclaimed once the era passed") 0
      (Cxl_kv.deferred_count hb);
    Cxl_kv.close hr;
    Shm.leave rctx;
    Cxl_kv.close hb;
    ignore (Shm.scan_leaking arena);
    let v = Shm.validate arena in
    Alcotest.(check bool)
      (label ("clean: " ^ String.concat ";" v.Validate.errors))
      true (Validate.is_clean v)
  in
  List.iter run_point
    [
      Fault.Park_after_append; Fault.Recovery_mid_phases; Fault.Adopt_after_claim;
    ]

(* A writer parks more records than its [park_slots] share while a reader
   is pinned: it claims rows beyond its share instead of parking
   volatile-only. Killed and recovered, every record sits in an orphaned
   row, and a successor in another slot adopts them all. *)
let test_overflow_adopted () =
  let arena, a, store, h = fresh () in
  let n = (3 * kv_cfg.Config.park_slots) + 5 in
  for k = 0 to n - 1 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to n - 1 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "all parked" n (Cxl_kv.deferred_count h);
  let parked = registry_snapshot arena a.Ctx.cid in
  Alcotest.(check int) "every park persistent, past the share" n
    (List.length parked);
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  let rep = Recovery.recover svc ~failed_cid:a.Ctx.cid in
  Alcotest.(check int) "all left in orphaned rows" n rep.Recovery.parked_journaled;
  let b = Shm.join arena ~cid:(rctx.Ctx.cid + 1) () in
  Alcotest.(check bool) "another slot" true (b.Ctx.cid <> a.Ctx.cid);
  let hb = Cxl_kv.open_store b store in
  for p = 0 to 3 do
    Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb p)
  done;
  Alcotest.(check int) "successor adopts every record" n
    (Cxl_kv.adopt_recovered hb);
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "all still era-pinned" n (Cxl_kv.deferred_count hb);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "no era-pinned record freed" true (peek obj <> 0))
    parked;
  for k = 0 to n - 1 do
    Alcotest.(check (option int)) "reader value" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Hazard.exit rctx;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "reclaimed once the era passed" 0
    (Cxl_kv.deferred_count hb);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close hb;
  Shm.leave b;
  Alcotest.(check bool) "fsck clean" true (Fsck.clean (Shm.fsck arena))

(* The whole limbo pool is full: the next park raises [Limbo.Exhausted]
   before it allocates or unlinks anything, so the store is unchanged and
   the arena validates clean. *)
let test_pool_exhaustion () =
  let cfg = { kv_cfg with Config.park_slots = 1 } in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let store, h = Cxl_kv.create a ~buckets:16 ~partitions:1 ~value_words:1 in
  Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
  let pool = Layout.limbo_rows (Shm.layout arena) * Layout.limbo_row_entries in
  for k = 0 to pool do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to pool - 1 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  Alcotest.(check int) "pool full" pool (Cxl_kv.deferred_count h);
  let free_before = Shm.free_segments arena in
  let v0 = Shm.validate arena in
  Alcotest.check_raises "put_cow raises" Limbo.Exhausted (fun () ->
      Cxl_kv.put_cow h ~key:pool ~value:999);
  Alcotest.check_raises "delete raises" Limbo.Exhausted (fun () ->
      ignore (Cxl_kv.delete h ~key:pool));
  Alcotest.(check (option int)) "value unchanged" (Some pool)
    (Cxl_kv.get hr ~key:pool);
  Alcotest.(check int) "nothing parked" pool (Cxl_kv.deferred_count h);
  Alcotest.(check int) "nothing allocated" free_before (Shm.free_segments arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "same live objects" v0.Validate.live_objects
    v.Validate.live_objects;
  Hazard.exit rctx;
  Cxl_kv.put_cow h ~key:pool ~value:999;
  Alcotest.(check (option int)) "room again once the era passed" (Some 999)
    (Cxl_kv.get hr ~key:pool);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  check_clean arena

(* Partial-handoff regression: a transfer ring too small for the parked
   list moves only a dense prefix; the retained suffix must keep its
   ORIGINAL retire stamps and registry slots (the historical bug re-handled
   the suffix, so a quiesce right after a partial send freed era-pinned
   records). *)
let test_partial_handoff_era_pinned () =
  let arena, a, store, h = fresh () in
  for k = 0 to 9 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  Hazard.enter rctx;
  for k = 0 to 9 do
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  let before = registry_snapshot arena a.Ctx.cid in
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  let b = Shm.join arena () in
  let hb = Cxl_kv.open_store b store in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:4 in
  let sent = Cxl_kv.handoff_deferred h q in
  Alcotest.(check bool) "ring forced a partial send" true
    (sent > 0 && sent < 10);
  Alcotest.(check int) "suffix retained" (10 - sent) (Cxl_kv.deferred_count h);
  (* the retained entries keep their original stamps in the registry *)
  let after = registry_snapshot arena a.Ctx.cid in
  Alcotest.(check int) "registry matches the suffix" (10 - sent)
    (List.length after);
  (* oldest first: key k's old record was the k-th parked, so the records
     sent are keys [0, sent) and the ones retained the rest *)
  let keys_of l =
    List.sort compare (List.map (fun (obj, _) -> record_key arena obj) l)
  in
  let sent_recs =
    List.filter (fun (obj, _) -> not (List.mem_assoc obj after)) before
  in
  Alcotest.(check (list int)) "the oldest records were sent"
    (List.init sent Fun.id) (keys_of sent_recs);
  Alcotest.(check (list int)) "the youngest records were retained"
    (List.init (10 - sent) (fun i -> sent + i)) (keys_of after);
  let by_park_order =
    List.map snd
      (List.sort compare
         (List.map (fun (obj, stamp) -> (record_key arena obj, stamp)) before))
  in
  Alcotest.(check bool) "stamps never fall in park order" true
    (by_park_order = List.sort compare by_park_order);
  List.iter
    (fun (obj, stamp) ->
      match List.assoc_opt obj before with
      | Some orig ->
          Alcotest.(check int) "original retire stamp kept" orig stamp
      | None -> Alcotest.fail "retained entry not in pre-handoff registry")
    after;
  (* quiesce right after the partial send: the era still pins, so nothing
     may be freed on either side *)
  Cxl_kv.quiesce h;
  Alcotest.(check int) "quiesce freed no pinned suffix" (10 - sent)
    (Cxl_kv.deferred_count h);
  List.iter
    (fun (obj, _) ->
      Alcotest.(check bool) "record still live" true (peek obj <> 0))
    before;
  let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
  Alcotest.(check int) "prefix adopted" sent
    (Cxl_kv.adopt_deferred hb qb ~max:sent);
  Transfer.close qb;
  Transfer.close q;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "adopted prefix still pinned" sent
    (Cxl_kv.deferred_count hb);
  for k = 0 to 9 do
    Alcotest.(check (option int)) "reader value" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Hazard.exit rctx;
  Cxl_kv.quiesce h;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "suffix reclaimed" 0 (Cxl_kv.deferred_count h);
  Alcotest.(check int) "prefix reclaimed" 0 (Cxl_kv.deferred_count hb);
  Cxl_kv.close hr;
  Shm.leave rctx;
  Cxl_kv.close hb;
  Shm.leave b;
  Cxl_kv.close h;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

let test_load_gen_schedule () =
  let g1 = Load_gen.create ~rate_mops:2.0 ~seed:11 in
  let g2 = Load_gen.create ~rate_mops:2.0 ~seed:11 in
  let a1 = Array.init 1000 (fun _ -> Load_gen.next_arrival g1) in
  let a2 = Array.init 1000 (fun _ -> Load_gen.next_arrival g2) in
  Alcotest.(check bool) "deterministic" true (a1 = a2);
  Array.iteri
    (fun i t ->
      if i > 0 then
        Alcotest.(check bool) "strictly increasing" true (t > a1.(i - 1)))
    a1;
  let mean_gap = a1.(999) /. 1000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.1f ns ≈ 500" mean_gap)
    true
    (Float.abs (mean_gap -. 500.0) < 50.0)

(* A successor in another client slot than the dead writer adopts its
   parked records. Their RootRefs sit in the dead writer's pages, so the
   successor frees them as a non-owner, through the segment's cross-client
   free stack. A reader era pins the younger records, so the first reclaim
   frees a RootRef whose neighbour is still live: the stack link must not
   land on that neighbour's in_use word. A second reader pins every record
   until the successor has adopted them, so the writer's own parks release
   none of them first. A quiesce between the two batches keeps the older
   one, which advances the epoch, so the second reader announces past
   it. *)
let test_adopt_in_other_slot () =
  let arena, a, store, h = fresh () in
  let rctx = Shm.join arena () in
  let hr = Cxl_kv.open_store rctx store in
  let early = Shm.join arena () in
  for k = 0 to 11 do
    Cxl_kv.put h ~key:k ~value:k
  done;
  Hazard.enter early;
  for k = 0 to 11 do
    if k = 6 then begin
      Cxl_kv.quiesce h;
      Alcotest.(check int) "the older batch is pinned" 6
        (Cxl_kv.deferred_count h);
      Hazard.enter rctx
    end;
    Cxl_kv.put_cow h ~key:k ~value:(100 + k)
  done;
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  let b = Shm.join arena ~cid:(early.Ctx.cid + 1) () in
  Alcotest.(check bool) "another slot" true (b.Ctx.cid <> a.Ctx.cid);
  let hb = Cxl_kv.open_store b store in
  for p = 0 to 3 do
    Alcotest.(check bool) "takeover" true (Cxl_kv.takeover_partition hb p)
  done;
  Alcotest.(check int) "successor adopts all" 12 (Cxl_kv.adopt_recovered hb);
  Hazard.exit early;
  Shm.leave early;
  Cxl_kv.quiesce hb;
  Alcotest.(check (list int)) "the era pins exactly the younger records"
    [ 6; 7; 8; 9; 10; 11 ]
    (List.sort compare
       (List.map
          (fun (obj, _) -> record_key arena obj)
          (registry_snapshot arena b.Ctx.cid)));
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Hazard.exit rctx;
  Cxl_kv.quiesce hb;
  Alcotest.(check int) "all reclaimed" 0 (Cxl_kv.deferred_count hb);
  for k = 0 to 11 do
    Alcotest.(check (option int)) "value survives" (Some (100 + k))
      (Cxl_kv.get hr ~key:k)
  done;
  Cxl_kv.close hb;
  Shm.leave b;
  Cxl_kv.close hr;
  Shm.leave rctx;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* Kill the writer at every crash point a COW update and a delete cross —
   a replace at the head, a move from mid-chain and from the chain end,
   deletes mid-chain and at the end — then recover it, let a successor
   adopt its limbo rows and quiesce: the key reads its old or its new
   value and nothing else, the other keys are untouched, the arena is
   clean, the successor's index RootRef is the only one left (a move's
   copy RootRef is freed), and once the store closes no block is left and
   fsck finds nothing to repair. *)
let test_swap_crash_windows () =
  let crossed = Hashtbl.create 8 in
  let setup () =
    let arena = Shm.create ~cfg:kv_cfg () in
    let a = Shm.join arena () in
    let store, h = Cxl_kv.create a ~buckets:1 ~partitions:1 ~value_words:1 in
    Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
    (* one bucket, chain 2 -> 1 -> 0: key 1 has a successor, key 0 none *)
    for k = 0 to 2 do
      Cxl_kv.put h ~key:k ~value:(10 + k)
    done;
    (* the successor holds the index before the writer dies *)
    let b = Shm.join arena () in
    (arena, a, h, b, Cxl_kv.open_store b store)
  in
  let run_op (name, key, op, after) =
    let hits =
      let _, a, h, _, _ = setup () in
      let plan = Fault.nth_point ~n:max_int in
      a.Ctx.fault <- plan;
      op h key;
      Fault.hits plan
    in
    for n = 1 to hits do
      let arena, a, h, b, hb = setup () in
      let label what = Printf.sprintf "%s key %d, crash %d: %s" name key n what in
      a.Ctx.fault <- Fault.nth_point ~n;
      (match op h key with
      | () -> Alcotest.fail (label "expected a crash")
      | exception Fault.Crashed point -> Hashtbl.replace crossed point ());
      a.Ctx.fault <- Fault.none;
      let svc = Shm.service_ctx arena in
      Client.declare_failed svc ~cid:a.Ctx.cid;
      ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
      Alcotest.(check bool) (label "takeover") true
        (Cxl_kv.takeover_partition hb 0);
      ignore (Cxl_kv.adopt_recovered hb);
      Cxl_kv.quiesce hb;
      Alcotest.(check int) (label "limbo drained") 0 (Cxl_kv.deferred_count hb);
      for k = 0 to 2 do
        let got = Cxl_kv.get hb ~key:k in
        if k = key then begin
          if got <> Some (10 + k) && got <> after k then
            Alcotest.failf "%s" (label "neither the old nor the new value")
        end
        else Alcotest.(check (option int)) (label "other key") (Some (10 + k)) got
      done;
      let v = Shm.validate arena in
      Alcotest.(check bool)
        (label ("validate: " ^ String.concat "; " v.Validate.errors))
        true (Validate.is_clean v);
      Alcotest.(check int) (label "only the index RootRef") 1
        v.Validate.live_rootrefs;
      Cxl_kv.close hb;
      Shm.leave b;
      ignore (Shm.scan_leaking arena);
      Alcotest.(check int) (label "no block left") 0
        (Shm.validate arena).Validate.live_objects;
      let f = Shm.fsck arena in
      Alcotest.(check bool) (label "fsck clean") true (Fsck.clean f);
      Alcotest.(check int) (label "fsck fixed no count") 0 f.Fsck.counts_fixed;
      Alcotest.(check int) (label "fsck freed nothing") 0
        f.Fsck.unreachable_freed
    done
  in
  let cow h key = Cxl_kv.put_cow h ~key ~value:(100 + key) in
  let del h key = ignore (Cxl_kv.delete h ~key) in
  List.iter run_op
    [
      ("put_cow", 2, cow, fun k -> Some (100 + k));
      ("put_cow", 1, cow, fun k -> Some (100 + k));
      ("put_cow", 0, cow, fun k -> Some (100 + k));
      ("delete", 1, del, fun _ -> None);
      ("delete", 0, del, fun _ -> None);
    ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("crossed " ^ Fault.point_name p)
        true
        (Hashtbl.mem crossed (Fault.point_name p)))
    Fault.[ Park_after_append; Txn_after_redo; Swap_after_link; Swap_after_store ]

(* The records of every chain, head first, read straight from the index:
   bucket [b] is the index's embedded slot [b], a record's next-link is
   its embedded slot 0 and its key data word 1. *)
let chains arena (store : Cxl_kv.store) =
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  List.init store.Cxl_kv.buckets (fun b ->
      let rec walk r =
        if r = 0 then [] else r :: walk (peek (Obj_header.emb_slot r 0))
      in
      walk (peek (Obj_header.emb_slot store.Cxl_kv.index_obj b)))

let test_geometry_checked () =
  let arena = Shm.create ~cfg:kv_cfg () in
  let a = Shm.join arena () in
  List.iter
    (fun (buckets, partitions) ->
      match Cxl_kv.create a ~buckets ~partitions ~value_words:1 with
      | _ ->
          Alcotest.failf "%d buckets, %d partitions: expected Invalid_argument"
            buckets partitions
      | exception Invalid_argument _ -> ())
    [ (12, 3); (6, 4); (10, 4); (64, 6); (1, 2) ]

(* Every chain holds keys of one partition: with [partitions] a power of
   two dividing [buckets] the bucket fixes [key mod partitions], so a
   writer that moves a record only ever copies its own partition's. *)
let prop_chain_one_partition =
  QCheck.Test.make ~name:"every chain holds one partition" ~count:30
    QCheck.(
      triple (int_bound 3) (int_range 1 12)
        (list_of_size Gen.(1 -- 80) (int_bound 10_000)))
    (fun (log_p, m, keys) ->
      let partitions = 1 lsl log_p in
      let arena = Shm.create ~cfg:kv_cfg () in
      let a = Shm.join arena () in
      let store, h =
        Cxl_kv.create a ~buckets:(partitions * m) ~partitions ~value_words:1
      in
      for p = 0 to partitions - 1 do
        ignore (Cxl_kv.claim_partition h p)
      done;
      List.iter (fun key -> Cxl_kv.put h ~key ~value:key) keys;
      List.iter (fun key -> Cxl_kv.put_cow h ~key ~value:(key + 1)) keys;
      Cxl_kv.quiesce h;
      List.for_all
        (fun chain ->
          match List.map (record_key arena) chain with
          | [] -> true
          | k :: rest ->
              List.for_all
                (fun k' ->
                  Cxl_kv.partition_of_key store k'
                  = Cxl_kv.partition_of_key store k)
                rest)
        (chains arena store))

(* Transposition: a COW update of a key that is not first in its chain
   moves it one place toward the head; the chain keeps its keys, and once
   the displaced records are reclaimed every record holds count 1. *)
let test_chain_self_organizes () =
  let arena = Shm.create ~cfg:kv_cfg () in
  let a = Shm.join arena () in
  let store, h = Cxl_kv.create a ~buckets:1 ~partitions:1 ~value_words:2 in
  Alcotest.(check bool) "claim" true (Cxl_kv.claim_partition h 0);
  for k = 0 to 2 do
    Cxl_kv.put h ~key:k ~value:(10 + k)
  done;
  let order () = List.map (List.map (record_key arena)) (chains arena store) in
  Alcotest.(check (list (list int)))
    "preload prepends" [ [ 2; 1; 0 ] ] (order ());
  List.iter
    (fun (key, want) ->
      Cxl_kv.put_cow h ~key ~value:(100 + key);
      Alcotest.(check (list (list int)))
        (Printf.sprintf "after put_cow %d" key)
        [ want ] (order ());
      Alcotest.(check (list int)) "keys unchanged" [ 0; 1; 2 ] (Cxl_kv.keys h);
      Alcotest.(check (option int)) "new value" (Some (100 + key))
        (Cxl_kv.get h ~key);
      Alcotest.(check (option (array int))) "every value word moves"
        (Some [| 100 + key; 101 + key |])
        (Cxl_kv.get_all_words h ~key))
    [ (0, [ 2; 0; 1 ]); (0, [ 0; 2; 1 ]); (1, [ 0; 1; 2 ]); (0, [ 0; 1; 2 ]) ];
  Alcotest.(check (option (array int))) "a copied record keeps its words"
    (Some [| 12; 13 |]) (Cxl_kv.get_all_words h ~key:2);
  Cxl_kv.quiesce h;
  Alcotest.(check int) "limbo drained" 0 (Cxl_kv.deferred_count h);
  let peek = Mem.unsafe_peek (Shm.mem arena) in
  List.iter
    (List.iter (fun r ->
         Alcotest.(check int) "record count" 1
           (Obj_header.ref_cnt_of (peek (Obj_header.header_of_obj r)))))
    (chains arena store);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "index and three records" 4 v.Validate.live_objects;
  Alcotest.(check int) "no copy RootRef left" 1 v.Validate.live_rootrefs;
  Cxl_kv.close h

(* The KV adoption drill behind [cxlshm monitor --kill-writer]: its COW
   churn on four buckets moves keys, and the writer's reclamation pass
   dies inside a two-record teardown. *)
let test_kill_writer_drill () =
  for seed = 1 to 7 do
    let k = Cxlshm_kv.Kv_soak.writer_kill_adopt ~seed () in
    let label what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check bool) (label "writer crashed") true
      k.Cxlshm_kv.Kv_soak.ka_writer_crashed;
    Alcotest.(check int) (label "adopted = orphaned") k.ka_orphaned
      k.ka_adopted;
    Alcotest.(check int) (label "the younger batch is pinned") 6 k.ka_pinned;
    Alcotest.(check int) (label "pinned records freed") 0 k.ka_pinned_freed;
    Alcotest.(check bool) (label "fsck clean") true k.ka_clean
  done

let suite =
  [
    Alcotest.test_case "put/get/delete" `Quick test_put_get_delete;
    Alcotest.test_case "collision chains" `Quick test_collision_chains;
    Alcotest.test_case "put_cow relocates" `Quick test_put_cow_relocates;
    Alcotest.test_case "multi-word values" `Quick test_multi_value_words;
    Alcotest.test_case "single-writer enforced" `Quick test_single_writer_enforced;
    Alcotest.test_case "writer failover (§6.4.1)" `Quick test_writer_failover;
    Alcotest.test_case "concurrent readers" `Quick test_concurrent_readers;
    Generators.to_alcotest prop_kv_model;
    Alcotest.test_case "baselines agree" `Quick test_baselines_agree;
    Alcotest.test_case "zipf shape" `Quick test_zipf_shape;
    Alcotest.test_case "ycsb mix" `Quick test_ycsb_mix;
    Alcotest.test_case "ycsb presets" `Quick test_ycsb_presets;
    Alcotest.test_case "kv iter/keys" `Quick test_kv_iter;
    Alcotest.test_case "tatp mix" `Quick test_tatp_mix;
    Alcotest.test_case "smallbank runs" `Quick test_smallbank_runs;
    Alcotest.test_case "zipf vs exact CDF" `Quick test_zipf_reference;
    Alcotest.test_case "ycsb streaming load" `Quick test_ycsb_load_stream;
    Alcotest.test_case "ycsb D latest bias" `Quick test_ycsb_latest_bias;
    Alcotest.test_case "rmw semantics (YCSB-F)" `Quick test_rmw_semantics;
    Alcotest.test_case "quiesce is era-tied" `Quick test_quiesce_era_tied;
    Alcotest.test_case "deferred handoff/adopt" `Quick test_handoff_adopt;
    Alcotest.test_case "crash adoption: live successor" `Quick
      test_crash_adopt_successor;
    Alcotest.test_case "crash adoption: monitor-parked drain" `Quick
      test_crash_no_successor_drain;
    Alcotest.test_case "adoption crash windows resume" `Quick
      test_adoption_crash_windows;
    Alcotest.test_case "partial handoff keeps era pins" `Quick
      test_partial_handoff_era_pinned;
    Alcotest.test_case "open-loop arrival schedule" `Quick
      test_load_gen_schedule;
    Alcotest.test_case "adopt into another slot" `Quick
      test_adopt_in_other_slot;
    Alcotest.test_case "limbo overflow adopted in another slot" `Quick
      test_overflow_adopted;
    Alcotest.test_case "limbo pool exhaustion" `Quick test_pool_exhaustion;
    Alcotest.test_case "swap crash windows" `Quick test_swap_crash_windows;
    Alcotest.test_case "create checks one writer per chain" `Quick
      test_geometry_checked;
    Generators.to_alcotest prop_chain_one_partition;
    Alcotest.test_case "chains self-organize" `Quick test_chain_self_organizes;
    Alcotest.test_case "kill-writer drill, seeds 1-7" `Quick
      test_kill_writer_drill;
  ]
