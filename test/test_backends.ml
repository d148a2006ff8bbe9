(* Full-stack suites on the striped multi-device backend, plus cross-backend
   equivalence: the backend seam must be invisible to allocation, transfer,
   recovery and fault injection. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Rpc = Cxlshm_rpc
module Latency = Cxlshm_shmem.Latency

let striped_backend ?(tiers = [||]) devices =
  (* stripe_words = 0: Shm.create resolves to segment-granular stripes *)
  Mem.Striped { devices; stripe_words = 0; tiers }

let striped_cfg = { Config.small with Config.backend = striped_backend 4 }

let test_alloc_free_validate () =
  let arena = Shm.create ~cfg:striped_cfg () in
  Alcotest.(check int) "four devices" 4 (Shm.num_devices arena);
  let a = Shm.join arena () in
  let held =
    List.init 40 (fun i ->
        let r = Shm.cxl_malloc a ~size_bytes:(8 + (i mod 5 * 24)) () in
        Cxl_ref.write_word r 0 (i * 7);
        r)
  in
  List.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "payload %d" i) (i * 7)
        (Cxl_ref.read_word r 0))
    held;
  (* huge path: too large for any size class of the small geometry *)
  let huge = Shm.cxl_malloc_words a ~data_words:200 () in
  Cxl_ref.write_word huge 150 99;
  Alcotest.(check int) "huge payload" 99 (Cxl_ref.read_word huge 150);
  Cxl_ref.drop huge;
  List.iter Cxl_ref.drop held;
  Shm.leave a;
  let v = Shm.validate arena in
  Alcotest.(check bool) "striped arena clean" true (Validate.is_clean v)

let test_home_device_preference () =
  let arena = Shm.create ~cfg:striped_cfg () in
  let a = Shm.join arena () in
  Alcotest.(check int) "home device" (a.Ctx.cid mod 4) a.Ctx.home_dev;
  let r = Shm.cxl_malloc a ~size_bytes:32 () in
  let owned = Segment.owned_by a ~cid:a.Ctx.cid in
  Alcotest.(check bool) "claimed something" true (owned <> []);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "segment %d on home device" s)
        a.Ctx.home_dev
        (Alloc.segment_device a s))
    owned;
  Cxl_ref.drop r;
  Shm.leave a

let test_transfer_crash_recover () =
  let arena = Shm.create ~cfg:striped_cfg () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:8 in
  let qb = ref None in
  let received = ref 0 in
  for i = 1 to 30 do
    let r = Shm.cxl_malloc a ~size_bytes:32 () in
    Cxl_ref.write_word r 0 i;
    (match Transfer.send q r with
    | Transfer.Sent -> ()
    | Transfer.Full | Transfer.Closed -> Alcotest.fail "send failed");
    Cxl_ref.drop r;
    if !qb = None then qb := Transfer.open_from b ~sender:a.Ctx.cid;
    match !qb with
    | Some queue -> (
        match Transfer.receive queue with
        | Transfer.Received rb ->
            incr received;
            Cxl_ref.drop rb
        | Transfer.Empty | Transfer.Drained -> ())
    | None -> ()
  done;
  Alcotest.(check bool) "received some" true (!received > 0);
  (* client A dies with the queue open; recovery must repair the pool *)
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
  (match !qb with Some queue -> Transfer.close queue | None -> ());
  Shm.leave b;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) "clean after crash+recover" true (Validate.is_clean v)

(* Points the drill's workload (malloc, set_emb, change_emb, clear_emb,
   drop, a huge object spanning two segments, and one RPC round trip each
   way with a peer) never passes, in either of its two configurations:
   eager release, and epoch retirement with a batch of 2, whose drops
   seal, retire and finish journal batches. The list is exact — the drill
   checks that none of them fires and that every other point fires in at
   least one configuration — so it can only shrink, as points move to
   workloads that reach them. Why each stays:
   - recovery-mid-phases, lead-after-acquire, lead-after-depose: the
     drilled client never runs recovery or holds the monitor lease;
   - park-after-append: it never parks a version in limbo (a KV writer);
   - adopt-after-claim: it never adopts a dead client's segment. *)
let not_reached_by_drill =
  Fault.
    [
      Recovery_mid_phases;
      Lead_after_acquire;
      Lead_after_depose;
      Park_after_append;
      Adopt_after_claim;
    ]

let test_fault_drill_all_points () =
  let seg_words = (Layout.make striped_cfg).Layout.segment_words in
  let drill cfg point =
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    (* The RPC peer: never armed. Its side of both channels is recorded as
       the workload opens it, so it can close that side after [a]'s
       recovery wherever [a] died. *)
    let b = Shm.join arena () in
    let b_server = ref None and b_client = ref None in
    let b_arg = ref None and b_pending = ref None in
    a.Ctx.fault <- Fault.at point ~nth:1;
    let handler ~func ~args:_ ~output = Rpc.Message.write_word output 0 func in
    let serve srv =
      if not (Rpc.Cxl_rpc.serve_one srv ~handler) then
        Alcotest.fail "the drill's call was not in the ring"
    in
    let crashed =
      try
        let p = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
        let c = Shm.cxl_malloc a ~size_bytes:16 () in
        let d = Shm.cxl_malloc a ~size_bytes:16 () in
        Cxl_ref.set_emb p 0 c;
        Cxl_ref.change_emb p 0 d;
        Cxl_ref.clear_emb p 0;
        Cxl_ref.drop c;
        Cxl_ref.drop d;
        Cxl_ref.drop p;
        let owned () = List.length (Segment.owned_by a ~cid:a.Ctx.cid) in
        let before = owned () in
        let huge = Shm.cxl_malloc_words a ~data_words:(3 * seg_words / 2) () in
        if owned () - before < 2 then
          Alcotest.fail "the drill's huge object spans one segment";
        Cxl_ref.drop huge;
        (* a calls b: a lends the message, b serves it in place *)
        let sb = Rpc.Cxl_rpc.accept b ~client_cid:a.Ctx.cid ~capacity:1 in
        b_server := Some sb;
        let ca = Rpc.Cxl_rpc.connect a ~server_cid:b.Ctx.cid ~capacity:1 in
        let arg = Rpc.Cxl_rpc.alloc_arg ca ~size_bytes:8 () in
        let p = Rpc.Cxl_rpc.call_async ca ~func:1 ~args:[ arg ] ~output_bytes:8 in
        serve sb;
        Cxl_ref.drop (Rpc.Cxl_rpc.finish p);
        Cxl_ref.drop arg;
        Rpc.Cxl_rpc.close_client ca;
        (* b calls a: a serves, raises the completion and advances *)
        let sa = Rpc.Cxl_rpc.accept a ~client_cid:b.Ctx.cid ~capacity:1 in
        let cb = Rpc.Cxl_rpc.connect b ~server_cid:a.Ctx.cid ~capacity:1 in
        b_client := Some cb;
        let barg = Rpc.Cxl_rpc.alloc_arg cb ~size_bytes:8 () in
        b_arg := Some barg;
        b_pending :=
          Some (Rpc.Cxl_rpc.call_async cb ~func:2 ~args:[ barg ] ~output_bytes:8);
        serve sa;
        Option.iter
          (fun bp -> Cxl_ref.drop (Rpc.Cxl_rpc.finish bp))
          !b_pending;
        b_pending := None;
        Rpc.Cxl_rpc.close_server sa;
        false
      with Fault.Crashed _ -> true
    in
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
    Option.iter Rpc.Cxl_rpc.discard !b_pending;
    Option.iter Cxl_ref.drop !b_arg;
    Option.iter Rpc.Cxl_rpc.close_client !b_client;
    Option.iter Rpc.Cxl_rpc.close_server !b_server;
    Shm.leave b;
    ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
    let v = Shm.validate arena in
    Alcotest.(check bool)
      (Printf.sprintf "clean after crash at %s (epoch batch %d)"
         (Fault.point_name point) cfg.Config.epoch_batch)
      true (Validate.is_clean v);
    crashed
  in
  let batched_cfg = { striped_cfg with Config.epoch_batch = 2 } in
  List.iter
    (fun point ->
      let eager = drill striped_cfg point in
      let batched = drill batched_cfg point in
      Alcotest.(check bool)
        (Printf.sprintf "drill crash at %s fired" (Fault.point_name point))
        (not (List.mem point not_reached_by_drill))
        (eager || batched))
    Fault.all_points

(* The same scripted single-client workload must leave bit-identical pool
   images on every single-device backend: Flat, one-device Striped and
   Counting_fast are interchangeable transports. *)
let scripted_image cfg =
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let rng = Random.State.make [| 77 |] in
  let held = ref [] in
  for _ = 1 to 300 do
    match Random.State.int rng 3 with
    | 0 ->
        held :=
          Shm.cxl_malloc a ~size_bytes:(8 + Random.State.int rng 64) ()
          :: !held
    | 1 -> (
        match !held with
        | r :: rest ->
            held := rest;
            Cxl_ref.drop r
        | [] -> ())
    | _ -> (
        match !held with
        | r :: _ -> Cxl_ref.write_word r 0 (Random.State.int rng 1000)
        | [] -> ())
  done;
  List.iter Cxl_ref.drop !held;
  Mem.snapshot (Shm.mem arena)

let test_single_device_backends_agree () =
  let flat = scripted_image Config.small in
  let striped1 =
    scripted_image { Config.small with Config.backend = striped_backend 1 }
  in
  let counting =
    scripted_image { Config.small with Config.backend = Mem.Counting_fast }
  in
  Alcotest.(check bool) "flat = striped-1" true (flat = striped1);
  Alcotest.(check bool) "flat = counting-fast" true (flat = counting)

let test_save_load_striped () =
  let path = Filename.temp_file "cxlshm_striped" ".pool" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let arena = Shm.create ~cfg:striped_cfg () in
      let a = Shm.join arena () in
      let r = Shm.cxl_malloc a ~size_bytes:32 () in
      Cxl_ref.write_word r 0 4242;
      Shm.save arena path;
      (* the image carries the backend spec: reload onto a striped pool *)
      let arena2 = Shm.load path in
      Alcotest.(check int) "backend survives the image" 4
        (Shm.num_devices arena2);
      let v = Shm.validate arena2 in
      Alcotest.(check bool) "loaded pool clean" true (Validate.is_clean v);
      Cxl_ref.drop r;
      Shm.leave a)

let suite =
  [
    Alcotest.test_case "striped alloc/free/validate" `Quick
      test_alloc_free_validate;
    Alcotest.test_case "home-device claim preference" `Quick
      test_home_device_preference;
    Alcotest.test_case "striped transfer+crash+recover" `Quick
      test_transfer_crash_recover;
    Alcotest.test_case "striped fault drill (all points)" `Quick
      test_fault_drill_all_points;
    Alcotest.test_case "single-device backends agree" `Quick
      test_single_device_backends_agree;
    Alcotest.test_case "striped save/load" `Quick test_save_load_striped;
  ]
