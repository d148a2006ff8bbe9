(* The benchmark's own invariants, at sizes that run in about a second:
   runs repeat bit for bit, tracing does not move the modeled clock, the
   replay at the nominal rate reproduces the live run, and every op's
   latency is exactly its waits plus its service. *)

open Cxlbench
module Q = Qmodel

let kv =
  Workloads.Kv
    {
      Kv_work.keys = 2_000;
      readers = 2;
      ops = 12_000;
      rate = 2.0;
      mix = { Cxlshm_kv.Ycsb.read = 0.80; update = 0.15; insert = 0.03; rmw = 0.02 };
      churn =
        [ (2_000, Kv_work.Crash_writer); (5_000, Kv_work.Crash_reader);
          (8_000, Kv_work.Leave_writer); (9_000, Kv_work.Join_reader) ];
    }

let rpc = Workloads.Rpc { Rpc_work.calls = 3_000; rate = 0.3 }

let run ?(traced = false) kind =
  fst (Workloads.execute kind ~name:"test" ~seed:3 ~setups:1 ~traced)

let modeled r =
  let e2e = Run.end_to_end r ~setup_s:0.0 in
  (Run.modeled_fingerprint r, List.map (fun (m : Run.metric) -> (m.Run.name, m.Run.value)) e2e)

let check_correct r =
  List.iter (fun (k, v) -> Alcotest.(check int) k 0 v) r.Run.checks;
  Alcotest.(check int) "failed ops" 0 r.Run.failed

let repeatable kind () =
  let a = run kind and b = run kind in
  check_correct a;
  Alcotest.(check (pair string (list (pair string (float 0.0)))))
    "identical modeled metrics" (modeled a) (modeled b)

let trace_neutral kind () =
  let u = run kind and t = run ~traced:true kind in
  check_correct t;
  Alcotest.(check (pair string (list (pair string (float 0.0)))))
    "traced = untraced" (modeled u) (modeled t);
  Alcotest.(check bool) "per-layer metrics" true (Run.per_layer t ~untraced_wall_s:u.Run.stream_wall_s <> [])

let replay_exact kind () =
  let r = run kind in
  Run.check_replay r;
  let q = r.Run.q in
  let arr, fin = Q.replay q ~rate:q.Q.rate in
  for op = 0 to Q.ops q - 1 do
    Alcotest.(check int) "replayed latency" (Q.live_latency q op) (fin.(op) - arr.(op))
  done

(* Per op, latency = waits + service; summed over the items of every
   request, the per-role parts add up to the end-to-end total. *)
let parts_add_up kind () =
  let r = run kind in
  let q = r.Run.q in
  let total = ref 0 and parts = ref 0 in
  for op = 0 to Q.ops q - 1 do
    let lat = Q.live_latency q op in
    Alcotest.(check int) "latency = wait + service" lat
      (Q.Vec.get q.Q.op_wait op + Q.Vec.get q.Q.op_svc op);
    total := !total + lat
  done;
  for id = 0 to Q.Vec.length q.Q.i_fin - 1 do
    if Q.Vec.get q.Q.i_op id >= 0 then
      parts := !parts + (Q.item_start q id - Q.item_ready q id) + Q.Vec.get q.Q.i_svc id
  done;
  Alcotest.(check int) "role parts sum to the total" !total !parts

let cases name kind =
  ( name,
    [
      Alcotest.test_case "repeatable" `Quick (repeatable kind);
      Alcotest.test_case "trace neutral" `Quick (trace_neutral kind);
      Alcotest.test_case "replay exact" `Quick (replay_exact kind);
      Alcotest.test_case "parts add up" `Quick (parts_add_up kind);
    ] )

let () = Alcotest.run "benchmark" [ cases "kv" kv; cases "rpc" rpc ]
