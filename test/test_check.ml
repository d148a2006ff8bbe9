(* The model checker checking itself.

   Two layers: unit tests for the executor/schedule plumbing (round-trip
   parsing, deterministic replay, crash accounting), and the mutation
   self-check — re-introduce two real ordering bugs this repo has already
   fixed, behind test-only flags, and require the explorer to find each
   within a bounded, deterministic search. If these stay green the explorer
   is actually capable of catching the class of bug it exists for. *)

module Explore = Cxlshm_check.Explore
module Scenarios = Cxlshm_check.Scenarios
module Sched = Cxlshm_check.Sched
module Schedule = Cxlshm_check.Schedule

let with_flag flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

(* ---- schedule strings ---- *)

let test_schedule_roundtrip () =
  let cases =
    [
      "spsc:";
      "spsc:0";
      "transfer:0,1,0,c1";
      "refc:1,1,1,0,c0,1";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Schedule.to_string (Schedule.of_string s)))
    cases;
  List.iter
    (fun s ->
      match Schedule.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed schedule %S" s)
    [ ""; "nocolon"; ":0,1"; "spsc:x"; "spsc:c"; "spsc:-1"; "spsc:0,,1" ]

(* ---- executor basics ---- *)

let test_replay_deterministic () =
  let m = Scenarios.spsc ~capacity:1 ~values:2 () in
  (* the empty schedule = pure default policy; must terminate and pass *)
  let empty = { Schedule.model = "spsc"; decisions = [] } in
  let r1 = Explore.replay m ~max_steps:5_000 empty in
  let r2 = Explore.replay m ~max_steps:5_000 empty in
  (match r1.Explore.outcome with
  | Explore.Pass -> ()
  | Explore.Fail reason -> Alcotest.failf "default policy failed: %s" reason
  | Explore.Diverged -> Alcotest.fail "default policy diverged");
  Alcotest.(check int) "same step count" r1.Explore.steps r2.Explore.steps;
  Alcotest.(check bool) "same decisions" true
    (r1.Explore.decisions = r2.Explore.decisions)

let test_random_is_reproducible () =
  let run () =
    Explore.random ~seed:42 ~schedules:50 ~crash:true ~max_steps:10_000
      (Scenarios.transfer ())
  in
  let a = run () and b = run () in
  Alcotest.(check int) "schedules" a.Explore.schedules b.Explore.schedules;
  Alcotest.(check int) "passed" a.Explore.passed b.Explore.passed;
  Alcotest.(check int) "crashes" a.Explore.crashes_injected
    b.Explore.crashes_injected

let test_crash_is_recorded () =
  (* Killing a client mid-protocol must surface in [crashed] and still
     leave a recoverable arena (the oracle runs recovery itself). *)
  let r =
    Explore.random ~seed:7 ~schedules:100 ~crash:true ~max_steps:20_000
      (Scenarios.refc ~rounds:1 ())
  in
  (match r.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "refc with crashes failed: %s (replay: %s)"
        f.Explore.reason
        (Schedule.to_string f.Explore.schedule));
  Alcotest.(check bool) "some schedules actually crashed" true
    (r.Explore.crashes_injected > 0)

let test_exhaustive_covers_clean_models () =
  let m = Scenarios.spsc ~capacity:1 ~values:1 () in
  let r = Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:5_000 m in
  (match r.Explore.failure with
  | None -> ()
  | Some f -> Alcotest.failf "clean spsc failed: %s" f.Explore.reason);
  Alcotest.(check bool) "explored more than the default schedule" true
    (r.Explore.schedules > 10);
  Alcotest.(check bool) "crash schedules included" true
    (r.Explore.crashes_injected > 0)

(* The epoch-retire model must keep reaching every window of paced
   retirement: a batch sealed in one round is retired one entry per drop
   in the next, so a crash lands at each [Retire_*] point between the
   model's transactions. Every reached branch point gets a crash schedule,
   so recording the crash points the runs yield at is enough. *)
let test_epoch_retire_reaches_retire_windows () =
  let m = Scenarios.epoch_retire () in
  let seen = Hashtbl.create 8 in
  let branch p =
    (match p with
    | Sched.Crash_point pt -> Hashtbl.replace seen pt ()
    | Sched.Label _ | Sched.Access _ -> ());
    m.Explore.branch p
  in
  let r =
    Explore.exhaustive ~preemptions:0 ~crash:true ~max_steps:20_000
      { m with Explore.branch }
  in
  (match r.Explore.failure with
  | None -> ()
  | Some f -> Alcotest.failf "epoch-retire failed: %s" f.Explore.reason);
  List.iter
    (fun pt ->
      Alcotest.(check bool)
        (Cxlshm.Fault.point_name pt ^ " reached")
        true (Hashtbl.mem seen pt))
    Cxlshm.Fault.[ Retire_after_seal; Retire_mid_batch; Retire_after_batch ]

(* ---- mutation self-check ---- *)

(* PR-3 regression, reintroduced: try_pop publishing the new head with no
   fence after the slot read. The explorer models the reorder the missing
   fence permits and must catch it with plain random search, fast. *)
let test_finds_spsc_pop_mutation () =
  with_flag Cxlshm_spsc.Spsc_queue.mutation_unfenced_pop @@ fun () ->
  let m = Scenarios.spsc () in
  let r = Explore.random ~seed:1 ~schedules:50 ~crash:true ~max_steps:20_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "unfenced-pop mutation survived 50 random schedules"
  | Some f ->
      (* the replay string must reproduce the identical failure *)
      let rr = Explore.replay m ~max_steps:20_000 f.Explore.schedule in
      (match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* Pre-PR-3 Transfer bug, reintroduced: receive advancing the durable head
   before the slot is consumed. Bounded exhaustive search must find it —
   this is the acceptance bar for "verifies the transfer handoff". *)
let test_finds_transfer_head_mutation () =
  with_flag Cxlshm.Transfer.mutation_unfenced_advance @@ fun () ->
  let m = Scenarios.transfer ~values:2 () in
  let r = Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:40_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "unfenced-advance mutation survived exhaustive search"
  | Some f ->
      let rr = Explore.replay m ~max_steps:40_000 f.Explore.schedule in
      (match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* The historical era-blind quiesce, reintroduced: reclamation ignoring
   announced reader eras frees a record a paused traversal still stands on;
   the decoy allocation then plants a poisoned value where the reader
   resumes. Bounded exhaustive search must observe the use-after-free,
   both through an explicit quiesce and through the bounded release a
   row-filling park runs. *)
let test_finds_kv_quiesce_mutation () =
  with_flag Cxlshm.Limbo.mutation_unconditional_quiesce @@ fun () ->
  List.iter
    (fun m ->
      let r =
        Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:40_000 m
      in
      match r.Explore.failure with
      | None ->
          Alcotest.failf "era-blind quiesce mutation survived %s"
            m.Explore.name
      | Some f -> (
          let rr = Explore.replay m ~max_steps:40_000 f.Explore.schedule in
          match rr.Explore.outcome with
          | Explore.Fail reason ->
              Alcotest.(check string) "replay reproduces the same reason"
                f.Explore.reason reason
          | Explore.Pass | Explore.Diverged ->
              Alcotest.fail "replay did not reproduce the failure"))
    [ Scenarios.kv_serve (); Scenarios.kv_serve ~park_release:true () ]

let string_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The era-blind crash reap, reintroduced: recovery of a dead writer frees
   its parked records through the live eager path instead of orphaning
   its limbo rows for adoption. The crash-then-recover model interleaves monitor
   recovery with a reader paused mid-bucket-walk; bounded exhaustive search
   must observe the 0xdead decoy through the paused reader, and the printed
   schedule must replay to the bit-identical failure. *)
let test_finds_crash_reap_mutation () =
  with_flag Cxlshm.Limbo.mutation_crash_reap @@ fun () ->
  let m = Scenarios.kv_serve_recover () in
  let r = Explore.exhaustive ~preemptions:1 ~crash:true ~max_steps:60_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "era-blind crash reap survived exhaustive search"
  | Some f ->
      Alcotest.(check bool)
        ("failure is the use-after-free: " ^ f.Explore.reason)
        true
        (string_contains f.Explore.reason "0xdead");
      let rr = Explore.replay m ~max_steps:60_000 f.Explore.schedule in
      (match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* The race-to-zero the last-holder rule forbids: two releases race a
   shared parent from count 2, and the loser's retry on 1 zeroes it
   without tearing down its embedded child. The single-preemption
   exhaustive search must catch the orphaned child. *)
let test_finds_refc_zero_shared_mutation () =
  with_flag Cxlshm.Refc.mutation_zero_shared @@ fun () ->
  let m = Scenarios.refc ~rounds:1 () in
  let r = Explore.exhaustive ~preemptions:1 ~crash:true ~max_steps:40_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "zero-shared mutation survived exhaustive search"
  | Some f -> (
      let rr = Explore.replay m ~max_steps:40_000 f.Explore.schedule in
      match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* Swap redo ignored by recovery: a writer killed between the two stores
   of put_cow's count-neutral swap leaves the predecessor slot on the old
   record while the parked rootref names it as well; the exhaustive
   crash-then-recover search must catch the miscount. *)
let test_finds_swap_skip_redo_mutation () =
  with_flag Cxlshm.Recovery.mutation_skip_swap_redo @@ fun () ->
  let m = Scenarios.kv_serve_recover () in
  let r = Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:60_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "swap skip-redo mutation survived exhaustive search"
  | Some f -> (
      let rr = Explore.replay m ~max_steps:60_000 f.Explore.schedule in
      match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* The same mutation on the broadcast model: a log writer killed between
   the two stores of publish's swap leaves the slot on the overwritten
   entry while the parked rootref names it as well, so the drain releases
   a count the ring still uses. Shows the model exercises that swap. *)
let test_finds_bcast_swap_skip_redo_mutation () =
  with_flag Cxlshm.Recovery.mutation_skip_swap_redo @@ fun () ->
  let m = Scenarios.bcast_recover () in
  let r = Explore.exhaustive ~preemptions:1 ~crash:true ~max_steps:60_000 m in
  match r.Explore.failure with
  | None ->
      Alcotest.fail "swap skip-redo mutation survived the broadcast search"
  | Some f -> (
      let rr = Explore.replay m ~max_steps:60_000 f.Explore.schedule in
      match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* Volatile-only parking, reintroduced (the broadcast log's historical
   parked list): a log-writer crash hands the overwritten entry's park
   reference to the rootref scan, the entry's segment empties and is
   reused, and the subscriber paused before its attach reads the decoy. *)
let test_finds_volatile_park_mutation () =
  with_flag Cxlshm.Limbo.mutation_volatile_park @@ fun () ->
  let m = Scenarios.bcast_recover () in
  let r = Explore.exhaustive ~preemptions:1 ~crash:true ~max_steps:60_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "volatile-park mutation survived exhaustive search"
  | Some f ->
      Alcotest.(check bool)
        ("failure is the use-after-free: " ^ f.Explore.reason)
        true
        (string_contains f.Explore.reason "0xdead");
      let rr = Explore.replay m ~max_steps:60_000 f.Explore.schedule in
      (match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* The pointer-isolation walk, disabled: with validation skipped the
   smuggled out-of-channel pointer reaches the handler, and the model's
   oracle must say exactly that — on the very first schedule, since no
   preemption is needed to smuggle. *)
let test_finds_rpc_skip_validate_mutation () =
  with_flag Cxlshm_rpc.Cxl_rpc.mutation_skip_validate @@ fun () ->
  let m = Scenarios.rpc_isolate () in
  let r = Explore.exhaustive ~preemptions:0 ~crash:true ~max_steps:60_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "skip-validate mutation survived exhaustive search"
  | Some f ->
      Alcotest.(check bool)
        ("failure is the isolation breach: " ^ f.Explore.reason)
        true
        (string_contains f.Explore.reason "out-of-channel pointer");
      let rr = Explore.replay m ~max_steps:60_000 f.Explore.schedule in
      (match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* The completion fence, dropped: status published before the in-place
   output write lets the client read a stale output. One preemption (pause
   the handler between publish and write) exposes it. *)
let test_finds_rpc_unfenced_status_mutation () =
  with_flag Cxlshm_rpc.Cxl_rpc.mutation_unfenced_status @@ fun () ->
  let m = Scenarios.rpc_isolate () in
  let r = Explore.exhaustive ~preemptions:1 ~crash:true ~max_steps:60_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "unfenced-status mutation survived exhaustive search"
  | Some f ->
      Alcotest.(check bool)
        ("failure is the stale read: " ^ f.Explore.reason)
        true
        (string_contains f.Explore.reason "completion published");
      let rr = Explore.replay m ~max_steps:60_000 f.Explore.schedule in
      (match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* The loan's slot return, moved ahead of the call: the server advances
   the head before serving, so the client's pipelined second call reclaims
   the first call's message while its completion word is still pending,
   and the first call's finish reports the lost completion. No preemption
   is needed: the client lends as soon as the ring has room. *)
let test_finds_rpc_early_advance_mutation () =
  with_flag Cxlshm_rpc.Cxl_rpc.mutation_early_advance @@ fun () ->
  let m = Scenarios.rpc_isolate () in
  let r = Explore.exhaustive ~preemptions:0 ~crash:true ~max_steps:60_000 m in
  match r.Explore.failure with
  | None -> Alcotest.fail "early-advance mutation survived exhaustive search"
  | Some f ->
      Alcotest.(check bool)
        ("failure is the reclaimed completion: " ^ f.Explore.reason)
        true
        (string_contains f.Explore.reason "reclaimed before its completion");
      let rr = Explore.replay m ~max_steps:60_000 f.Explore.schedule in
      (match rr.Explore.outcome with
      | Explore.Fail reason ->
          Alcotest.(check string) "replay reproduces the same reason"
            f.Explore.reason reason
      | Explore.Pass | Explore.Diverged ->
          Alcotest.fail "replay did not reproduce the failure")

(* The crash-then-recover model must also hold up under the seeded-random
   sweep (deeper interleavings than the bounded-exhaustive frontier). *)
let test_kv_recover_random_sweep () =
  let r =
    Explore.random ~seed:11 ~schedules:200 ~crash:true ~max_steps:60_000
      (Scenarios.kv_serve_recover ())
  in
  (match r.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "kv-serve-recover failed under random sweep: %s (replay: %s)"
        f.Explore.reason
        (Schedule.to_string f.Explore.schedule));
  Alcotest.(check bool) "crash schedules included" true
    (r.Explore.crashes_injected > 0)

(* With the flags off, the very same searches must come back clean —
   otherwise the self-check proves nothing. *)
let test_unmutated_models_pass () =
  let r1 =
    Explore.random ~seed:1 ~schedules:50 ~crash:true ~max_steps:20_000
      (Scenarios.spsc ())
  in
  (match r1.Explore.failure with
  | None -> ()
  | Some f -> Alcotest.failf "unmutated spsc failed: %s" f.Explore.reason);
  let r2 =
    Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:40_000
      (Scenarios.transfer ~values:2 ())
  in
  (match r2.Explore.failure with
  | None -> ()
  | Some f -> Alcotest.failf "unmutated transfer failed: %s" f.Explore.reason);
  let r3 =
    Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:40_000
      (Scenarios.kv_serve ())
  in
  (match r3.Explore.failure with
  | None -> ()
  | Some f -> Alcotest.failf "unmutated kv-serve failed: %s" f.Explore.reason);
  let r7 =
    Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:40_000
      (Scenarios.kv_serve ~park_release:true ())
  in
  (match r7.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "unmutated kv-serve-park failed: %s" f.Explore.reason);
  (* the exact search that catches the era-blind crash reap *)
  let r4 =
    Explore.exhaustive ~preemptions:1 ~crash:true ~max_steps:60_000
      (Scenarios.kv_serve_recover ())
  in
  (match r4.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "unmutated kv-serve-recover failed: %s" f.Explore.reason);
  (* the broadcast-log crash model under a seeded sweep; the exhaustive
     p<=2 runs in CI *)
  let r6 =
    Explore.random ~seed:6 ~schedules:200 ~crash:true ~max_steps:60_000
      (Scenarios.bcast_recover ())
  in
  (match r6.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "unmutated bcast-recover failed: %s" f.Explore.reason);
  (* the isolation model under a seeded sweep; the exhaustive p<=2 runs in CI *)
  let r5 =
    Explore.random ~seed:5 ~schedules:50 ~crash:true ~max_steps:60_000
      (Scenarios.rpc_isolate ())
  in
  match r5.Explore.failure with
  | None -> ()
  | Some f -> Alcotest.failf "unmutated rpc-isolate failed: %s" f.Explore.reason

let suite =
  [
    Alcotest.test_case "schedule string roundtrip" `Quick
      test_schedule_roundtrip;
    Alcotest.test_case "replay is deterministic" `Quick
      test_replay_deterministic;
    Alcotest.test_case "random mode is reproducible" `Quick
      test_random_is_reproducible;
    Alcotest.test_case "crash injection recovers" `Quick test_crash_is_recorded;
    Alcotest.test_case "exhaustive covers clean models" `Quick
      test_exhaustive_covers_clean_models;
    Alcotest.test_case "epoch-retire reaches every retire window" `Quick
      test_epoch_retire_reaches_retire_windows;
    Alcotest.test_case "finds the unfenced-pop mutation" `Quick
      test_finds_spsc_pop_mutation;
    Alcotest.test_case "finds the unfenced-advance mutation" `Quick
      test_finds_transfer_head_mutation;
    Alcotest.test_case "finds the refc zero-shared mutation" `Quick
      test_finds_refc_zero_shared_mutation;
    Alcotest.test_case "finds the era-blind quiesce mutation" `Quick
      test_finds_kv_quiesce_mutation;
    Alcotest.test_case "finds the era-blind crash reap" `Quick
      test_finds_crash_reap_mutation;
    Alcotest.test_case "finds the swap skip-redo mutation" `Quick
      test_finds_swap_skip_redo_mutation;
    Alcotest.test_case "finds the swap skip-redo mutation on bcast" `Quick
      test_finds_bcast_swap_skip_redo_mutation;
    Alcotest.test_case "finds the volatile-park mutation" `Quick
      test_finds_volatile_park_mutation;
    Alcotest.test_case "finds the rpc skip-validate mutation" `Quick
      test_finds_rpc_skip_validate_mutation;
    Alcotest.test_case "finds the rpc unfenced-status mutation" `Quick
      test_finds_rpc_unfenced_status_mutation;
    Alcotest.test_case "finds the rpc early-advance mutation" `Quick
      test_finds_rpc_early_advance_mutation;
    Alcotest.test_case "crash-then-recover random sweep" `Quick
      test_kv_recover_random_sweep;
    Alcotest.test_case "unmutated models pass the same searches" `Quick
      test_unmutated_models_pass;
  ]
