(* The model checker checking itself.

   Two layers: unit tests for the executor/schedule plumbing (round-trip
   parsing, deterministic replay, crash accounting), and the mutation
   self-check — every row of Mutation's table re-introduces a real
   ordering bug this repo has already fixed, behind a test-only flag, and
   the explorer must find each one in each of the row's bounded,
   deterministic searches. If these stay green the explorer is actually
   capable of catching the class of bug it exists for. *)

module Explore = Cxlshm_check.Explore
module Mutation = Cxlshm_check.Mutation
module Scenarios = Cxlshm_check.Scenarios
module Sched = Cxlshm_check.Sched
module Schedule = Cxlshm_check.Schedule

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

let string_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A search its schedule cap cuts short must say so: the report is
   truncated and its summary never reads a plain PASS. The same model run
   to completion is not truncated. *)
let test_exhaustive_reports_truncation () =
  let m = Scenarios.spsc ~capacity:1 ~values:1 () in
  let r =
    Explore.exhaustive ~max_schedules:10 ~preemptions:2 ~crash:true
      ~max_steps:5_000 m
  in
  Alcotest.(check int) "stopped at the cap" 10 r.Explore.schedules;
  Alcotest.(check bool) "truncated" true r.Explore.truncated;
  let line = Format.asprintf "%a" Explore.pp_report r in
  Alcotest.(check bool) ("no plain PASS: " ^ line) false
    (string_contains line "result=PASS");
  Alcotest.(check bool) ("says truncated: " ^ line) true
    (string_contains line "truncated=true");
  let full = Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:5_000 m in
  Alcotest.(check bool) "more schedules than the cap" true
    (full.Explore.schedules > 10);
  Alcotest.(check bool) "a complete search is not truncated" false
    full.Explore.truncated

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

(* One case per row of the mutation table, named after the bug it finds. *)
let mutation_cases =
  List.map
    (fun row ->
      Alcotest.test_case ("finds the " ^ row.Mutation.bug) `Quick (fun () ->
          Mutation.must_fail row))
    Mutation.rows

(* The models no row's search runs: a new row or model must update this
   list (ROADMAP item 5 keeps it open). *)
let test_models_without_a_mutation () =
  let guarded n =
    List.exists
      (fun row ->
        List.exists (fun s -> s.Mutation.model = n) row.Mutation.searches)
      Mutation.rows
  in
  Alcotest.(check (list string))
    "models without a must-fail row"
    [ "transfer-batch"; "huge"; "epoch-retire"; "lease"; "dual-monitor" ]
    (List.filter (fun n -> not (guarded n)) Scenarios.names)

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
  let clean r =
    match r.Explore.failure with
    | None -> ()
    | Some f ->
        Alcotest.failf "unmutated %s failed: %s" r.Explore.model
          f.Explore.reason
  in
  clean
    (Explore.random ~seed:1 ~schedules:50 ~crash:true ~max_steps:20_000
       (Scenarios.spsc ()));
  List.iter
    (fun m ->
      clean (Explore.exhaustive ~preemptions:2 ~crash:true ~max_steps:40_000 m))
    [
      Scenarios.transfer ~values:2 ();
      Scenarios.kv_serve ();
      Scenarios.kv_serve ~park_release:true ();
      Scenarios.kv_serve ~move:true ();
    ];
  (* the exact search that catches the era-blind crash reap; it must also
     reach runs in which the recoverer's leak-scan drain adopts the dead
     writer's orphaned rows and releases records while the reader may
     still be paused, or the model does not exercise the drain *)
  let drained = ref 0 in
  let r =
    Explore.exhaustive ~preemptions:1 ~crash:true ~max_steps:60_000
      (Scenarios.kv_serve_recover ~drained ())
  in
  clean r;
  Alcotest.(check bool)
    (Printf.sprintf "kv-serve-recover drain released records in %d of %d runs"
       !drained r.Explore.schedules)
    true (!drained > 0);
  (* the isolation model under a seeded sweep; the exhaustive p<=2 runs in CI *)
  clean
    (Explore.random ~seed:5 ~schedules:50 ~crash:true ~max_steps:60_000
       (Scenarios.rpc_isolate ()))

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
    Alcotest.test_case "exhaustive reports truncation" `Quick
      test_exhaustive_reports_truncation;
    Alcotest.test_case "epoch-retire reaches every retire window" `Quick
      test_epoch_retire_reaches_retire_windows;
  ]
  @ mutation_cases
  @ [
    Alcotest.test_case "models without a must-fail mutation" `Quick
      test_models_without_a_mutation;
    Alcotest.test_case "crash-then-recover random sweep" `Quick
      test_kv_recover_random_sweep;
    Alcotest.test_case "unmutated models pass the same searches" `Quick
      test_unmutated_models_pass;
  ]
