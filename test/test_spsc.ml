(* SPSC ring: FIFO order, capacity, cross-domain safety. *)

open Cxlshm_shmem
module Spsc = Cxlshm_spsc.Spsc_queue

let test_fifo () =
  let mem = Mem.create ~words:64 () in
  let st = Stats.create () and lines = Lines.create () in
  let q = Spsc.create mem ~st ~lines ~base:8 ~capacity:4 in
  Alcotest.(check bool) "push 1" true (Spsc.try_push q ~st ~lines 10);
  Alcotest.(check bool) "push 2" true (Spsc.try_push q ~st ~lines 20);
  Alcotest.(check (option int)) "pop 1" (Some 10) (Spsc.try_pop q ~st ~lines);
  Alcotest.(check bool) "push 3" true (Spsc.try_push q ~st ~lines 30);
  Alcotest.(check (option int)) "pop 2" (Some 20) (Spsc.try_pop q ~st ~lines);
  Alcotest.(check (option int)) "pop 3" (Some 30) (Spsc.try_pop q ~st ~lines);
  Alcotest.(check (option int)) "empty" None (Spsc.try_pop q ~st ~lines)

let test_capacity () =
  let mem = Mem.create ~words:64 () in
  let st = Stats.create () and lines = Lines.create () in
  let q = Spsc.create mem ~st ~lines ~base:8 ~capacity:2 in
  Alcotest.(check bool) "1" true (Spsc.try_push q ~st ~lines 1);
  Alcotest.(check bool) "2" true (Spsc.try_push q ~st ~lines 2);
  Alcotest.(check bool) "full" false (Spsc.try_push q ~st ~lines 3);
  ignore (Spsc.try_pop q ~st ~lines);
  Alcotest.(check bool) "room again" true (Spsc.try_push q ~st ~lines 3)

let test_attach () =
  let mem = Mem.create ~words:64 () in
  let st = Stats.create () and lines = Lines.create () in
  let _q = Spsc.create mem ~st ~lines ~base:8 ~capacity:4 in
  let q2 = Spsc.attach mem ~st ~lines ~base:8 in
  Alcotest.(check int) "capacity via attach" 4 (Spsc.capacity q2);
  Alcotest.check_raises "attach elsewhere fails"
    (Invalid_argument "Spsc_queue.attach: no queue at this address") (fun () ->
      ignore (Spsc.attach mem ~st ~lines ~base:32))

(* Regression: a header whose magic survived but whose capacity word was
   damaged to 0 used to attach fine and then die with Division_by_zero on
   the first push/pop; attach must reject it up front. *)
let test_attach_corrupt_capacity () =
  let mem = Mem.create ~words:64 () in
  let st = Stats.create () and lines = Lines.create () in
  let _q = Spsc.create mem ~st ~lines ~base:8 ~capacity:4 in
  Mem.store mem ~st ~lines 9 0;
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Spsc_queue.attach: corrupt capacity") (fun () ->
      ignore (Spsc.attach mem ~st ~lines ~base:8));
  Mem.store mem ~st ~lines 9 (-3);
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Spsc_queue.attach: corrupt capacity") (fun () ->
      ignore (Spsc.attach mem ~st ~lines ~base:8))

(* Regression: try_pop used to store the new head with no fence after the
   slot load, so the consumer's slot read could be ordered past the store
   that hands the slot back to the producer. The modeled clock must now
   charge a fence per successful pop, exactly like push. *)
let test_pop_charges_fence () =
  let mem = Mem.create ~words:64 () in
  let st = Stats.create () and lines = Lines.create () in
  let q = Spsc.create mem ~st ~lines ~base:8 ~capacity:4 in
  assert (Spsc.try_push q ~st ~lines 1);
  let fences_before = st.Stats.fences in
  Alcotest.(check (option int)) "popped" (Some 1) (Spsc.try_pop q ~st ~lines);
  Alcotest.(check int) "pop fenced" (fences_before + 1) st.Stats.fences;
  (* an empty pop does not fence (no slot was read) *)
  let fences_before = st.Stats.fences in
  Alcotest.(check (option int)) "empty" None (Spsc.try_pop q ~st ~lines);
  Alcotest.(check int) "no fence when empty" fences_before st.Stats.fences

(* Batched push/pop: FIFO preserved across batches, room-limited partial
   acceptance, and the empty/full edges. *)
let test_batch_fifo_partial () =
  let mem = Mem.create ~words:64 () in
  let st = Stats.create () and lines = Lines.create () in
  let q = Spsc.create mem ~st ~lines ~base:8 ~capacity:4 in
  Alcotest.(check int) "empty batch" 0 (Spsc.try_push_n q ~st ~lines []);
  Alcotest.(check int) "all fit" 3
    (Spsc.try_push_n q ~st ~lines [ 1; 2; 3 ]);
  Alcotest.(check int) "room-limited" 1
    (Spsc.try_push_n q ~st ~lines [ 4; 5 ]);
  Alcotest.(check int) "full" 0 (Spsc.try_push_n q ~st ~lines [ 6 ]);
  Alcotest.(check (list int))
    "pop two" [ 1; 2 ] (Spsc.try_pop_n q ~st ~lines ~max:2);
  Alcotest.(check (list int))
    "pop rest" [ 3; 4 ] (Spsc.try_pop_n q ~st ~lines ~max:8);
  Alcotest.(check (list int)) "empty" [] (Spsc.try_pop_n q ~st ~lines ~max:8);
  Alcotest.(check (list int)) "max 0" [] (Spsc.try_pop_n q ~st ~lines ~max:0)

(* The point of the batch entry points: one fence and one index store
   publish the whole batch. The queue's own Stats see the raw protocol
   (no Refc noise), so the fence count per batch must be exactly 1 on
   each side, however many values move. *)
let test_batch_single_fence () =
  let mem = Mem.create ~backend:Mem.Counting_fast ~words:64 () in
  let st = Stats.create () and lines = Lines.create () in
  let q = Spsc.create mem ~st ~lines ~base:8 ~capacity:8 in
  let fences () = st.Stats.fences in
  let before = fences () in
  Alcotest.(check int) "pushed six" 6
    (Spsc.try_push_n q ~st ~lines [ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check int) "one fence per batch push" (before + 1) (fences ());
  let before = fences () in
  Alcotest.(check (list int)) "popped six" [ 1; 2; 3; 4; 5; 6 ]
    (Spsc.try_pop_n q ~st ~lines ~max:6);
  Alcotest.(check int) "one fence per batch pop" (before + 1) (fences ());
  (* the degenerate cases publish nothing and must not fence *)
  Alcotest.(check int) "fill" 8
    (Spsc.try_push_n q ~st ~lines (List.init 8 succ));
  let before = fences () in
  Alcotest.(check int) "full push" 0 (Spsc.try_push_n q ~st ~lines [ 99 ]);
  Alcotest.(check int) "empty batch" 0 (Spsc.try_push_n q ~st ~lines []);
  Alcotest.(check int) "no fence without a publish" before (fences ());
  ignore (Spsc.try_pop_n q ~st ~lines ~max:8);
  let before = fences () in
  Alcotest.(check (list int))
    "empty pop" [] (Spsc.try_pop_n q ~st ~lines ~max:4);
  Alcotest.(check int) "no fence on empty pop" before (fences ())

(* Property: interleaved batch pushes/pops track the FIFO model exactly,
   including room-limited partial batches. *)
let prop_batch_fifo_model =
  QCheck.Test.make ~name:"spsc batch ops match queue model" ~count:200
    QCheck.(list (pair bool (int_bound 5)))
    (fun ops ->
      let mem = Mem.create ~words:128 () in
      let st = Stats.create () and lines = Lines.create () in
      let q = Spsc.create mem ~st ~lines ~base:8 ~capacity:8 in
      let model = Queue.create () in
      let counter = ref 0 in
      List.for_all
        (fun (is_push, n) ->
          if is_push then begin
            let vs = List.init n (fun i -> !counter + i + 1) in
            let pushed = Spsc.try_push_n q ~st ~lines vs in
            let room = 8 - Queue.length model in
            let expect = if n = 0 || room <= 0 then 0 else min n room in
            List.iteri (fun i v -> if i < pushed then Queue.push v model) vs;
            counter := !counter + pushed;
            pushed = expect
          end
          else
            let got = Spsc.try_pop_n q ~st ~lines ~max:n in
            let want =
              List.init
                (min n (Queue.length model))
                (fun _ -> Queue.pop model)
            in
            got = want)
        ops)

(* The tiny-ring race, deterministically: the schedule explorer interleaves
   a producer and consumer at every word access of a capacity-1 ring,
   exhaustively up to 2 preemptions. With every slot reused constantly, a
   producer racing past the (now fenced) pop-side publication reorders or
   duplicates a value — which the FIFO-prefix oracle catches on a schedule
   this mode provably visits (see the mutation self-check in
   test_check.ml). Replaces a 20k-iteration wall-clock race that could
   only lose by luck. *)
let test_sched_tiny_ring () =
  let module Explore = Cxlshm_check.Explore in
  let m = Cxlshm_check.Scenarios.spsc ~capacity:1 ~values:2 () in
  let r = Explore.exhaustive ~preemptions:2 ~crash:false ~max_steps:5_000 m in
  match r.Explore.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s (replay: %s)" f.Explore.reason
        (Cxlshm_check.Schedule.to_string f.Explore.schedule)

let test_cross_domain () =
  let mem = Mem.create ~words:128 () in
  let st0 = Stats.create () and lines0 = Lines.create () in
  let q = Spsc.create mem ~st:st0 ~lines:lines0 ~base:8 ~capacity:8 in
  let n = 50_000 in
  let producer =
    Domain.spawn (fun () ->
        let st = Stats.create () and lines = Lines.create () in
        let q = Spsc.attach mem ~st ~lines ~base:8 in
        for i = 1 to n do
          Spsc.push q ~st ~lines i
        done)
  in
  let sum = ref 0 in
  let st = Stats.create () and lines = Lines.create () in
  for _ = 1 to n do
    sum := !sum + Spsc.pop q ~st ~lines
  done;
  Domain.join producer;
  Alcotest.(check int) "all values, in total" (n * (n + 1) / 2) !sum

(* Property: any push/pop interleaving from one thread behaves like a
   FIFO. *)
let prop_fifo_model =
  QCheck.Test.make ~name:"spsc matches queue model" ~count:200
    QCheck.(list (pair bool (int_bound 1000)))
    (fun ops ->
      let mem = Mem.create ~words:128 () in
      let st = Stats.create () and lines = Lines.create () in
      let q = Spsc.create mem ~st ~lines ~base:8 ~capacity:8 in
      let model = Queue.create () in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            let ok = Spsc.try_push q ~st ~lines v in
            let model_ok = Queue.length model < 8 in
            if model_ok then Queue.push v model;
            ok = model_ok
          end
          else
            match (Spsc.try_pop q ~st ~lines, Queue.take_opt model) with
            | Some a, Some b -> a = b
            | None, None -> true
            | Some _, None | None, Some _ -> false)
        ops)

let suite =
  [
    Alcotest.test_case "fifo" `Quick test_fifo;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "attach" `Quick test_attach;
    Alcotest.test_case "attach rejects corrupt capacity" `Quick
      test_attach_corrupt_capacity;
    Alcotest.test_case "pop charges a fence" `Quick test_pop_charges_fence;
    Alcotest.test_case "batch push/pop fifo + partial" `Quick
      test_batch_fifo_partial;
    Alcotest.test_case "batch publishes under one fence" `Quick
      test_batch_single_fence;
    Generators.to_alcotest prop_batch_fifo_model;
    Alcotest.test_case "tiny ring under the schedule explorer" `Quick
      test_sched_tiny_ring;
    Alcotest.test_case "cross-domain" `Quick test_cross_domain;
    Generators.to_alcotest prop_fifo_model;
  ]
