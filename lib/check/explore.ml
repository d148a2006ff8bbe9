(* The schedule explorer: a deterministic executor over Sched fibers plus
   three exploration strategies (seeded random, PCT, bounded-preemption
   exhaustive) and exact replay.

   Executor model. A run owns one freshly-built model instance. At every
   {e branch point} (a yield the model's [branch] filter accepts) the
   executor asks a chooser for a decision: [Run c] resumes client [c] until
   its next branch point; [Crash c] kills client [c] at its current yield,
   consuming the single crash budget (single-failure model, like the
   paper's fault test). Yields the filter rejects auto-continue the current
   client, so a model can choose its preemption granularity — every word
   access for a tiny lock-free structure, labeled crash points + explicit
   poll yields for full-arena protocols. When no client remains runnable,
   the instance's [check] runs (recovery of crashed clients + invariants);
   any exception it raises is a found bug carrying the full decision list,
   which replays the run bit-identically.

   Crashing only at the *current* client's yield point loses nothing: a
   kill has no shared-memory effect, so killing a suspended client now is
   schedule-equivalent to having killed it at its own last yield — and that
   schedule is explored separately. *)

module Fault = Cxlshm.Fault

type instance = {
  clients : (unit -> unit) array;
  check : crashed:int list -> unit;
      (** Post-run oracle; [crashed] lists client indices killed by the
          schedule, in kill order. Raise to report an invariant violation. *)
}

type model = {
  name : string;
  make : unit -> instance;
  branch : Sched.point -> bool;
      (** Which yield points are scheduling decisions. Non-matching yields
          auto-continue the running client (they still burn fuel). *)
}

type outcome =
  | Pass
  | Fail of string
  | Diverged  (** fuel exhausted — livelock under this schedule, pruned *)

type run = { decisions : Schedule.decision list; outcome : outcome; steps : int }

type choice = {
  step : int;  (** branch-point index within the run, 0-based *)
  current : int option;  (** last-run client, when still runnable *)
  runnable : int list;  (** ascending *)
  crash_used : bool;
}

exception Fuel_exhausted

type fiber_state =
  | Unstarted of (unit -> unit)
  | Suspended of Sched.point * (unit, Sched.run_result) Effect.Deep.continuation
  | Finished

let execute (m : model) ~max_steps ~(choose : choice -> Schedule.decision) : run
    =
  let inst = m.make () in
  let n = Array.length inst.clients in
  let st = Array.map (fun f -> Unstarted f) inst.clients in
  let crashed = ref [] in
  (* reverse order *)
  let decisions = ref [] in
  (* reverse order *)
  let crash_used = ref false in
  let fuel = ref 0 in
  let branch_step = ref 0 in
  let failure = ref None in
  let current = ref None in
  let runnable () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match st.(i) with
      | Unstarted _ | Suspended _ -> acc := i :: !acc
      | Finished -> ()
    done;
    !acc
  in
  (* next runnable strictly after [c], cyclically ([c] itself if alone) *)
  let next_after c rs =
    match List.find_opt (fun x -> x > c) rs with
    | Some x -> x
    | None -> List.hd rs
  in
  let finish i = function
    | Fault.Crashed _ -> st.(i) <- Finished (* killed by a Crash decision *)
    | e ->
        st.(i) <- Finished;
        if !failure = None then
          failure :=
            Some (Printf.sprintf "client %d raised %s" i (Printexc.to_string e))
  in
  (* Run client [i] until it suspends at a branch-eligible yield, finishes,
     or the run's fuel is gone. *)
  let run_quantum i =
    let rec pump = function
      | Sched.Completed -> st.(i) <- Finished
      | Sched.Raised e -> finish i e
      | Sched.Yielded (p, k) ->
          incr fuel;
          if !fuel > max_steps then begin
            st.(i) <- Suspended (p, k);
            raise Fuel_exhausted
          end
          else if m.branch p then st.(i) <- Suspended (p, k)
          else pump (Sched.resume k)
    in
    match st.(i) with
    | Unstarted f -> pump (Sched.start f)
    | Suspended (_, k) -> pump (Sched.resume k)
    | Finished -> invalid_arg "Explore: decision names a finished client"
  in
  (* Unwind a killed fiber to termination; cleanup code may still yield,
     and anything it raises beyond the injected crash is a found bug. *)
  let rec drain c = function
    | Sched.Yielded (_, k) -> drain c (Sched.resume k)
    | Sched.Completed -> ()
    | Sched.Raised (Fault.Crashed _) -> ()
    | Sched.Raised e ->
        if !failure = None then
          failure :=
            Some
              (Printf.sprintf "client %d raised %s while unwinding a crash" c
                 (Printexc.to_string e))
  in
  let diverged = ref false in
  (try
     let running = ref true in
     while !running && !failure = None do
       match runnable () with
       | [] ->
           (try inst.check ~crashed:(List.rev !crashed)
            with e ->
              failure :=
                Some (Printf.sprintf "check: %s" (Printexc.to_string e)));
           running := false
       | rs ->
           let cur =
             match !current with
             | Some c when List.mem c rs -> Some c
             | _ -> None
           in
           (* Voluntary yield: a [Label] point means the client polled and
              made no progress (failed push, empty receive). Spinning there
              is a read-only no-op cycle, so offering it to the chooser
              would only bloat the schedule space — instead the executor
              always hands the quantum to the next runnable client,
              deterministically, for free and unrecorded. *)
           match cur with
           | Some c
             when match st.(c) with
                  | Suspended (Sched.Label _, _) -> true
                  | _ -> false ->
               let nxt = next_after c rs in
               current := Some nxt;
               run_quantum nxt
           | _ ->
           let d =
             choose
               {
                 step = !branch_step;
                 current = cur;
                 runnable = rs;
                 crash_used = !crash_used;
               }
           in
           incr branch_step;
           decisions := d :: !decisions;
           (match d with
           | Schedule.Run c ->
               if not (List.mem c rs) then
                 invalid_arg
                   (Printf.sprintf "Explore: Run %d but runnable = [%s]" c
                      (String.concat ";" (List.map string_of_int rs)));
               current := Some c;
               run_quantum c
           | Schedule.Crash c ->
               if !crash_used then
                 invalid_arg "Explore: second Crash in a single-failure run";
               if not (List.mem c rs) then
                 invalid_arg (Printf.sprintf "Explore: Crash %d not runnable" c);
               crash_used := true;
               crashed := c :: !crashed;
               (match st.(c) with
               | Unstarted _ -> st.(c) <- Finished
               | Suspended (_, k) ->
                   st.(c) <- Finished;
                   drain c (Sched.kill k)
               | Finished -> assert false);
               if !current = Some c then current := None)
     done
   with Fuel_exhausted -> diverged := true);
  let outcome =
    match !failure with
    | Some r -> Fail r
    | None -> if !diverged then Diverged else Pass
  in
  { decisions = List.rev !decisions; outcome; steps = !fuel }

(* ---- reports ---- *)

type failure = { schedule : Schedule.t; reason : string }

type report = {
  model : string;
  mode : string;
  schedules : int;
  passed : int;
  diverged : int;
  crashes_injected : int;
  failure : failure option;  (** first failure; exploration stops on it *)
  truncated : bool;  (** stopped at the schedule cap with prefixes left *)
}

let pp_report ppf r =
  Format.fprintf ppf "model=%s mode=%s schedules=%d passed=%d diverged=%d crashes=%d"
    r.model r.mode r.schedules r.passed r.diverged r.crashes_injected;
  match r.failure with
  | None when r.truncated -> Format.fprintf ppf " truncated=true result=TRUNCATED"
  | None -> Format.fprintf ppf " result=PASS"
  | Some f ->
      Format.fprintf ppf " result=FAIL@,  reason: %s@,  replay: %s" f.reason
        (Schedule.to_string f.schedule)

let crashed_in decisions =
  List.exists (function Schedule.Crash _ -> true | Schedule.Run _ -> false)
    decisions

(* ---- seeded random exploration ---- *)

(* Every run derives its own RNG from (seed, run index), so any single run
   replays from the schedule string alone — the seed only picks which
   schedules get sampled. *)
let random ?(switch_prob = 0.25) ?(crash_horizon = 256) ~seed ~schedules ~crash
    ~max_steps (m : model) : report =
  let passed = ref 0 and diverged = ref 0 and crashes = ref 0 in
  let failure = ref None in
  let i = ref 0 in
  while !i < schedules && !failure = None do
    let rng = Random.State.make [| 0xc4ec; seed; !i |] in
    let crash_at =
      if crash then Some (Random.State.int rng crash_horizon) else None
    in
    let choose ch =
      if
        (not ch.crash_used)
        && crash_at = Some ch.step
        && ch.current <> None
      then Schedule.Crash (Option.get ch.current)
      else
        match ch.current with
        | Some c when Random.State.float rng 1.0 >= switch_prob ->
            Schedule.Run c
        | _ ->
            let rs = Array.of_list ch.runnable in
            Schedule.Run rs.(Random.State.int rng (Array.length rs))
    in
    let r = execute m ~max_steps ~choose in
    if crashed_in r.decisions then incr crashes;
    (match r.outcome with
    | Pass -> incr passed
    | Diverged -> incr diverged
    | Fail reason ->
        failure :=
          Some
            {
              schedule = { Schedule.model = m.name; decisions = r.decisions };
              reason;
            });
    incr i
  done;
  {
    model = m.name;
    mode = Printf.sprintf "random(seed=%d)" seed;
    schedules = !i;
    passed = !passed;
    diverged = !diverged;
    crashes_injected = !crashes;
    failure = !failure;
    truncated = false;
  }

(* ---- PCT-style priority exploration ---- *)

(* Probabilistic concurrency testing (Burckhardt et al.): each run assigns
   random client priorities and picks depth-1 random change points; the
   highest-priority runnable client always runs, and at a change point the
   running client's priority drops below everyone. Finds depth-d bugs with
   probability >= 1/(n * k^(d-1)) per run. *)
let pct ?(depth = 3) ?(crash_horizon = 256) ~seed ~schedules ~crash ~max_steps
    (m : model) : report =
  let passed = ref 0 and diverged = ref 0 and crashes = ref 0 in
  let failure = ref None in
  let i = ref 0 in
  while !i < schedules && !failure = None do
    let rng = Random.State.make [| 0x9c7; seed; !i |] in
    let crash_at =
      if crash then Some (Random.State.int rng crash_horizon) else None
    in
    (* priorities.(c) : higher runs first; change points drop the runner *)
    let prio = Array.init 64 (fun _ -> Random.State.int rng 1_000_000) in
    let change =
      Array.init (max 0 (depth - 1)) (fun _ ->
          Random.State.int rng (max 1 crash_horizon))
    in
    let low = ref 0 in
    let choose ch =
      if Array.exists (( = ) ch.step) change then
        Option.iter
          (fun c ->
            decr low;
            prio.(c) <- !low)
          ch.current;
      if
        (not ch.crash_used)
        && crash_at = Some ch.step
        && ch.current <> None
      then Schedule.Crash (Option.get ch.current)
      else
        let best =
          List.fold_left
            (fun acc c ->
              match acc with
              | None -> Some c
              | Some b -> if prio.(c) > prio.(b) then Some c else acc)
            None ch.runnable
        in
        Schedule.Run (Option.get best)
    in
    let r = execute m ~max_steps ~choose in
    if crashed_in r.decisions then incr crashes;
    (match r.outcome with
    | Pass -> incr passed
    | Diverged -> incr diverged
    | Fail reason ->
        failure :=
          Some
            {
              schedule = { Schedule.model = m.name; decisions = r.decisions };
              reason;
            });
    incr i
  done;
  {
    model = m.name;
    mode = Printf.sprintf "pct(seed=%d,depth=%d)" seed depth;
    schedules = !i;
    passed = !passed;
    diverged = !diverged;
    crashes_injected = !crashes;
    failure = !failure;
    truncated = false;
  }

(* ---- bounded-preemption exhaustive search ---- *)

(* CHESS-style iterative deviation: depth-first over decision prefixes. Each
   run follows its prefix, then extends with the default policy (keep the
   current client running; on a forced switch take the lowest runnable).
   Every default decision's untried legal alternatives — a preemptive switch
   while budget remains, the one crash while unused — are pushed as new
   prefixes, so all schedules with at most [preemptions] preemptions and at
   most one crash are eventually visited, each exactly once. *)
let exhaustive ?(max_schedules = 1_000_000) ~preemptions ~crash ~max_steps
    (m : model) : report =
  let stack = Stack.create () in
  Stack.push [] stack;
  let passed = ref 0 and diverged = ref 0 and crashes = ref 0 in
  let count = ref 0 in
  let failure = ref None in
  while (not (Stack.is_empty stack)) && !failure = None && !count < max_schedules
  do
    let prefix = Array.of_list (Stack.pop stack) in
    let path = ref [] in
    (* reverse of decisions taken so far in this run *)
    let preempted = ref 0 in
    let choose ch =
      let d =
        if ch.step < Array.length prefix then prefix.(ch.step)
        else begin
          let default =
            match ch.current with
            | Some c -> Schedule.Run c
            | None -> Schedule.Run (List.hd ch.runnable)
          in
          (* untried legal alternatives at this choice point *)
          let here = List.rev !path in
          let alt d' = Stack.push (here @ [ d' ]) stack in
          (match ch.current with
          | Some c ->
              if !preempted < preemptions then
                List.iter (fun c' -> if c' <> c then alt (Schedule.Run c')) ch.runnable;
              if crash && not ch.crash_used then alt (Schedule.Crash c)
          | None ->
              (* current finished/crashed: switching is free, not a preemption *)
              List.iter
                (fun c' -> if Schedule.Run c' <> default then alt (Schedule.Run c'))
                ch.runnable);
          default
        end
      in
      (match (d, ch.current) with
      | Schedule.Run c, Some cur when c <> cur -> incr preempted
      | _ -> ());
      path := d :: !path;
      d
    in
    let r = execute m ~max_steps ~choose in
    incr count;
    if crashed_in r.decisions then incr crashes;
    match r.outcome with
    | Pass -> incr passed
    | Diverged -> incr diverged
    | Fail reason ->
        failure :=
          Some
            {
              schedule = { Schedule.model = m.name; decisions = r.decisions };
              reason;
            }
  done;
  {
    model = m.name;
    mode =
      Printf.sprintf "exhaustive(preemptions=%d,crash=%b)" preemptions crash;
    schedules = !count;
    passed = !passed;
    diverged = !diverged;
    crashes_injected = !crashes;
    failure = !failure;
    truncated = !failure = None && not (Stack.is_empty stack);
  }

(* ---- exact replay ---- *)

let replay (m : model) ~max_steps (s : Schedule.t) : run =
  if s.Schedule.model <> m.name then
    invalid_arg
      (Printf.sprintf "Explore.replay: schedule is for model %s, not %s"
         s.Schedule.model m.name);
  let prefix = Array.of_list s.Schedule.decisions in
  let choose ch =
    if ch.step < Array.length prefix then prefix.(ch.step)
    else
      match ch.current with
      | Some c -> Schedule.Run c
      | None -> Schedule.Run (List.hd ch.runnable)
  in
  execute m ~max_steps ~choose
