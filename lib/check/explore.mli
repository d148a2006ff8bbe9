(** The schedule explorer: a deterministic executor over {!Sched} fibers
    plus three exploration strategies and exact replay.

    A run owns one freshly built model instance. At every branch point (a
    yield accepted by the model's [branch] filter) a chooser picks the next
    decision: resume a client, or spend the single crash budget killing
    the current one at its yield. When no client remains runnable the
    instance's oracle runs; anything it raises is a found bug carrying the
    full decision list, which replays bit-identically. *)

type instance = {
  clients : (unit -> unit) array;
  check : crashed:int list -> unit;
      (** Post-run oracle; [crashed] lists client indices killed by the
          schedule, in kill order. Raise to report an invariant
          violation. *)
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

type run = {
  decisions : Schedule.decision list;
  outcome : outcome;
  steps : int;
}

type choice = {
  step : int;  (** branch-point index within the run, 0-based *)
  current : int option;  (** last-run client, when still runnable *)
  runnable : int list;  (** ascending *)
  crash_used : bool;
}

val execute :
  model -> max_steps:int -> choose:(choice -> Schedule.decision) -> run
(** One run under an arbitrary decision policy. [Run c] must name a
    runnable client; a second [Crash] in one run is a policy bug and
    raises [Invalid_argument]. *)

type failure = { schedule : Schedule.t; reason : string }

type report = {
  model : string;
  mode : string;
  schedules : int;
  passed : int;
  diverged : int;
  crashes_injected : int;
  failure : failure option;  (** first failure; exploration stops on it *)
  truncated : bool;
      (** [exhaustive] stopped at [max_schedules] with schedules still to
          visit and no failure found; always [false] for sampling modes *)
}

val pp_report : Format.formatter -> report -> unit
(** One summary line; a failure adds its reason and replay string. It ends
    [result=PASS] only for a completed search or sample with no failure:
    a truncated search ends [truncated=true result=TRUNCATED]. *)

val random :
  ?switch_prob:float ->
  ?crash_horizon:int ->
  seed:int ->
  schedules:int ->
  crash:bool ->
  max_steps:int ->
  model ->
  report
(** Seeded random walks. Each run derives its own RNG from
    [(seed, run index)], so any single run replays from the schedule
    string alone. *)

val pct :
  ?depth:int ->
  ?crash_horizon:int ->
  seed:int ->
  schedules:int ->
  crash:bool ->
  max_steps:int ->
  model ->
  report
(** Probabilistic concurrency testing (Burckhardt et al.): random client
    priorities plus [depth - 1] priority-drop change points per run. *)

val exhaustive :
  ?max_schedules:int ->
  preemptions:int ->
  crash:bool ->
  max_steps:int ->
  model ->
  report
(** CHESS-style iterative deviation: depth-first over decision prefixes,
    visiting every schedule with at most [preemptions] preemptive switches
    and at most one crash, each exactly once. Stops after [max_schedules]
    (default 1,000,000) runs, and then reports [truncated] if schedules
    were left unvisited. *)

val replay : model -> max_steps:int -> Schedule.t -> run
(** Re-execute a recorded schedule (then the default policy past its end).
    Raises [Invalid_argument] if the schedule names a different model. *)
