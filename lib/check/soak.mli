(** Crash-point × device-fault soak sweep (§6.2.2 under a fault model).

    A run drives the randomized multi-client workload against an arena
    whose backend may inject device faults on a deterministic schedule,
    while one client carries a crash-point plan. Clients that hit a fault
    or crash point fail-stop. Afterwards the injection is disarmed (the
    devices are "serviced"), every client is crash-recovered, the arena is
    validated, {!Fsck.repair} runs, and the run's verdict is the post-fsck
    validation. Everything derives from the run's seed, so a failure
    replays exactly from the emitted JSON record. *)

open Cxlshm

type schedule = {
  sname : string;
  read_poison : float;  (** per-load transient poison probability *)
  torn_write : float;  (** per-store torn-write probability *)
  stuck_word : float;  (** per-store stuck-at probability (persistent) *)
  offline : (int * int * int) list;
      (** [(device, first_op, last_op)] outage windows *)
}

val quiet_schedule : schedule
(** No injection at all — the crash-only baseline. *)

val default_schedules : schedule list
(** [quiet]; [transient] (poison + tears); [stuck] (persistent media
    damage); [offline] (device outage windows). *)

val default_backends : (string * Cxlshm_shmem.Mem.backend_spec) list
(** Flat, and 4-device segment-granularity striping. *)

type run = {
  backend : string;
  schedule : string;
  point : string;  (** crash-point name, or ["none"] *)
  seed : int;
  steps : int;
  crashes : (int * string) list;  (** (cid, cause) for each failed client *)
  dev_faults : int;  (** device errors surfaced to clients *)
  retries : int;
  backoff_ns : float;
  escalations : int;
  injected : (string * int) list;  (** backend-side per-class counts *)
  degraded : int list;  (** devices degraded before servicing *)
  sweep_errors : int;  (** recovery attempts that raised, pre-fsck *)
  pre_clean : bool;  (** validation after recovery, before fsck *)
  fsck : Fsck.report;
  clean : bool;  (** the verdict: post-fsck validation *)
}

val run_one :
  backend:string * Cxlshm_shmem.Mem.backend_spec ->
  schedule:schedule ->
  point:Fault.point option ->
  seed:int ->
  steps:int ->
  run

val mix_seed : base:int -> bi:int -> si:int -> pi:int -> int
(** Per-run seed from the base seed and the run's matrix coordinates
    (backend, schedule, point indices) — what {!run_matrix} uses, exposed
    so a driver iterating cell by cell produces the same runs. *)

val run_matrix :
  ?backends:(string * Cxlshm_shmem.Mem.backend_spec) list ->
  ?schedules:schedule list ->
  ?points:Fault.point option list ->
  seed:int ->
  steps:int ->
  unit ->
  run list
(** Full sweep: backends × schedules × points (default: every
    {!Fault.all_points} plus no-crash). Per-run seeds mix the base seed
    with the matrix coordinates, so any single run can be re-run alone. *)

val failures : run list -> run list

(** {1 Monitor-kill failover schedule} *)

type failover = {
  fo_seed : int;
  fo_steps : int;
  hung_cid : int;  (** the client that went silent under load *)
  leader_crashed : bool;  (** replica 0 died inside the recovery it led *)
  follower_finished : bool;  (** replica 1 freed the hung client's slot *)
  fo_clean : bool;  (** final post-fsck validation *)
}

val monitor_kill : ?steps:int -> seed:int -> unit -> failover
(** The control-plane soak: a linked multi-client workload on a 4-device
    striped pool; one client hangs (alive, holding references, lease
    lapsing); the leader monitor replica is killed inside the recovery it
    started; the follower must depose it and finish that recovery
    mid-flight. A passing run has [leader_crashed], [follower_finished]
    and [fo_clean]. Deterministic in [seed]: the replicas interleave
    synchronously, no domains. *)

val pp_failover : Format.formatter -> failover -> unit

val pp_run : Format.formatter -> run -> unit

val run_to_json : run -> string

val matrix_to_json : seed:int -> run list -> string
(** Machine-readable sweep summary: base seed, totals, the failing runs'
    coordinates (for replay), and every run record. *)
