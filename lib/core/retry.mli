(** Bounded retry/backoff over transient device faults.

    Client-side half of the device-fault story: transient
    {!Cxlshm_shmem.Mem.Device_error}s (poisoned reads, torn writes, short
    offline windows) are re-issued under an exponential-backoff budget;
    persistent faults and exhausted budgets are {e escalated} — counted in
    {!Cxlshm_shmem.Stats}, reported through [on_escalate] (which {!Ctx}
    wires to the shared degraded-device bitmap) and re-raised to the
    caller. *)

type policy = {
  max_attempts : int;  (** total attempts, the first try included *)
  base_backoff_ns : float;  (** simulated delay before the first retry *)
  max_backoff_ns : float;  (** cap on the exponential growth *)
}

val default_policy : policy
(** 5 attempts, 250 ns initial backoff doubling up to 64 µs. *)

val backoff_ns : policy -> int -> float
(** Simulated backoff before retry number [attempt] (1-based). *)

val with_retries :
  ?policy:policy ->
  st:Cxlshm_shmem.Stats.t ->
  on_escalate:(dev:int -> unit) ->
  ((unit -> unit) -> 'a) ->
  'a
(** [with_retries ~st ~on_escalate f] runs [f commit], re-running it on a
    transient {!Cxlshm_shmem.Mem.Device_error} until the policy's attempt
    budget is spent. [f] must call [commit ()] once its effects are visible
    to other clients (a commit point has landed): from then on the section
    is {e never} re-run — a later fault escalates instead, because a re-run
    would double-apply the committed effects. Persistent faults escalate on
    first sight. Escalation calls [on_escalate ~dev] with the faulting
    device and re-raises the fault. Faults, retries, simulated backoff time
    and escalations are accumulated in [st]. *)
