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

val after_fault :
  ?policy:policy ->
  st:Cxlshm_shmem.Stats.t ->
  on_escalate:(dev:int -> unit) ->
  dev:int ->
  transient:bool ->
  exn ->
  (unit -> 'a) ->
  'a
(** [after_fault ~st ~on_escalate ~dev ~transient e f] is a word primitive's
    {!Cxlshm_shmem.Mem.Device_error} handler: the first attempt of [f]
    raised [e] on device [dev]. A transient fault re-runs [f] until it
    succeeds or the attempt budget is spent; then, or at once for a
    persistent fault, it calls [on_escalate ~dev] and re-raises. Faults,
    retries, simulated backoff and escalations accumulate in [st]. *)
