(* Bounded retry with exponential backoff over transient device faults.

   The paper's RDSM hides most media errors behind the switch; what leaks
   through to a client is either transient (poisoned read, torn store,
   short offline window — a re-issue succeeds) or persistent (stuck media,
   long outage). This module is the client-side policy: re-issue transient
   faults a bounded number of times with exponentially growing (simulated)
   backoff, and escalate everything else so the monitor can mark the
   device degraded and steer allocation away from it.

   Only single-word primitives enter it, from their [Device_error]
   handler, and each is safe to run again: the injector faults either
   before the base operation executes ([cas]/[fetch_add]) or in a way a
   repeated store overwrites ([store]). *)

module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats

type policy = {
  max_attempts : int; (* total attempts, first try included *)
  base_backoff_ns : float; (* simulated delay before the first retry *)
  max_backoff_ns : float; (* exponential growth cap *)
}

let default_policy =
  { max_attempts = 5; base_backoff_ns = 250.; max_backoff_ns = 64_000. }

let backoff_ns policy attempt =
  Float.min policy.max_backoff_ns
    (policy.base_backoff_ns *. (2. ** float_of_int (attempt - 1)))

let after_fault ?(policy = default_policy) ~(st : Stats.t) ~on_escalate ~dev
    ~transient e f =
  let rec fault attempt ~dev ~transient e =
    st.Stats.dev_faults <- st.Stats.dev_faults + 1;
    if transient && attempt < policy.max_attempts then begin
      st.Stats.retries <- st.Stats.retries + 1;
      st.Stats.backoff_ns <- st.Stats.backoff_ns +. backoff_ns policy attempt;
      try f ()
      with Mem.Device_error { dev; transient; _ } as e ->
        fault (attempt + 1) ~dev ~transient e
    end
    else begin
      st.Stats.fault_escalations <- st.Stats.fault_escalations + 1;
      on_escalate ~dev;
      raise e
    end
  in
  fault 1 ~dev ~transient e
