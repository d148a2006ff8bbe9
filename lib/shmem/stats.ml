type t = {
  mutable cache_hits : int;
  mutable seq_accesses : int;
  mutable rand_accesses : int;
  mutable cas_ops : int;
  mutable cas_hit_ops : int;
  mutable cas_failures : int;
  mutable fences : int;
  mutable flushes : int;
  mutable deferred_flushes : int;
      (* write-backs enqueued by epoch batching; they cost nothing at
         enqueue time and surface as ordinary [flushes] on the op that
         drains the batch, so breakdown_ns charges the trigger, not the
         enqueuer *)
  mutable xdev_accesses : int;
  mutable xdev_ns : float;
  mutable dev_faults : int;
  mutable retries : int;
  mutable backoff_ns : float;
  mutable fault_escalations : int;
}

let create () =
  {
    cache_hits = 0;
    seq_accesses = 0;
    rand_accesses = 0;
    cas_ops = 0;
    cas_hit_ops = 0;
    cas_failures = 0;
    fences = 0;
    flushes = 0;
    deferred_flushes = 0;
    xdev_accesses = 0;
    xdev_ns = 0.0;
    dev_faults = 0;
    retries = 0;
    backoff_ns = 0.0;
    fault_escalations = 0;
  }

let reset t =
  t.cache_hits <- 0;
  t.seq_accesses <- 0;
  t.rand_accesses <- 0;
  t.cas_ops <- 0;
  t.cas_hit_ops <- 0;
  t.cas_failures <- 0;
  t.fences <- 0;
  t.flushes <- 0;
  t.deferred_flushes <- 0;
  t.xdev_accesses <- 0;
  t.xdev_ns <- 0.0;
  t.dev_faults <- 0;
  t.retries <- 0;
  t.backoff_ns <- 0.0;
  t.fault_escalations <- 0

(* every field is a counter, so a shallow copy shares nothing mutable *)
let copy t = { t with cache_hits = t.cache_hits }

let add acc s =
  acc.cache_hits <- acc.cache_hits + s.cache_hits;
  acc.seq_accesses <- acc.seq_accesses + s.seq_accesses;
  acc.rand_accesses <- acc.rand_accesses + s.rand_accesses;
  acc.cas_ops <- acc.cas_ops + s.cas_ops;
  acc.cas_hit_ops <- acc.cas_hit_ops + s.cas_hit_ops;
  acc.cas_failures <- acc.cas_failures + s.cas_failures;
  acc.fences <- acc.fences + s.fences;
  acc.flushes <- acc.flushes + s.flushes;
  acc.deferred_flushes <- acc.deferred_flushes + s.deferred_flushes;
  acc.xdev_accesses <- acc.xdev_accesses + s.xdev_accesses;
  acc.xdev_ns <- acc.xdev_ns +. s.xdev_ns;
  acc.dev_faults <- acc.dev_faults + s.dev_faults;
  acc.retries <- acc.retries + s.retries;
  acc.backoff_ns <- acc.backoff_ns +. s.backoff_ns;
  acc.fault_escalations <- acc.fault_escalations + s.fault_escalations

let diff after before =
  {
    cache_hits = after.cache_hits - before.cache_hits;
    seq_accesses = after.seq_accesses - before.seq_accesses;
    rand_accesses = after.rand_accesses - before.rand_accesses;
    cas_ops = after.cas_ops - before.cas_ops;
    cas_hit_ops = after.cas_hit_ops - before.cas_hit_ops;
    cas_failures = after.cas_failures - before.cas_failures;
    fences = after.fences - before.fences;
    flushes = after.flushes - before.flushes;
    deferred_flushes = after.deferred_flushes - before.deferred_flushes;
    xdev_accesses = after.xdev_accesses - before.xdev_accesses;
    xdev_ns = after.xdev_ns -. before.xdev_ns;
    dev_faults = after.dev_faults - before.dev_faults;
    retries = after.retries - before.retries;
    backoff_ns = after.backoff_ns -. before.backoff_ns;
    fault_escalations = after.fault_escalations - before.fault_escalations;
  }

let total_accesses t =
  t.cache_hits + t.seq_accesses + t.rand_accesses + t.cas_ops + t.cas_hit_ops

(* Backoff is part of the modeled clock: a retried transient device fault
   really does stall the client for the simulated delay, so leaving it out
   of breakdown_ns/modeled_ns under-reports faulty-backend runs. *)
let breakdown_ns (m : Latency.t) t =
  let access =
    (float_of_int t.cache_hits *. m.hit_ns)
    +. (float_of_int t.seq_accesses *. m.seq_ns)
    +. (float_of_int t.rand_accesses *. m.rand_ns)
    +. (float_of_int t.cas_ops *. m.cas_ns)
    +. (float_of_int t.cas_hit_ops *. m.cas_hit_ns)
    +. t.xdev_ns
  in
  let fence = float_of_int t.fences *. m.fence_ns in
  let flush = float_of_int t.flushes *. m.flush_ns in
  (access, fence, flush, t.backoff_ns)

let modeled_ns m t =
  let access, fence, flush, backoff = breakdown_ns m t in
  access +. fence +. flush +. backoff

type probe = t

let probe = copy
let probe_ns m t ~since = modeled_ns m (diff t since)

let pp ppf t =
  Format.fprintf ppf
    "hit=%d seq=%d rand=%d cas=%d+%dh(fail %d) fence=%d flush=%d(+%dd) \
     xdev=%d(%+.0fns) faults=%d retries=%d(%.0fns backoff) esc=%d"
    t.cache_hits t.seq_accesses t.rand_accesses t.cas_ops t.cas_hit_ops
    t.cas_failures t.fences t.flushes t.deferred_flushes t.xdev_accesses
    t.xdev_ns t.dev_faults t.retries t.backoff_ns t.fault_escalations
