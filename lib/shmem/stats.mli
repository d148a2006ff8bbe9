(** Per-client memory-event counters.

    Every operation on {!Mem} is attributed to a [Stats.t]; the counters are
    combined with a {!Latency} cost model to compute modeled execution time.
    Counters distinguish cache hits, sequential accesses (the same or the
    next line as the previous access by this client) and random accesses,
    mirroring the seq/rand split of Table 1; the client's {!Lines} decides
    which one an access is. A [Stats.t] holds plain counters only, so
    {!copy}, {!add}, {!diff} and {!reset} are field arithmetic. *)

type t = {
  mutable cache_hits : int;
  mutable seq_accesses : int;
  mutable rand_accesses : int;
  mutable cas_ops : int;  (** CAS on cold lines *)
  mutable cas_hit_ops : int;  (** CAS on lines already cached *)
  mutable cas_failures : int;
  mutable fences : int;
  mutable flushes : int;
  mutable deferred_flushes : int;
      (** write-backs the epoch-batching layer queued instead of issuing
          immediately. A newly-queued line is {e also} counted in [flushes]
          at enqueue time — the op that dirtied the line owns the modeled
          write-back cost — and the batch-boundary drain issues the device
          flush against scratch stats, so {!breakdown_ns} prices each
          deferred line exactly once, on the op that deferred it. *)
  mutable xdev_accesses : int;
      (** accesses that landed on a pool device whose tier differs from the
          pool's base cost model — cross-device traffic in the Fig 1
          multi-device topology. Each such access is {e also} counted in the
          seq/rand/cas counters above; this field only annotates how many of
          them were re-priced. *)
  mutable xdev_ns : float;
      (** summed pricing adjustment (device-tier cost minus base-tier cost)
          for the [xdev_accesses]; {!modeled_ns} adds it so cross-device
          accesses are charged at their device's tier. *)
  mutable dev_faults : int;
      (** injected device faults ({!Mem.Device_error}) observed by this
          client — transient and persistent alike. *)
  mutable retries : int;
      (** primitive operations re-issued after a transient device fault *)
  mutable backoff_ns : float;
      (** summed simulated backoff delay spent between retries *)
  mutable fault_escalations : int;
      (** faults that exhausted the retry budget (or were persistent) and
          were escalated — the device gets marked degraded *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val add : t -> t -> unit
(** [add acc s] accumulates [s] into [acc] (counter-wise sum). *)

val diff : t -> t -> t
(** [diff after before] is the per-counter difference. *)

val total_accesses : t -> int
(** Loads + stores + CAS (cache hits included). *)

val modeled_ns : Latency.t -> t -> float
(** Modeled execution time in nanoseconds under the given cost model,
    including the simulated retry backoff ({!t.backoff_ns}). *)

val breakdown_ns : Latency.t -> t -> float * float * float * float
(** [(access_ns, fence_ns, flush_ns, backoff_ns)] — the Fig 7
    decomposition plus the simulated retry-backoff stall; their sum is
    {!modeled_ns}. *)

(** {1 Probe aliases}

    Kept for the serving benchmark ([benchmark/]), which still snapshots
    through them; new code uses {!copy} and {!diff}. *)

type probe = t

val probe : t -> probe
(** {!copy}. *)

val probe_ns : Latency.t -> t -> since:probe -> float
(** [modeled_ns m (diff t since)]. *)

val pp : Format.formatter -> t -> unit
