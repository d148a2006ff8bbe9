(** Open-loop arrival schedule.

    A closed-loop bench issues the next request when the previous one
    finishes, which hides queueing delay — exactly the component an SLO
    cares about. This generator instead draws a deterministic Poisson
    arrival schedule (exponential inter-arrival gaps from a seeded RNG) at
    a configured offered rate; a request's latency is measured from its
    {e arrival} time, so time spent queued behind a slow (or dead) shard
    counts against the SLO. *)

type t

val create : rate_mops:float -> seed:int -> t
(** [rate_mops] is the offered load in million ops per modeled second. *)

val next_arrival : t -> float
(** Absolute arrival time (modeled ns) of the next request; strictly
    increasing. Deterministic given the seed. *)
