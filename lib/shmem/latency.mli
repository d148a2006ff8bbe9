(** Memory-tier cost model.

    The paper's Table 1 characterises three tiers of byte-addressable memory
    (local NUMA, remote NUMA, CXL-attached) by the throughput of sequential
    loads, random loads and random CAS plus the random-access latency. We
    reuse those published numbers to attribute a modeled cost in nanoseconds
    to every memory event counted by {!Stats}. Benchmarks report this modeled
    time alongside wall-clock time: the simulator cannot reproduce the
    authors' absolute hardware numbers, but the modeled time preserves the
    relative shape (who wins, by what factor) of every experiment. *)

type tier =
  | Local_numa   (** DRAM on the local socket. *)
  | Remote_numa  (** DRAM one QPI/UPI hop away. *)
  | Cxl          (** CXL-attached memory across a PCIe 5.0 link. *)

val tier_name : tier -> string
val all_tiers : tier list

type t = {
  hit_ns : float;    (** CPU-cache hit — CXL memory is cacheable, so hot
                         lines (page metas, era rows, reused blocks) cost
                         an L1/L2 access, not a link round trip *)
  seq_ns : float;    (** cost of one sequential 8-byte access *)
  rand_ns : float;   (** dependent random access = Table 1's latency column *)
  rand_tp_ns : float;
      (** amortised random access under memory-level parallelism = what
          Table 1's "Rand" MOPS column measures *)
  cas_ns : float;    (** CAS on a cold/contended line (Table 1: ~3.3 MOPS) *)
  cas_hit_ns : float;
      (** uncontended CAS on a line already in this client's cache — a
          local atomic, no link round trip *)
  fence_ns : float;  (** cost of an sfence *)
  flush_ns : float;  (** cost of a clwb cache-line write-back *)
}

val of_tier : tier -> t
(** Cost model for a tier, calibrated to Table 1 of the paper. *)

val table1_mops : tier -> float * float * float
(** [(seq, rand, cas)] throughput in million operations per second implied by
    the model — the exact quantities Table 1 reports. *)

val table1_latency_ns : tier -> float
(** Random-access latency column of Table 1. *)
