(** TBB-KV: single-process multi-thread concurrent hash map baseline
    (Fig 10 a/d) in the spirit of [tbb::concurrent_hash_map].

    Runs on local-DRAM latencies with per-bucket spinlocks for writers and
    lock-free reads; multi-writer (no partitioning needed — it is not
    failure resilient and shares nothing across processes). The paper's
    CXL-KV lands within 1.40-2.61× of this. *)

type store
type handle

val name : string

val create : buckets:int -> value_words:int -> capacity:int -> threads:int -> store
val handle : store -> int -> handle
val stats : handle -> Cxlshm_shmem.Stats.t

val lines : handle -> Cxlshm_shmem.Lines.t
(** The handle's line state; reset it with its {!stats} to start cold. *)

val tier : store -> Cxlshm_shmem.Latency.tier

val get : handle -> key:int -> int option
val put : handle -> key:int -> value:int -> unit
val delete : handle -> key:int -> bool
