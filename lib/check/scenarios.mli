(** The built-in models: small concurrent protocols whose interleavings
    (and crash points) the explorer enumerates, each paired with the
    oracle that must hold afterwards.

    The arena models ([transfer], [refc]) recover every crashed client the
    way the monitor would, then require a leak-free, count-consistent,
    fsck-clean pool and a causally sane era matrix. *)

val spsc : ?capacity:int -> ?values:int -> unit -> Explore.model
(** Producer pushes [1..values] through a [capacity]-slot ring, consumer
    pops them. Branches at {e every} word access. Oracle: consecutive
    FIFO prefix, head/tail sanity. *)

val transfer :
  ?capacity:int -> ?values:int -> ?batched:bool -> unit -> Explore.model
(** Exactly-once reference handoff between two arena clients through a
    {!Cxlshm.Transfer} queue. Branches at labeled crash points and poll
    yields. With [~batched:true] (model name ["transfer-batch"]) the run
    moves through {!Cxlshm.Transfer.send_batch}/[receive_batch], exploring
    the single-commit-point batch publish. *)

val refc : ?rounds:int -> unit -> Explore.model
(** Two clients churning parent/child object graphs: era refcount
    transactions plus shared-allocator contention. Then both drop one
    shared parent holding one embedded child, so the two releases race
    from count 2 and the loser's retry on count 1 must decline and tear
    the child down as the last holder. Branches at labeled crash points
    and poll yields. The [Refc.mutation_zero_shared] flag lets the losing
    decrement zero the parent with its child still linked, which this
    model must catch ([refc-zero-shared]). *)

val huge : ?rounds:int -> unit -> Explore.model
(** Two clients allocating and freeing two-segment huge objects on a small
    segment pool: exercises the contiguous-run claim and the tail-first
    [free_huge] release through its crash windows. *)

val epoch_retire : ?rounds:int -> unit -> Explore.model
(** The [refc] workload with [Config.epoch_batch = 2]: zero-count rootrefs
    park in the volatile buffer, every round seals one retirement batch,
    and the next round's drops retire it one entry each between that
    round's transactions, so from two rounds (the default) on the run
    branches at the three [Retire_*] crash points. Model name
    ["epoch-retire"]. *)

val sharded_alloc : ?values:int -> unit -> Explore.model
(** Three clients over [Config.num_domains = 2]: cross-client frees park
    blocks on domain shard stacks; same-domain pops and cross-domain
    CAS-steals race crashes while parked stamps pin the donor segments.
    Model name ["sharded-alloc"]. *)

val lease : ?passes:int -> unit -> Explore.model
(** One client churning a small graph while a monitor's detection passes
    race its heartbeat renewals: suspicion and self-heal are reachable
    in-run, and the oracle reaps the (hung, never-unregistering) client
    through the lease machinery alone — no [declare_failed] anywhere. *)

val dual_monitor : ?passes:int -> unit -> Explore.model
(** Two monitor replicas race leader election, takeover and recovery of a
    silent worker; crashes land inside the leadership handoff and the
    recovery instruction stream, which the surviving (or settle) replica
    must resume. Oracle also requires exactly one death dump per failure
    incident across all replicas. Model name ["dual-monitor"]. *)

val evacuate : ?rounds:int -> unit -> Explore.model
(** A still-referenced object stranded on a degraded device of a 2-device
    striped pool is drained by an evacuation sweep while its holder's owner
    keeps allocating; crashes land at the [Evac_*] copy/re-point/release
    windows. Oracle: after recovery plus one clean convergence sweep, the
    degraded device holds zero live segments and the payload survived. *)

val kv_serve : ?park_release:bool -> unit -> Explore.model
(** A KV writer COW-updates a key, runs a reclamation pass, and reuses the
    record size class, while a reader walks the same bucket chain (every
    record visit is a schedule point). Oracle: the reader observes the old
    or the new value — never a freed record's bytes — and the pool is
    fsck-clean after recovering any crash, including a writer death inside
    [put_cow]. The [Limbo.mutation_unconditional_quiesce] flag
    re-introduces era-blind reclamation, which this model must catch.

    [~park_release:true] (model name ["kv-serve-park"]) makes the
    reclamation pass the bounded release inside the writer's [put_cow]:
    the set-up parks one record short of a limbo row, and the writer calls
    no [quiesce] before reusing the size class. *)

val kv_serve_recover : unit -> Explore.model
(** Crash-then-recover variant of [kv_serve] (model name
    ["kv-serve-recover"]): the writer COW-updates and quiesces while a
    reader is pinned mid-bucket-walk, and a third client — playing the
    monitor — recovers any writer crash {e interleaved with} the reader's
    steps, takes over the partition, adopts the orphaned limbo rows
    ([Cxl_kv.adopt_recovered]) and allocates from the record's size class
    (over one shard domain, so an era-blind free is provably reused).
    Oracle: the pinned reader never observes the 0xDEAD decoy. The
    [Limbo.mutation_crash_reap] flag re-introduces the historical
    era-blind reap of the dead writer's parked records, which the
    bounded-exhaustive crash search must catch. *)

val bcast_recover : unit -> Explore.model
(** A {!Cxlshm_structures.Broadcast_log} writer overwrites a one-slot log
    twice while a subscriber is paused between its slot read and its
    [try_attach] on the first entry, and a third client — playing the
    monitor — recovers any writer crash and runs the leak scan (with its
    limbo drain) interleaved with the subscriber, then plants 0xDEAD
    decoys of the entries' size class in the dead writer's adopted
    segments. Oracle: the subscriber never reads a decoy, and the pool is
    fsck-clean after recovery. The [Limbo.mutation_volatile_park] flag
    parks volatile-only, as the log's historical parked list did, which
    this model must catch. Model name ["bcast-recover"]. *)

val rpc_isolate : unit -> Explore.model
(** An RPC client makes one well-formed in-channel call and one carrying a
    smuggled out-of-channel pointer, through a ring that holds one loan:
    the second call is lent as soon as the ring has room, before the
    first is collected, so its lend reclaims the first call's message. A
    server serves both, and a monitor recovers any client crash
    {e interleaved with} the serving — then reuses (with a pin-placed
    0xDEAD decoy) any sub-heap segment channel revocation returned to the
    arena. Oracle: the good call's output is exactly the handler's write,
    the smuggled call is rejected without running the handler, the handler
    never reads the decoy, and the pool is fsck-clean after recovery. The
    [Cxl_rpc.mutation_skip_validate], [Cxl_rpc.mutation_unfenced_status]
    and [Cxl_rpc.mutation_early_advance] flags re-introduce a missing
    validation walk, an unfenced completion publish and a slot handed back
    before its completion, which this model must catch. Model name
    ["rpc-isolate"]. *)

val all : unit -> Explore.model list

val find : string -> Explore.model
(** Raises [Invalid_argument] for an unknown model name. *)
