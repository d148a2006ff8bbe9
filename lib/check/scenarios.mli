(** The built-in models: small concurrent protocols whose interleavings
    (and crash points) the explorer enumerates, each paired with the
    oracle that must hold afterwards. {!Mutation.rows} names the
    historical bugs each model must catch.

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
    and poll yields. *)

val huge : ?rounds:int -> unit -> Explore.model
(** Two clients allocating and freeing two-segment huge objects on a small
    segment pool: exercises the contiguous-run claim and the tail-first
    [free_huge] release through its crash windows. Each payload carries a
    {!plant_rootref_decoy} naming a small object a third, unexplored
    client holds for the whole run, and the oracle requires it to keep count 1. *)

val plant_rootref_decoy : Cxlshm.Cxl_ref.t -> target:Cxlshm_shmem.Pptr.t -> unit
(** Write into a two-segment huge object's payload, at its continuation's
    page-0 metadata offsets, a RootRef page holding one in-use RootRef
    that names [target]: payload that looks like page metadata to any
    reader that does not classify the segment first. *)

val epoch_retire : ?rounds:int -> unit -> Explore.model
(** The [refc] workload with [Config.epoch_batch = 2]: zero-count rootrefs
    park in the volatile buffer, every round seals one retirement batch,
    and the next round's drops retire it one entry each between that
    round's transactions, so from two rounds (the default) on the run
    branches at the three [Retire_*] crash points. Model name
    ["epoch-retire"]. *)

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

val kv_serve : ?park_release:bool -> ?move:bool -> unit -> Explore.model
(** A KV writer COW-updates a key, runs a reclamation pass, and reuses the
    record size class, while a reader walks the same bucket chain (every
    record visit is a schedule point). Oracle: the reader observes the old
    or the new value — never a freed record's bytes — and the pool is
    fsck-clean after recovering any crash, including a writer death inside
    [put_cow].

    [~park_release:true] (model name ["kv-serve-park"]) makes the
    reclamation pass the bounded release inside the writer's [put_cow]:
    the set-up parks one record short of a limbo row and advances the
    epoch past their stamps, and the writer calls no [quiesce] before
    reusing the size class. The check fails if that release keeps more
    than the in-run park.

    [~move:true] (model name ["kv-serve-move"]) updates key 0, second in
    its chain, so the writer's [put_cow] moves it to the head and parks
    the displaced predecessor while the reader may be paused on it; after
    the decoy the writer poisons every count-zero block of the record's
    size (key 0, value 0xDEAD). *)

val kv_serve_recover : ?drained:int ref -> unit -> Explore.model
(** Crash-then-recover variant of [kv_serve] (model name
    ["kv-serve-recover"]): the writer COW-updates and quiesces while a
    reader is pinned mid-bucket-walk, and a third client — playing the
    monitor — recovers any writer crash {e interleaved with} the reader's
    steps, runs the leak scan (whose {!Cxlshm.Limbo.drain} adopts the
    orphaned limbo rows into a short-lived client and releases what no
    announced era pins), takes over the partition, adopts the rows left
    orphaned ([Cxl_kv.adopt_recovered]), allocates two decoys from the
    record's size class and poisons every count-zero block of that size
    (key 1, value 0xDEAD). Oracle: the pinned reader never observes
    0xDEAD, and the pool is fsck-clean after recovery, the drain's client
    included. [drained], when given, is bumped once per run whose drain released
    records. *)

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
    never reads the decoy, and the pool is fsck-clean after recovery.
    Model name ["rpc-isolate"]. *)

val names : string list
(** Every model's name; [cxlshm explore] runs them in this order. *)

val find :
  ?capacity:int -> ?values:int -> ?rounds:int -> string -> Explore.model
(** The model of that name, built with the given sizes: [capacity] and
    [values] size [spsc] and [transfer]/[transfer-batch], [rounds] sizes
    [refc], [huge] and [epoch-retire] and is the pass count of [lease]
    and [dual-monitor]; other models ignore them. Raises
    [Invalid_argument] listing {!names} for an unknown name. *)
