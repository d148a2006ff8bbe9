(** CXL-KV: the shared-everything distributed key-value store (§6.4).

    One latch-free fixed-size hash index lives in the shared pool; its
    buckets are embedded references to chains of key-value records (hash
    collisions as linked lists, §6.4.1). Readers from any client walk the
    whole store directly — no sharding of reads. Writers own disjoint key
    partitions (single-writer-multi-reader, required by the era algorithm);
    a partition can be taken over with one CAS on the writer table —
    repartitioning without data movement, because the data never moves.

    Record reclamation after delete/COW is deferred under the hazard-era
    scheme (§5.4, {!Cxlshm.Hazard}): every traversal announces an era,
    every displaced record is parked behind a counted reference with a
    retire-epoch stamp, and only records whose stamp every announced
    reader has moved past are recycled — a bounded batch by every
    row-filling park, the rest by {!quiesce}. A displaced record keeps
    its next-link until it is actually reclaimed, so a reader paused on it
    still reaches the live chain tail. Concurrent readers may transiently
    miss entries deleted mid-walk — standard latch-free list semantics.

    Parking goes through the arena's one limbo ({!Cxlshm.Limbo}), so a
    writer crash cannot turn the deferred list into an era-blind reap:
    recovery orphans the dead writer's limbo rows in place and a successor
    takes them over via {!adopt_recovered}, retire stamps intact. When
    the whole limbo pool is full, {!put_cow} and {!delete} raise
    {!Cxlshm.Limbo.Exhausted} before they change the store. *)

type store = {
  index_obj : Cxlshm_shmem.Pptr.t;
  buckets : int;
  partitions : int;
  value_words : int;
}
(** Plain descriptor, shareable across domains. *)

type handle

val name : string

val create :
  Cxlshm.Ctx.t -> buckets:int -> partitions:int -> value_words:int ->
  store * handle
(** Allocate the index; the creator's handle holds a counted reference. *)

val open_store : Cxlshm.Ctx.t -> store -> handle
(** Attach another client to the store. *)

val close : handle -> unit
(** Drop every parked record reference (quiesced use only — no concurrent
    readers; a departing writer with live readers hands its parked records
    to a successor first, see {!handoff_deferred}) and this client's index
    reference; the index (and every record) is reclaimed when the last
    handle closes. A store meant to outlive its current clients should
    either keep a standby handle open or publish the index as a
    {!Cxlshm.Named_roots} entry. *)

val claim_partition : handle -> int -> bool
(** Become the writer of a partition (CAS on the writer table). *)

val takeover_partition : handle -> int -> bool
(** §6.4.1 writer failover: steal the partition whatever its current
    writer — no data transfer, one metadata CAS. *)

val writer_of_partition : handle -> int -> int option
val partition_of_key : store -> int -> int

val get : handle -> key:int -> int option
val get_all_words : handle -> key:int -> int array option
val put : handle -> key:int -> value:int -> unit
(** Insert-or-update; raises [Failure] if this client does not hold the
    key's partition. Existing keys are updated {e in place} (§2.2.2's
    "atomic in-place updates" — atomic per value word; multi-word values
    may be observed torn by concurrent readers). *)

val put_cow : handle -> key:int -> value:int -> unit
(** Copy-on-write variant: every write allocates a fresh record and swaps
    it into the chain atomically, so readers never observe a torn
    multi-word value. Replacing a record is count-neutral: the fresh
    record's allocation RootRef is parked in the limbo and one
    {!Cxlshm.Refc.swap} hands it the old record's count while the
    predecessor slot takes the fresh record's — no header CAS on either
    record, no second RootRef. The replaced record is parked until every
    announced reader era has passed it, then released by a later park
    ({!Cxlshm.Limbo.park}) or by {!quiesce}. Costs one allocation, one
    limbo park and one redo-logged swap per write, plus an attach when
    the old record has a successor. A new key is prepended through the
    same swap: the fresh record first takes a count on the bucket head,
    and releasing the RootRef afterwards drops the head's spare count.
    Raises {!Cxlshm.Limbo.Exhausted}, with the
    store unchanged, when no limbo entry is left to park the replaced
    record in. *)

val rmw : handle -> key:int -> delta:int -> int option
(** Read-modify-write (YCSB-F): read the current first value word, write
    [old + delta] back across the value width, return the old value
    ([None] = key absent, in which case [delta] is inserted). Writer-only,
    like {!put}. *)

val delete : handle -> key:int -> bool
(** Unlink and park the key's record, count-neutrally: a fresh park
    RootRef takes a count on the record's successor (none at the chain
    end), then one {!Cxlshm.Refc.swap} trades it for the predecessor
    slot's count on the record. Raises {!Cxlshm.Limbo.Exhausted} like
    {!put_cow}. *)

val quiesce : handle -> unit
(** Reclaim records parked by this handle's deletes and COW replacements —
    but only those whose retire stamp is below every announced reader era
    ({!Cxlshm.Hazard.min_announced}); the rest stay parked for a later
    pass. Parks already release such records a bounded batch at a time;
    this frees all of them at once. A crashed reader stops pinning as soon
    as it is condemned. *)

val deferred_count : handle -> int
(** Records currently parked awaiting a quiescent era. *)

val handoff_deferred : handle -> Cxlshm.Transfer.t -> int
(** Planned shard handoff: publish this handle's parked records to a
    successor through a §5.2 transfer queue — one
    {!Cxlshm.Transfer.send_batch}, single fence, dense-prefix atomicity —
    and drop the local references for the prefix that was accepted (the
    ring may run out of room; the remainder stays parked here). Returns
    how many records were handed off. *)

val adopt_deferred : handle -> Cxlshm.Transfer.t -> max:int -> int
(** Successor side of {!handoff_deferred}: consume up to [max] parked
    records from the queue and re-park them under this handle with a fresh
    retire stamp (conservatively later than the original, so reader
    protection survives the handoff). Returns how many were adopted. *)

val adopt_recovered : handle -> int
(** Crash-adoption successor side ({!Cxlshm.Limbo.adopt}): take over every
    orphaned limbo row — parked records a {e crashed} writer left behind —
    with one CAS per row, stamps intact, so recycling stays gated on
    {!Cxlshm.Hazard.min_announced} exactly as if the dead writer had
    quiesced them itself. Returns how many records were adopted.
    Typically called after {!takeover_partition} of the dead writer's
    partitions. *)

val size_estimate : handle -> int
(** Walks every bucket (reader-side full scan — legal in the
    shared-everything design). *)

val iter : handle -> (key:int -> value:int -> unit) -> unit
(** Reader-side scan of the whole store (§6.4: "readers can directly read
    the entire store"). Concurrent single-writer mutations may be partially
    observed, as with any latch-free traversal. *)

val keys : handle -> int list

(** {1 Test hooks} *)

val walk_hook : (unit -> unit) ref
(** {b Test-only.} Called once per record visited by any chain walk; the
    model checker points it at [Sched.yield] so traversals interleave with
    writer retirement. Must stay a no-op outside the explorer. *)
