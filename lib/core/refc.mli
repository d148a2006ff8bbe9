(** Era-based non-blocking reference-count transactions (§4.3, Fig 4).

    A refcount maintenance operation is a distributed transaction over two
    separate locations: the object header (ModifyRefCnt — atomic, {e not}
    idempotent) and the reference word (ModifyRef — idempotent under the
    single-writer rule). The successful header CAS is the commit point; the
    CAS word carries [lcid] and [lera] so that, combined with the era
    matrix, a recovery service can decide whether a dead client's commit
    happened:

    - {b Condition 1}: the last object's header still reads
      [lo.lcid = i && lo.lera = Era\[i\]\[i\]].
    - {b Condition 2}: [Era\[i\]\[i\] <= max_{j≠i} Era\[j\]\[i\]] — some
      other client observed the committed era before overwriting the header.

    Condition 1 must be evaluated strictly before Condition 2 (fence in
    between).

    The [_as] variants run a transaction under another client's identity:
    the recovery service finishing a dead client's instruction stream.

    {b Last-holder rule.} A block's count reaches zero only after its
    embedded slots are null. A release that may share the object detaches
    with [~shared:true], which declines a decrement from 1 before the redo
    record and the CAS, writing nothing: the releaser then holds the only
    reference, and {!Reclaim} tears the children down before the final
    [~shared:false] detach. Of two releases racing from 2, the loser's CAS
    retries on 1 and declines. *)

exception Refcount_violation of string
(** Raised when a transaction would drop a count below zero or attach to a
    dead (count-zero) object — both indicate an application-level double
    free / wild pointer, which the simulator surfaces loudly. *)

val attach : Ctx.t -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> unit
(** Fig 4 (c): increment [refed]'s count and link [ref_addr] to it. *)

val try_attach :
  Ctx.t -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> bool
(** Like {!attach} but returns [false] instead of raising when [refed]'s
    count is already zero — for readers racing a writer's retirement (the
    object is never resurrected). The caller must hold hazard protection
    ({!Hazard.enter}) so the header it reads cannot be a recycled block. *)

val detach : Ctx.t -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> int
(** Decrement and unlink; returns the new count. It is {!detach_as}
    [~shared:false]: releases go through {!Reclaim}, which nulls the
    embedded slots first. *)

val detach_batched :
  Ctx.t -> shared:bool -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> int
(** Redo-free detach used under a sealed retirement-journal entry
    ({!Epoch}): same observe + CAS commit, but no per-attempt redo record,
    no crash points, and the unlink + era advance happen inside. Recovery
    decides the commit with Conditions 1 & 2 against the journal's era.
    Only sound while the entry's rootref is still [in_use] in the sealed
    journal. [~shared] and the result are those of {!detach_as}. *)

val swap :
  Ctx.t ->
  ref_addr:Cxlshm_shmem.Pptr.t ->
  rr:Cxlshm_shmem.Pptr.t ->
  from_obj:Cxlshm_shmem.Pptr.t ->
  to_obj:Cxlshm_shmem.Pptr.t ->
  unit
(** Count-neutral swap: one era transaction relinks RootRef [rr] to
    [from_obj] and stores [to_obj] into [ref_addr], so the count
    [ref_addr] held on [from_obj] now belongs to [rr] and the count [rr]
    held on [to_obj] now belongs to [ref_addr] — no header CAS on either
    object. With [~to_obj:0] it is a plain move (epoch-batched transfer
    receive): [rr] must be unlinked and [ref_addr] ends cleared. With
    [~from_obj:0] it publishes into an empty word and [rr] ends unlinked.

    Every re-point of a reference word from A to B is this one pattern:
    take a RootRef holding B (the caller's allocation RootRef, or
    {!Alloc.alloc_rootref} plus {!attach}), swap, then release or park the
    RootRef, which now holds A.
    Recoverable via a [Swap] redo record: [rr] in use and already holding
    [from_obj] at the record's era means committed, and the store to
    [ref_addr] is replayed if it still holds [from_obj]; otherwise the
    swap never happened. *)

val attach_as :
  Ctx.t -> as_cid:int -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> unit

val detach_as :
  Ctx.t -> as_cid:int -> shared:bool -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> int
(** {!detach} under [as_cid]'s identity. With [~shared:true] a decrement
    from 1 is declined and [-1] returned, [ref_addr] still linked (the
    last-holder rule above); with [~shared:false] the caller has already
    nulled the object's embedded slots, and the count may reach zero. *)

val mutation_zero_shared : bool ref
(** Test-only: [~shared:true] no longer declines, so a racing release can
    zero an object whose children are still linked ([refc-zero-shared]). *)

val committed : Ctx.t -> cid:int -> obj:Cxlshm_shmem.Pptr.t -> era:int -> bool
(** Conditions 1-then-2 for "did client [cid]'s ModifyRefCnt at [era] on
    [obj] commit?" — the recovery-side oracle. *)

val ref_cnt : Ctx.t -> Cxlshm_shmem.Pptr.t -> int
(** Current reference count of an object (plain load of its header). *)
