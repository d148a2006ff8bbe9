(** The asynchronous, stateless, fail-safe recovery service (§3.2, §4.3).

    Recovery of a failed client [i] never blocks live clients and is itself
    restartable at any point (every step is either idempotent or a
    resumable era transaction executed under [i]'s identity):

    + resume the in-flight transaction recorded in [i]'s redo log, using
      Conditions 1 & 2 to decide whether the commit CAS happened; the
      ModifyRefCnt is {e never} redone, the ModifyRef tail is redone at
      least once;
    + finish (or discard) the sealed retirement batch in [i]'s epoch
      journal ({!Epoch}) — before any phase that issues new era-consuming
      transactions for [i], since an unfinished entry's commit is decided
      against [i]'s {e current} era;
    + orphan [i]'s limbo rows in place ({!Limbo.orphan_rows}): the
      era-pinned records it parked keep their retire stamps and are never
      freed era-blind; a successor adopts the rows ({!Limbo.adopt}) or the
      leak scan drains them once every announced era has passed
      ({!Limbo.drain});
    + close [i]'s transfer-queue endpoints (§5.2) and its half-done
      named-root publishes;
    + scan [i]'s RootRef pages — the content in and only in those pages —
      releasing every reference the dead client possessed, with the §5.1
      free-pointer guard against blocks whose allocation never completed;
    + orphan or release [i]'s segments and free the client slot.

    Every release above goes through {!Reclaim.release_as} under [i]'s
    identity, and the last-holder rule ({!Refc}) makes teardown need no
    memory of its own: a block's count reaches zero only after its
    embedded slots are null. So a teardown [i] left half done is still
    reachable from the reference [i] held — its RootRef, journal entry or
    directory slot — and recovery's release of that reference finishes it,
    depth-first on the recovery service's own stack. Recovery never
    frees: each block it takes to zero stays count-zero in its
    POTENTIAL_LEAKING segment for the segment phase and the §5.3 scan,
    because reclamation is never redone.

    A {!Layout.recovery_lock} serialises recoveries; a fresh recovery first
    finishes any interrupted one it finds under the lock. *)

type report = {
  resumed_txn : bool;  (** an in-flight transaction was resumed *)
  rootrefs_released : int;
  incomplete_allocs : int;  (** §5.1 free-pointer-guard skips *)
  worklist_processed : int;
      (** objects recovery took to zero, children included; the name is
          that of the teardown worklist this counted before, kept for the
          serving benchmark, which reads it *)
  segments_orphaned : int;
  segments_released : int;
  leak_marked : int;
  journal_replayed : int;
      (** unfinished retirement-journal entries: those whose rootref
          still named an object *)
  parked_journaled : int;
      (** records left in orphaned limbo rows, awaiting a successor's
          adoption or the leak-scan drain *)
}

val pp_report : Format.formatter -> report -> unit

val recover : Ctx.t -> failed_cid:int -> report
(** Run full recovery of [failed_cid] using [ctx] (any live context — the
    service borrows its stats attribution only; all persistent effects run
    under the dead client's identity). The client must be in [Failed]
    state or already mid-recovery. *)

val resume_interrupted : Ctx.t -> report option
(** If a previous recovery crashed while holding the lock, finish it. *)

(** {1 Test hooks} *)

val mutation_skip_swap_redo : bool ref
(** {b Test-only}; must stay [false] outside the explorer. Recovery
    ignores [Swap] redo records, so a writer killed between a swap's two
    stores leaves the reference word on the old object ([kv-swap-skip-redo]). *)
