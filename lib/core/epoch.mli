(** Epoch-batched retirement journal.

    With [Config.epoch_batch] = K > 0, rootref releases whose local count
    hits zero park in the context's volatile buffer instead of paying a
    fence + flush each. The release that fills the buffer seals it into the
    client's persistent retirement journal (one fence, the count word as
    commit point, one flush) so recovery can finish a partially-processed
    batch; each later release retires one sealed entry, and the one that
    retires the last entry clears and flushes the journal. One fence and
    two journal-line flushes per K retirements, and no single release pays
    for more than one entry's teardown. See {!Layout.retire_count} for the
    journal layout and [Recovery.recover_journal] for the replay. *)

val enqueue : Ctx.t -> Cxlshm_shmem.Pptr.t -> unit
(** Park a zero-count rootref in the volatile buffer. The rootref must
    still be linked and [in_use] in shared memory. Caller follows with
    {!step}, which keeps the buffer from overflowing. *)

val step : Ctx.t -> retire_one:(Cxlshm_shmem.Pptr.t -> unit) -> unit
(** One release's share of retirement, run after each {!enqueue}: retire
    the next sealed entry with [retire_one] if a batch is in flight
    (finishing it — write-back queue drained, journal cleared and flushed —
    when that was its last entry), then seal the buffer if it is full.
    Between the two it frees one rootref of the last finished batch
    (possibly the one it just finished): a retired entry's rootref stays
    allocated until its batch's journal is cleared, so no allocation can
    re-use a rootref a sealed slot still names. [retire_one] must fully retire the entry — detach the object,
    leaving the rootref's pointer null (the per-entry completion marker
    recovery relies on), reclaim the block on zero — and must not free
    the rootref. *)

val flush_retired : Ctx.t -> retire_one:(Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Retire everything now: finish the sealed batch's remainder, then seal
    the buffered rootrefs (slots + era, one fence, count word as commit
    point, journal line flushed) and retire them all the same way, then
    free every retired rootref. With nothing sealed or buffered, just
    drains write-backs and frees what the last batch left. *)

val read_journal : Ctx.t -> cid:int -> Cxlshm_shmem.Pptr.t array option
(** The sealed batch of client [cid] in slot (retirement) order, or
    [None] when no batch is in flight (count 0 or out of range — a torn
    seal never presents as a valid batch because the count store is
    ordered after the slot stores by the seal fence). *)

val clear_journal : Ctx.t -> cid:int -> unit
(** Durably clear client [cid]'s journal (store 0 + flush). *)
