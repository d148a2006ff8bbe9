(** One limbo for era-gated frees (§5.4).

    An object a latch-free reader may still hold is parked behind a counted
    reference — a rootref — stamped with the retire epoch of its unlink,
    and released only once every announced reader era has passed the
    stamp ({!Hazard.min_announced}). The pool ({!Layout.limbo_owner}) is
    cut into constant-size rows: one owner word and entries of
    [{stamp, rr}] that only the row's owner writes, so parking costs plain
    stores and one fence, with no CAS while the owner has room.

    Reclamation is amortised over the parks: every
    {!Layout.limbo_row_entries}-th park of a handle also releases up to
    twice that many of its oldest passed entries, so a writer's limbo
    stays short without any one call freeing a backlog. {!quiesce} frees
    everything passed through the same path.

    Recovery flips a dead client's rows to orphaned in place
    ({!orphan_rows}); a successor in any slot adopts a whole row with one
    CAS, stamps intact ({!adopt}); the leak scan drains rows nobody adopts
    once no announced era pins them ({!drain}). Nothing parked is ever
    freed era-blind. Several handles may share a client. *)

exception Exhausted
(** The whole pool is full; raised by {!reserve} before the caller has
    allocated or unlinked anything. *)

type t

val create : Ctx.t -> t
(** An empty handle; it claims rows as it parks. *)

val reserve : t -> int -> unit
(** Make room for [n] more parks: claim free rows up to the client's
    share ([Config.park_slots]); beyond it, first release up to
    [2 * Layout.limbo_row_entries] of the oldest passed entries, as a
    row-filling {!park} does, and claim only what that could not free.
    Raises {!Exhausted} when no free row is left. *)

val park : t -> Cxl_ref.t -> unlink:(unit -> unit) -> unit
(** Park a counted reference on the object [unlink] makes unreachable: a
    pending stamp is written and fenced, the rr word commits the entry,
    [unlink] runs, then the entry is stamped with the current epoch
    ({!Hazard.retire_epoch}, a load, not an advance).
    The reference is held across the unlink, so the object never drops to
    count zero under a reader. A crash before the stamp leaves a pending
    entry that pins until its adopter re-stamps it. Pass [~unlink:ignore]
    for an object already unreachable.

    Every {!Layout.limbo_row_entries}-th park of the handle then reads
    {!Hazard.min_announced} once and releases up to
    [2 * Layout.limbo_row_entries] of the oldest entries all announced
    eras have passed, exactly as {!quiesce} would. Every release that
    keeps an entry an announcement pins advances the epoch once
    ({!Hazard.advance}), so a reader that announces later does not pin
    it. *)

val quiesce : t -> unit
(** Release every parked reference whose stamp all announced eras have
    passed, not only the bounded share {!park} releases; rows beyond the
    client's share go back once empty. *)

val count : t -> int
(** References this handle has parked. *)

val hand_off : t -> (Cxl_ref.t list -> int) -> int
(** [hand_off t send] gives [send] the parked references, oldest first;
    [send] returns how many (a prefix) it now holds references to. Those
    leave the limbo, the rest keep their entries and stamps. Returns that
    count. *)

val close : t -> unit
(** Drop every parked reference regardless of eras (quiesced use only)
    and return the handle's rows to the pool. *)

val adopt : t -> int
(** Claim every orphaned row with one CAS each and take over its entries,
    stamps intact. A successor that dies after a claim owns the row, and
    its own recovery orphans it again. Returns the records adopted. *)

(** {1 Arena side} *)

val orphan_rows : Ctx.t -> cid:int -> int
(** Recovery of dead client [cid]: drop entries whose rootref parks
    nothing (the rootref scan frees those rootrefs), free its empty rows,
    orphan the rest in place. Idempotent. Returns the records left in
    orphaned rows. *)

val holders : Ctx.t -> (Cxlshm_shmem.Pptr.t, unit) Hashtbl.t
(** Every rootref a row names: live holders the rootref scan of a dead
    client must not release. *)

val drain : Ctx.t -> int
(** The leak scan's step: when an orphaned entry is past every announced
    era, a short-lived client joins, adopts the orphaned rows, releases
    what no era pins, orphans the rest again and leaves. When an
    announcement pins every orphaned entry, the context advances the
    epoch once and otherwise only reads. Returns the records released. *)

val peek_entries :
  Cxlshm_shmem.Mem.t -> Layout.t -> owner:int -> (Cxlshm_shmem.Pptr.t * int) list
(** [(rr, stamp)] of the entries in rows whose owner word is [owner],
    read without charging a client (drills and tests). *)

(** {1 Test hooks} — each must stay [false] outside the explorer. *)

val mutation_unconditional_quiesce : bool ref
(** {!quiesce} and the bounded release in {!park} ignore announced eras
    ([kv-quiesce]). *)

val mutation_crash_reap : bool ref
(** {!orphan_rows} frees a dead client's parked records on sight
    ([kv-crash-reap]). *)

val mutation_volatile_park : bool ref
(** {!park} keeps entries volatile-only, so a dead writer's parked records
    go to the rootref scan instead of an orphaned row ([volatile-park]). *)

val mutation_no_advance : bool ref
(** Releases and {!drain} never advance the epoch, so a reader that
    re-announces around every park pins every entry (test-only). *)
