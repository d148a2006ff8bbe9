(** The §4.2 straw-man: lock-based reference-count maintenance.

    This is the second straw-man the paper dismantles — the design
    Lightning actually uses: each object's count is protected by a
    (striped) spinlock; a redo log with the {e absolute} new count makes
    the operation idempotent, so recovery can safely replay it. The catch,
    and the reason CXL-SHM exists: a client that dies while holding a lock
    {b blocks every other client} hashing to that stripe until the recovery
    service notices the failure and releases the lock.

    The stripe table is one CXL object the straw-man allocates itself.
    Each stripe carries its own log record next to its lock word: only the
    stripe's holder writes it, so no per-client record is needed. The
    counts live in the same object headers as {!Cxlshm.Refc}'s, so the two
    schemes can be benchmarked against each other (the [ablation-locking]
    experiment) and the blocking behaviour demonstrated live. Do not mix
    the two schemes on the same object concurrently. *)

open Cxlshm

type t
(** One client's handle on a stripe table. *)

val create : Ctx.t -> t
(** Allocate a stripe table, every stripe unlocked. *)

val share : t -> Ctx.t -> t
(** Another client's handle on the same table (its own counted
    reference). *)

val close : t -> unit
(** Drop this handle's reference to the table. *)

val attach :
  t -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> unit
(** Lock, log the absolute new count, increment, link, unlock. Spins while
    the stripe is held — {e including by a dead client}. *)

val detach :
  t -> ref_addr:Cxlshm_shmem.Pptr.t -> refed:Cxlshm_shmem.Pptr.t -> int

val attach_bounded :
  t ->
  ref_addr:Cxlshm_shmem.Pptr.t ->
  refed:Cxlshm_shmem.Pptr.t ->
  spins:int ->
  bool
(** Like {!attach} but gives up after [spins] failed acquisitions —
    benchmarks use it to measure how long a dead client's lock stalls the
    caller. Returns [false] on timeout. *)

val holder : t -> Cxlshm_shmem.Pptr.t -> int option
(** Current holder of the stripe guarding [obj]. *)

val recover : t -> failed_cid:int -> int
(** The blocking design's recovery: for every stripe held by the dead
    client, replay its logged operation if the record is valid
    (idempotent thanks to the absolute count) and release the lock.
    Returns the number of stripes released. Until this runs, spinners
    wait — exactly the indefinite blocking the paper's §4.2 describes. *)
