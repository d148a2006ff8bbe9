(** Per-client redo-log record (Fig 3, Fig 4 (c) line 8).

    Each client owns one fixed redo record in its ClientLocalState. Before
    attempting the commit CAS of a refcount transaction, the client records
    the operation, its current era, the reference address, the target
    object(s) and the reference count it read. Recovery of a failed client
    reads this record to find the "last object" ([lo]) and decide via
    Conditions 1 & 2 whether the commit happened; if it did, the idempotent
    ModifyRef tail is re-executed.

    The record is never cleared on success — like the paper's algorithm, the
    era advance makes stale records provably non-redoable. *)

type op =
  | Attach  (** increment + link (Fig 4 (c)) *)
  | Detach  (** decrement + unlink (§5.3) *)
  | Change  (** §5.4 two-phase pointer change *)
  | Locked
      (** §4.2 straw-man record: [era] holds the lock stripe, [saved_cnt]
          the {e absolute} new count, [refed2] 1 for attach / 0 for detach.
          Resumed by {!Locked_refc.recover}, ignored by {!Recovery}. *)
  | Swap
      (** count-neutral swap ({!Refc.swap}): [ref_addr] is the reference
          word, [refed] the object it held ([from_obj]), [refed2] the
          RootRef that takes it over, and [saved_cnt] {e the object the
          RootRef held} ([to_obj], null for a plain move), which
          [ref_addr] receives. No CAS — the record plus the RootRef link
          decide redo. *)

type t = {
  op : op;
  era : int;  (** era of the (first) ModifyRefCnt *)
  ref_addr : Cxlshm_shmem.Pptr.t;  (** the reference word ModifyRef targets *)
  refed : Cxlshm_shmem.Pptr.t;  (** object A *)
  refed2 : Cxlshm_shmem.Pptr.t;  (** object B (change only, else null) *)
  saved_cnt : int;  (** A's ref_cnt read before the CAS *)
}

val record : Ctx.t -> t -> unit
(** Write the record into the client's shared redo area (fields first, then
    the valid word, fenced). *)

val record_for : Ctx.t -> cid:int -> t -> unit
(** Recovery helper: write into a *dead* client's redo area while finishing
    its instruction stream. *)

val read : Ctx.t -> cid:int -> t option
(** Read client [cid]'s record; [None] if no valid record was ever written. *)

val clear_for : Ctx.t -> cid:int -> unit
(** Invalidate a dead client's record once its recovery fully completes, so
    a second recovery pass does not resume an already-finished transaction. *)
