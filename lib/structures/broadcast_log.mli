(** Single-writer broadcast log: one publisher, any number of independent
    subscribers (§2.2's shared-everything reading, in log form).

    A bounded ring of embedded references published by one writer. Each
    subscriber keeps only a private cursor; catching up is pure reads of
    the shared pool — no per-subscriber queues, no copies, no coordination
    between subscribers. A slow subscriber that falls more than
    [capacity] entries behind observes [`Lagged] and resumes from the
    oldest retained entry (the usual bounded-log contract).

    The writer retires overwritten entries through the era transactions,
    so subscribers holding references to old entries keep them alive —
    the log overwrites its *slots*, never the objects readers still see.
    An overwritten entry waits in the {!Cxlshm.Limbo} until no announced
    subscriber era can still attach it, across a writer crash too. *)

type writer
type cursor

val create : Cxlshm.Ctx.t -> capacity:int -> writer
val log_ref : writer -> Cxlshm.Cxl_ref.t
(** Share this to let subscribers {!subscribe}. *)

val publish : writer -> Cxlshm.Cxl_ref.t -> int
(** Append the handle's object; returns its sequence number. The publisher
    keeps its own handle (drop separately). Raises
    {!Cxlshm.Limbo.Exhausted}, with the log unchanged, when no limbo entry
    is left to park the overwritten entry in. *)

val close_writer : writer -> unit
(** Drop the parked entries (quiesced use only) and the log reference. *)

val subscribe : Cxlshm.Ctx.t -> Cxlshm.Cxl_ref.t -> cursor
(** Start from the oldest retained entry. *)

val poll : cursor -> [ `Entry of int * Cxlshm.Cxl_ref.t | `Empty | `Lagged of int ]
(** Next entry (sequence number + caller-owned reference); [`Lagged n]
    reports [n] skipped entries after the cursor fell off the ring. *)

val close_cursor : cursor -> unit

val attach_hook : (unit -> unit) ref
(** {b Test-only.} Called by {!poll} between its slot read and its
    [try_attach] (an explorer yield point); a no-op otherwise. *)
