(** Ordered map: a sorted linked list of shared records (§2.2.2).

    The second dynamic data structure the paper's RDSM pitch enables —
    "the capability of atomically modifying link pointers embedded in
    shared objects". Nodes are CXLObjs whose single embedded reference is
    the [next] pointer; every link change is one {!Cxlshm.Refc.swap}, so
    every intermediate state a latch-free reader can observe is a
    consistent list. Single writer, any number of readers; ordered
    iteration and range queries come for free.

    Like CXL-KV, every reader walk holds hazard protection, and a node the
    writer unlinks is parked in the {!Cxlshm.Limbo} until every announced
    reader era has passed it, so a reader paused on it never steps on
    recycled memory. The writer's own walks ({!insert}, {!replace},
    {!delete}) run unannounced: its releases free only nodes it unlinked
    in earlier operations, which a later walk cannot reach. *)

type t

val create : Cxlshm.Ctx.t -> value_words:int -> t
(** Allocate the list head (a sentinel). The creator's handle owns a
    counted reference; {!attach} shares it. *)

val handle_ref : t -> Cxlshm.Cxl_ref.t
(** The sentinel's reference — share it (queues / named roots) and
    {!attach} on the other side. *)

val attach : Cxlshm.Ctx.t -> Cxlshm.Cxl_ref.t -> t
(** Wrap a received sentinel reference as a (reader or writer) handle. *)

val close : t -> unit
(** Drop the parked nodes (quiesced use only) and the sentinel reference. *)

val insert : t -> key:int -> value:int -> bool
(** [false] if the key already exists (use {!replace}). Writer only. *)

val replace : t -> key:int -> value:int -> unit
(** Insert or atomically replace: a fresh node is swapped into the
    predecessor's next and the old one parked. Writer only. Raises
    {!Cxlshm.Limbo.Exhausted}, with the list unchanged, when no limbo
    entry is left. *)

val delete : t -> key:int -> bool
(** Unlink and park the key's node; [false] if absent. Writer only;
    raises {!Cxlshm.Limbo.Exhausted} like {!replace}. *)

val find : t -> key:int -> int option
val min_binding : t -> (int * int) option
val iter : t -> (key:int -> value:int -> unit) -> unit
val range : t -> lo:int -> hi:int -> (int * int) list
(** Bindings with [lo <= key < hi], ascending. *)

val length : t -> int

val quiesce : t -> unit
(** Release the parked nodes every announced reader era has passed. *)

(** {1 Test hooks} *)

val walk_hook : (unit -> unit) ref
(** {b Test-only.} Called once per node any walk visits, before its key
    is read. Must stay a no-op outside tests. *)
