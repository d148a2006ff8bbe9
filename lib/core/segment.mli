(** Segment allocation vector operations (Fig 3).

    Segments are claimed with a single CAS on the "occupied client id" word,
    so claiming needs no lock. The [version] word increments on every
    ownership change, and the cross-client free list ([client_free]) is a
    Treiber stack whose head word packs a {i tag} next to the pointer so the
    stack is ABA-safe. *)

type state =
  | Free
  | Active
  | Orphaned  (** owner died; adoptable; may still hold live blocks *)
  | Leaking   (** POTENTIAL_LEAKING (§5.3): recycle only via full scan *)
  | Huge_head
  | Huge_cont

val state_to_int : state -> int
(** The segment state word's encoding. *)

val state_of_word : int -> state option
(** Decode a state word the caller read itself; [None] for a value that
    encodes no state. *)

val owner : Ctx.t -> int -> int option
(** Occupying client id of segment [s], if any. *)

val state : Ctx.t -> int -> state
val set_state : Ctx.t -> int -> state -> unit
val version : Ctx.t -> int -> int

val claim : Ctx.t -> int -> bool
(** CAS segment [s] from free to owned-by-this-client; on success the
    segment is [Active] and its version is bumped. *)

val adopt : Ctx.t -> int -> bool
(** CAS an [Orphaned] segment to this client; marks its page sets cold. *)

val release : Ctx.t -> int -> unit
(** Give the segment back to the arena ([Free], unowned, version++). The
    caller must guarantee no live blocks remain. *)

val orphan : Ctx.t -> cid:int -> int -> unit
(** Recovery: mark a dead client's segment adoptable. A [Leaking] segment
    stays [Leaking]: it is recycled only by the §5.3 scan, or kept by a
    client that rejoins the same slot. *)

val mark_leaking : Ctx.t -> int -> unit
(** Idempotent POTENTIAL_LEAKING marking. Sets [Huge_head] segments to
    [Leaking] as well: {!Heap.classify} still tells them apart by page 0's
    kind. *)

val owned_by : Ctx.t -> cid:int -> int list
(** All segments currently occupied by [cid], ascending. Off the cache
    mirror it is one upward stream over the segment table; keep it so. *)

(** {1 Cross-client free stack}

    Blocks freed by a non-owner are pushed here (mimalloc's thread-delayed
    free); the owner drains the stack in its slow path. *)

val push_client_free :
  Ctx.t -> seg:int -> rootref:bool -> Cxlshm_shmem.Pptr.t -> unit
(** [rootref] says whether the block is a RootRef; it decides which word
    holds the stack link. *)

val pop_all_client_free : Ctx.t -> seg:int -> Cxlshm_shmem.Pptr.t list
