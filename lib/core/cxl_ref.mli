(** CXLRef — the local smart-pointer handle (§3.1, Fig 2).

    A CXLRef lives in the client's local (OCaml-heap) memory and points to a
    RootRef in the shared pool, which in turn points to the CXLObj. Cloning
    within the same thread only bumps the RootRef's local count — plain
    stores, no atomics, no flush (the cheap tier of the two-tiered count).
    CXLRef is deliberately {e not} thread safe: crossing a thread, process
    or machine boundary requires the explicit {!Transfer} queue protocol. *)

type t

val of_rootref : Ctx.t -> Cxlshm_shmem.Pptr.t -> t
(** Wrap an in-use RootRef already holding one local count for the caller. *)

val ctx : t -> Ctx.t
val rootref : t -> Cxlshm_shmem.Pptr.t

val obj : t -> Cxlshm_shmem.Pptr.t
(** The CXLObj behind this reference. Raises [Invalid_argument] on a
    dropped handle. *)

val clone : t -> t
(** Same-thread reference copy (RootRef local count +1). *)

val drop : t -> unit
(** Release this handle. At local count zero the RootRef is unlinked from
    the object via an era transaction and the object freed if that was its
    last reference. Dropping twice raises. *)

val is_live : t -> bool

(** {1 Data access}

    [get_addr]-style direct access (§3.1 step 5/6): offsets are in words
    relative to the object's data area. Embedded-reference slots occupy the
    first [emb_cnt] data words — the word accessors refuse to touch them;
    use {!set_emb}/{!get_emb}/{!change_emb}.

    Every accessor resolves the handle once — one RootRef read and one meta
    read, plus the head page's true-length slot for a huge object whose
    meta saturated — then checks bounds against, and addresses through,
    that one resolution: {!read_word} costs exactly three shared
    accesses. *)

val data_addr : t -> Cxlshm_shmem.Pptr.t
val data_words : t -> int
val emb_cnt : t -> int
val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
val cas_word : t -> int -> expected:int -> desired:int -> bool
val write_bytes : t -> bytes -> unit
(** Store a byte payload immediately after the embedded-ref slots. *)

val read_bytes : t -> len:int -> bytes

(** {1 Embedded references (§5.4)} *)

val get_emb : t -> int -> Cxlshm_shmem.Pptr.t
val set_emb : t -> int -> t -> unit
(** Link embedded slot [i] to the target handle's object (era transaction).
    The slot must currently be null; the caller must be the object's single
    writer. *)

val clear_emb : t -> int -> unit
(** Unlink slot [i] (era transaction); releases the child if that was its
    last reference. No-op on an already-null slot. *)

val change_emb : t -> int -> t -> unit
(** §5.4 atomic re-pointing of slot [i] to the target handle's object:
    one {!Refc.swap} through a transient RootRef, whose release drops the
    old target's count. *)
