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

val into_rootref : t -> Cxlshm_shmem.Pptr.t
(** Consume an unshared handle: the caller takes over its RootRef, local
    count 1, and the handle is dead ({!Transfer.lend} moves the count into
    a ring slot). Raises [Invalid_argument] if a clone shares the RootRef
    (local count above 1). *)

(** {1 Data access}

    [get_addr]-style direct access (§3.1 step 5/6): offsets are in words
    relative to the object's data area. Embedded-reference slots occupy the
    first [emb_cnt] data words — the word accessors refuse to touch them;
    use {!set_emb}/{!get_emb}/{!change_emb}.

    Every accessor resolves the handle, then checks bounds against, and
    addresses through, the object it names. The handle remembers the block
    it last resolved: that object, its [emb_cnt] and its true length (the
    head page's [page_aux2] slot for a huge object whose meta saturated),
    stamped with the context's era-advance count ([Ctx.eras]). While the
    handle is live and the count has not moved, the memo stands in for the
    RootRef word and the meta, so a warm {!read_word}, {!write_word},
    {!get_emb} or byte access costs one shared access, and a per-word loop
    is one sequential run. After an era transaction of this context the
    next access re-reads the RootRef word (two accesses); the first access,
    and the first after the RootRef was re-pointed, reads the meta too.

    The memo is sound because, while a client lives, only its own context
    writes its RootRef pointer words: at allocation, before any handle on
    them exists, and inside its own era transactions, each of which ends in
    an era advance ({!Refc.swap}, the one re-point of a linked RootRef,
    included). Recovery writes only a dead client's RootRefs, and a
    condemned client's handles are void. A live block's meta is immutable
    while its RootRef holds it, and nothing moves a block under its
    holders. {!of_rootref} leaves the memo empty, so a handle that is only
    parked or re-pointed never pays the meta load. *)

val data_addr : t -> Cxlshm_shmem.Pptr.t
val data_words : t -> int
val emb_cnt : t -> int
val read_word : t -> int -> int
val write_word : t -> int -> int -> unit
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

val mutation_stale_memo : bool ref
(** Test-only: the memo ignores the era-advance counter, so a handle keeps
    addressing the object it first resolved after its RootRef was
    re-pointed (the stale-memo mutation). *)
