(** RootRef blocks (§5.1, Fig 2).

    Every [cxl_malloc] implicitly allocates a RootRef in a dedicated size
    class so that, after a failure, recovery can find every reference the
    dead client possessed by scanning those pages and only those pages.
    A RootRef is two words:

    - word 0 — [in_use] bit plus the *local* reference count (how many
      CXLRef handles of the owning thread alias this RootRef). Local counts
      are maintained with plain load/store — no atomics, no flush (§5.2
      "two-tiered reference count").
    - word 1 — process-independent pointer to the CXLObj, or the free-list
      next pointer while the block is free. *)

val in_use : Ctx.t -> Cxlshm_shmem.Pptr.t -> bool

val in_use_of_word : int -> bool
(** The [in_use] bit of a state word read by the caller. *)

val local_cnt : Ctx.t -> Cxlshm_shmem.Pptr.t -> int
val set_state : Ctx.t -> Cxlshm_shmem.Pptr.t -> in_use:bool -> cnt:int -> unit
val set_local_cnt : Ctx.t -> Cxlshm_shmem.Pptr.t -> int -> unit

val pptr_slot : Cxlshm_shmem.Pptr.t -> Cxlshm_shmem.Pptr.t
(** Address of word 1 — the ModifyRef target of RootRef link/unlink
    transactions. *)

val obj : Ctx.t -> Cxlshm_shmem.Pptr.t -> Cxlshm_shmem.Pptr.t
(** The CXLObj this RootRef points to ([Pptr.null] if unlinked). *)

(** Simulator-side unattributed reads for validators. *)
val peek_in_use : Cxlshm_shmem.Mem.t -> Cxlshm_shmem.Pptr.t -> bool
val peek_obj : Cxlshm_shmem.Mem.t -> Cxlshm_shmem.Pptr.t -> Cxlshm_shmem.Pptr.t

val well_formed : int -> bool
(** Does the state word carry only the [in_use] and local-count fields?
    Stray bits mean a torn store landed (fsck clears such RootRefs). *)
