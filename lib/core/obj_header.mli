(** CXLObj header packing (Fig 4 (b)).

    Each allocated object starts with two words:

    - word 0 — the CAS word: last client id ([lcid]), era of the last
      refcount transaction ([lera]) and the reference count ([ref_cnt]),
      packed so the whole triple updates with a single compare-and-swap.
      This is the commit point of every refcount maintenance transaction.
    - word 1 — static metadata: page kind (size class) and the number of
      embedded references ([emb_cnt], §5.4), which recovery uses to DFS into
      an object that must be torn down.

    [lcid] is stored as cid+1 so that the all-zero word of a never-touched
    block reads as "no last client, era 0, count 0". *)

type t = { lcid : int option; lera : int; ref_cnt : int }

val zero : t
val pack : t -> int
val unpack : int -> t

val max_clients_representable : int

val make : lcid:int -> lera:int -> ref_cnt:int -> int
(** Pack directly from fields; [lcid] is a real client id (not +1). *)

val ref_cnt_of : int -> int
val lera_of : int -> int
val lcid_of : int -> int option

(** {1 Meta word (word 1)} *)

val pack_meta : kind:int -> emb_cnt:int -> data_words:int -> int
val meta_kind : int -> int
val meta_emb_cnt : int -> int
val meta_data_words : int -> int

val max_meta_data_words : int
(** Largest value the meta word's [data_words] field can hold. A huge
    object bigger than this saturates the field and records its true word
    count in the head page's [page_aux2] slot — readers must go through
    {!Alloc.data_words}, not trust a saturated field. *)

(** {1 Addressing} *)

val header_of_obj : Cxlshm_shmem.Pptr.t -> Cxlshm_shmem.Pptr.t
val meta_of_obj : Cxlshm_shmem.Pptr.t -> Cxlshm_shmem.Pptr.t
val data_of_obj : Cxlshm_shmem.Pptr.t -> Cxlshm_shmem.Pptr.t
val emb_slot : Cxlshm_shmem.Pptr.t -> int -> Cxlshm_shmem.Pptr.t
(** Address of the [i]-th embedded reference (first words of the data area). *)
