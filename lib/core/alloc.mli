(** Allocation paths of CXL-SHM (§5.1).

    The fast path preserves mimalloc's no-cross-thread-synchronisation
    property: a client allocates from pages of segments it owns exclusively,
    so only plain loads/stores plus one fence and one flush are needed. The
    four §5.1 steps run in a strict order so every crash window is
    recoverable:

    + allocate a RootRef from a dedicated RootRef page, set [in_use];
    + link: write the data block's address into the RootRef (plus the CLWB
      of the RootRef cache line), then a fence;
    + advance the page's free pointer;
    + initialise the CXLObj header (ref_cnt = 1) — no CAS needed, the block
      is invisible to other clients until its reference is shared.

    The slow path claims pages and segments (CAS on the segment vector) and
    drains cross-client free stacks. Objects too large for any size class
    take the huge path: a run of contiguous segments claimed with
    retry-and-rollback. *)

exception Out_of_shared_memory

val data_words_for : Config.t -> size_bytes:int -> emb_cnt:int -> int
(** Payload words for an object with [emb_cnt] embedded reference slots
    followed by [size_bytes] of byte data. *)

val alloc_obj :
  Ctx.t -> data_words:int -> emb_cnt:int -> Cxlshm_shmem.Pptr.t * Cxlshm_shmem.Pptr.t
(** [(rootref, obj)] — a fresh CXLObj with ref_cnt 1, linked from a fresh
    in-use RootRef with local count 1. Raises {!Out_of_shared_memory}. *)

val alloc_rootref : Ctx.t -> Cxlshm_shmem.Pptr.t
(** A fresh unlinked RootRef (in_use, local count 1, null pptr) — used by
    the receive path (§5.2), which links it with an era transaction. Every
    allocation starts here, so this is where the arena's service context
    ({!Ctx.service}) is refused with [Invalid_argument]. *)

val free_rootref : Ctx.t -> Cxlshm_shmem.Pptr.t -> unit
(** Return a RootRef block to its page (owner or cross-client). *)

val free_obj_block : Ctx.t -> Cxlshm_shmem.Pptr.t -> unit
(** Reclaim a data block whose ref_cnt reached zero: zero its header and
    push it to the page free list (owner) or the segment's cross-client
    stack. Huge objects release their segment run instead. *)

val release_cont : Ctx.t -> int -> unit
(** Release a huge run's continuation segment, first resetting its pages:
    their metadata words were payload. *)

val collect_deferred : Ctx.t -> unit
(** Drain the cross-client free stacks of this client's segments back into
    their pages (slow-path housekeeping). *)

val seg_class : Ctx.t -> int -> Segment.state -> Heap.seg_class
(** {!Heap.of_state} on a segment state the caller already read, with page
    0's kind read through the page-metadata mirror. *)

val data_words : Ctx.t -> Cxlshm_shmem.Pptr.t -> meta:int -> int
(** True payload word count of an object whose meta word the caller already
    read as [meta]. That is the packed field, unless it saturated at
    {!Obj_header.max_meta_data_words} on a huge object: then the head page's
    [page_aux2] slot holds the true count (falling back to the field for
    pre-[page_aux2] images). *)

val segment_device : Ctx.t -> int -> int
(** Pool device serving a segment (the device of its base word) — the
    segment→device map SegmentAllocationVec claims use to prefer the
    client's home device before spilling. *)
