(** Reference release and memory reclamation (§5.3).

    Releasing the last reference to an object must also reclaim its block —
    but pushing a block onto a free list is not idempotent, so it can never
    be redone by recovery. The paths here are ordered so that every crash
    window is covered either by transaction resume or by the
    POTENTIAL_LEAKING segment marking plus the asynchronous segment-local
    full scan. Only the last holder tears down (the last-holder rule,
    {!Refc}): it detaches the embedded children {e before} the final
    detach, so a crash mid-teardown leaves the parent alive and
    recoverable, and no path has to remember a half-torn-down block. It
    marks the segment POTENTIAL_LEAKING before that final detach, so a
    crash before the free leaves the block to the scan. *)

val release_obj : Ctx.t -> ref_addr:Cxlshm_shmem.Pptr.t -> obj:Cxlshm_shmem.Pptr.t -> unit
(** Detach [ref_addr] from [obj]; if that was the last reference, first
    tear down its embedded references recursively, then reclaim the
    block. *)

val release_rootref : Ctx.t -> Cxlshm_shmem.Pptr.t -> unit
(** Drop one local count from a RootRef; at zero, unlink it from its object
    (era transaction), release the object if that was the last reference,
    and return the RootRef block to its page. With epoch batching on
    ({!Ctx.epoch_enabled}), the zero-count rootref parks in the volatile
    retirement buffer instead, and the release pays one step of paced
    retirement ({!Epoch.step}): one sealed entry retired, or the seal of
    a full buffer. *)

val flush_retired : Ctx.t -> unit
(** Retire every parked and sealed rootref now ({!Epoch.flush_retired}):
    the sealed batch's remainder first, then the
    buffer, sealed behind one fence and two journal flushes. Call at era
    boundaries and before detach/unregister. No-op (bar draining deferred
    write-backs) when nothing is parked. *)

val release_as :
  Ctx.t -> as_cid:int -> reclaim:(Cxlshm_shmem.Pptr.t -> unit) ->
  ref_addr:Cxlshm_shmem.Pptr.t -> obj:Cxlshm_shmem.Pptr.t -> unit
(** The one release path, under [as_cid]'s identity; [reclaim] gets each
    block it takes to zero, children included. {!release_obj} frees them
    ({!Alloc.free_obj_block}). The recovery service only counts them: a
    free cannot be redone, so they stay count-zero in their leak-marked
    segments for the §5.3 scan. *)

val mark_leaking_of : Ctx.t -> Cxlshm_shmem.Pptr.t -> unit
(** Mark the segment containing [obj] POTENTIAL_LEAKING (idempotent). *)

val segment_all_zero : Ctx.t -> int -> bool
(** No live block and no in-use RootRef anywhere in the segment (block
    positions are computable, §5.3): it can be reset and released. Stops
    at the first page that fails. Used by {!scan_segment}, recovery and the
    RPC channel-revocation path. *)

val segment_unused : Ctx.t -> int -> bool
(** Every page is unused or has [used = 0]: every carved block is back on
    a free list, so a departing owner can release the segment. *)

val recycle_plain_segment : Ctx.t -> int -> unit
(** Reset every page of a non-huge segment, then release it. The caller
    has established that nothing in it is live. *)

val scan_segment : Ctx.t -> int -> bool
(** §5.3 asynchronous segment-local full scan: if every block of the
    segment has reference count zero (computed positions — pages are carved
    into fixed-size blocks), recycle the whole segment; a huge head's one
    header decides its whole run. The segment is classified through
    {!Alloc.seg_class}; a continuation is never scanned on its own.
    Returns [true] when the
    segment was recycled. Only meaningful for [Leaking] or [Orphaned]
    segments without a live owner. *)

val scan_all : Ctx.t -> is_client_alive:(int -> bool) -> int
(** Run {!scan_segment} over every recyclable segment; returns the number
    recycled. *)
