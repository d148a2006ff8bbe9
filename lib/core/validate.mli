(** Whole-arena invariant checker (the §6.2.2 post-crash oracle).

    Walks the quiesced arena and cross-checks three independent sources of
    truth: reference holders (in-use RootRefs, embedded slots of live
    objects, queue-directory entries), object headers (reference counts),
    and the free structures (page free chains, segment cross-client
    stacks). It reports:

    - {b wild pointers}: a held reference that does not point at the base
      of a block in an initialised page or at a huge object
      ({!Heap.block_base_ok});
    - {b double frees}: a block present twice in free structures, or both
      free and live;
    - {b count mismatches}: header count ≠ number of holders (a
      count-zero block awaiting a scan included: nothing may still name
      it), a huge object's true-length word out of line with its meta
      ({!Heap.huge_length_ok}), or a limbo row out of line;
    - {b leaks}: a count-zero block that is in no free structure and whose
      segment is not awaiting the POTENTIAL_LEAKING / orphan scan;
    - {b pending}: count-zero off-list blocks that {e are} covered by a
      pending scan and that no holder names (allowed by design, §5.3).

    It enumerates the arena through {!Heap} and {!Root_set} — the segment
    classifier, the block iterators and the root set that {!Fsck} and
    {!Cycle_gc} walk too — so a reference is wild here exactly when those
    would refuse it (a huge continuation's first word included).

    Run only on a quiesced arena (no in-flight operations). Use it before
    {!Fsck.repair} to decide whether repair is needed. *)

type t = {
  live_objects : int;  (** live CXLObjs (count > 0) *)
  live_rootrefs : int;  (** in-use RootRef blocks *)
  free_blocks : int;
  pending_scan : int;
  leaks : int;
  double_frees : int;
  wild_pointers : int;
  count_mismatches : int;
  errors : string list;  (** human-readable detail for every failure *)
}

val run : Cxlshm_shmem.Mem.t -> Layout.t -> t
val is_clean : t -> bool
val pp : Format.formatter -> t -> unit
