(** Whole-arena invariant checker (the §6.2.2 post-crash oracle).

    Walks the quiesced arena and cross-checks three independent sources of
    truth: reference holders (in-use RootRefs, embedded slots of live
    objects, queue-directory entries), object headers (reference counts),
    and the free structures (page free chains, segment cross-client
    stacks). It reports:

    - {b wild pointers}: a held reference that does not point at the base
      of a block in an initialised page (or a huge object);
    - {b double frees}: a block present twice in free structures, or both
      free and live;
    - {b count mismatches}: header count ≠ number of holders;
    - {b leaks}: a count-zero block that is in no free structure and whose
      segment is not awaiting the POTENTIAL_LEAKING / orphan scan;
    - {b pending}: count-zero off-list blocks that {e are} covered by a
      pending scan (allowed by design, §5.3).

    Run only on a quiesced arena (no in-flight operations). *)

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

val block_capacity : read:(int -> int) -> Layout.t -> int -> int option
(** [Some n] when [p] is the base of a block a reference could legally
    name, [n] being the data words it can hold (block size or a huge run's
    extent, less the header). Only metadata reads through [read] — never a
    dereference of [p] — so it is safe on hostile words: the RPC
    receive-side walk ({!Cxlshm_rpc.Cxl_rpc}) reads through the server's
    [Ctx.load] and bounds each block's meta by [n]. *)

val block_base_ok : read:(int -> int) -> Layout.t -> int -> bool

val live_rootref : Cxlshm_shmem.Mem.t -> Layout.t -> int -> bool
(** Is [rr] an in-use block of a RootRef page? Raw reads only. *)
