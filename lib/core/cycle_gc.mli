(** Cycle collection: the paper's deferred tracing collector (§4.1).

    Reference counting cannot reclaim cycles of embedded references; the
    paper explicitly leaves tracing collection as future work and frames GC
    and refcounting as "distinct tools, each having its unique
    applications". This module is that complementary tool: a
    {e stop-the-world} mark-and-sweep over the shared pool that reclaims
    reference-counted garbage cycles.

    The mark is {!Root_set.mark}, the same one {!Fsck.repair} uses: from the
    durable roots — in-use RootRefs, queue-directory entries (ring contents
    are embedded references of the queue object and get traced), and named
    persistent roots — through embedded references, skipping any word that
    is not a block base. This module adds only the sweep: any block with a
    positive count outside the marked set is cycle garbage, its count can
    never reach zero.

    Unlike CXL-SHM's recovery this {b is} blocking and heap-proportional —
    exactly the §4.1 trade-off — so it is meant to run rarely, at
    quiescent points (no in-flight operations), as a leak backstop. *)

type report = {
  roots : int;  (** root references the mark started from *)
  marked : int;  (** live blocks reached from the roots *)
  collected : int;  (** unreachable count>0 blocks reclaimed (cycle garbage) *)
}

val collect : Ctx.t -> report
(** Run a full collection. The caller must guarantee quiescence. *)
