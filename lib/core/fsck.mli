(** Offline arena verifier and repairer ("fsck for the pool").

    Crash recovery (§5) resolves interrupted {e transactions}; it assumes
    the bytes it reads are the bytes somebody wrote. Device faults break
    that assumption: stuck media swallows stores, torn writes leave
    half-updated headers, and a page's metadata may stop describing its
    blocks at all. {!repair} restores the arena's structural invariants in
    idempotent passes — metadata sanity, page quarantine, a crash-recovery
    sweep of every recorded client, mark/repair of the reference graph
    from the durable roots, free-structure rebuild, leak scan — and ends
    with a fresh {!Validate.run} as the verdict. Read-only verification is
    {!Validate.run} itself.

    The passes walk the arena through {!Heap}: its segment classifier and
    block iterators, its huge true-length check (the one {!Validate}
    applies), and its mark from the durable roots (the one {!Cycle_gc}
    sweeps over), with a wild-reference callback that clears the word at
    its holder.

    Must run offline: no live clients, fault injection disarmed ({!repair}
    disarms it itself). Repair is lossy where the damage is lossy — it
    restores invariants, not data. *)

type report = {
  seg_meta_fixed : int;  (** out-of-range segment state/owner words reset *)
  pages_quarantined : int;
      (** pages with unusable geometry taken out of service
          ({!Config.kind_quarantined}) *)
  page_meta_fixed : int;  (** stale metadata of unused pages normalised *)
  torn_headers_cleared : int;
      (** object headers with a count but an implausible meta word, and
          RootRef state words with stray bits, cleared *)
  clients_swept : int;  (** recorded clients put through crash recovery *)
  sweep_errors : int;  (** recovery attempts that raised *)
  wild_refs_cleared : int;  (** references to invalid block bases dropped *)
  unreachable_freed : int;  (** counted objects with no remaining holder *)
  counts_fixed : int;  (** reference counts rewritten to holder counts *)
  chains_rebuilt : int;  (** pages whose free chain was reconstructed *)
  stacks_cleared : int;  (** non-empty cross-client free stacks zeroed *)
  trace_rings_reset : int;
      (** per-client event rings zeroed because the cursor or a published
          slot failed to decode (torn control-plane store) *)
  limbo_fixed : int;
      (** limbo repairs ({!Limbo}): rows owned by a free client slot or by
          no possible client turned orphaned, and entries cleared because
          they sat in a free row, named no live rootref with a target, or
          repeated a rootref parked elsewhere *)
  validation : Validate.t;  (** final post-repair verdict *)
}

val clean : report -> bool
(** Did the post-repair validation come back clean? *)

val pp : Format.formatter -> report -> unit

val repair : Ctx.t -> report
(** Full verify-and-repair pipeline on a quiesced arena. [ctx] should be a
    service context (its stats absorb the repair traffic). Idempotent: a
    second run finds nothing left to fix. *)
