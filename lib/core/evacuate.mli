(** Live segment evacuation off degraded devices.

    When device faults escalate ({!Ctx.mark_degraded}), the data already on
    the device is still readable but no longer trusted. Evacuation drains it
    under traffic: per live object, attach a {e guard} RootRef (the count can
    no longer race to zero), allocate a replacement through the placement
    ladder (which steers off degraded devices), copy the payload, re-point
    every holder with one {!Refc.swap} each, then release the guard —
    the old block's count falls to zero and it is reclaimed normally.

    Crash-resumability: the guard and the replacement's bootstrap RootRef
    are ordinary rootrefs of the evacuator's client slot, and every
    re-pointing is an era transaction, so an evacuator crash at any point
    (see [Fault.Evac_*]) is cleaned by standard client recovery: both blocks
    keep consistent counts. Object {e identity} survives too: the re-point
    phase runs under a persistent migration journal
    ({!Layout.hdr_evac_from}/[to]/[guard]), so the next sweep re-points the
    remaining holders at the {e same} replacement instead of cloning a
    second copy and splitting the holders between two blocks.

    Sweeps are serialised by a claim word ({!Layout.hdr_evac_claim}):
    monitor-side sweeps, client relocations and direct {!evacuate_obj}
    calls never interleave re-point phases. The word names the holder's
    slot and its lease grant era ({!Layout.client_lease_era}); a claim
    whose holder died is broken by the next claimant once recovery has
    freed the holder's slot, or once the slot's era has moved past the
    claim's (the slot was recovered and registered again) — a [Failed] or
    [Suspected] holder is still busy — and the breaker drains the journal.

    The single-writer caveat: a re-point rewrites holder reference {e words},
    so the evacuator must not race the holder's own writes to those exact
    words. Live owners therefore relocate their own RootRefs
    ({!relocate_own}); the monitor-side sweep ({!run}) moves data blocks —
    whose embedded slots are quiescent unless the application is actively
    rewriting that specific object's graph — and leaves in-use RootRefs of
    live owners in place (reported as pinned).

    The arena is enumerated through {!Heap} (segment classifier, block and
    RootRef iterators, root set) with attributed loads. *)

module Pptr = Cxlshm_shmem.Pptr

type outcome =
  | Moved of Pptr.t  (** the replacement object *)
  | Pinned of string  (** held by a queue/root directory; not movable here *)
  | Dead  (** count reached zero before the guard attached *)
  | No_space  (** nothing healthy claimable for the replacement *)
  | Busy
      (** another evacuator, live or not yet recovered, holds the sweep
          claim; retry later *)

type report = {
  mutable moved : int;
  mutable pinned : int;
  mutable dead : int;
  mutable no_space : int;
  mutable busy : int;
  mutable moved_rootrefs : int;
  mutable remapped : (Pptr.t * Pptr.t) list;
      (** [(old_rr, new_rr)] pairs from {!relocate_own}; the application
          patches its CXLRef handles with these. *)
  mutable drained_segments : int;
  mutable recycled_segments : int;
  mutable errors : string list;
}

val empty_report : unit -> report
val pp_report : Format.formatter -> report -> unit

val evacuate_obj : Ctx.t -> obj:Pptr.t -> outcome
(** Move one live object off its current segment through the guard
    protocol above. The destination is wherever the allocator's placement
    ladder lands — callers invoke this for objects on degraded devices, and
    the ladder avoids those. *)

val live_segments_on : Ctx.t -> dev:int -> int list
(** Non-free segments on [dev] still holding at least one live block (a
    data block with a positive count, an in-use RootRef, or a live huge
    run). The evacuation goal is making this list empty. *)

val run : mem:Cxlshm_shmem.Mem.t -> lay:Layout.t -> report
(** Monitor-side sweep: register a fresh client slot (so a crash mid-sweep
    is recovered like any client death), move every live data block off
    every degraded device, recycle segments drained empty, unregister.
    In-use RootRefs of live owners are left (pinned); dead owners' RootRefs
    belong to recovery. No-op when no device is degraded. *)

val relocate_own : Ctx.t -> report
(** Client-side relocation: flush parked retirements, steer the allocator's
    cursors off degraded devices, move the client's own live objects, then
    move its RootRef blocks (count-neutral {!Refc.swap}, redo-covered) and
    release emptied segments. Returns the RootRef remap list in
    [remapped] — existing [Cxl_ref] handles alias the old addresses and
    must be patched by the caller. *)
