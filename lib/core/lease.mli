(** Lease protocol over the shared logical lease clock.

    Replaces "the monitor counted heartbeat misses" with a protocol any
    peer can run from shared state alone. The clock
    ({!Layout.hdr_lease_clock}) is a monotone tick counter advanced by
    every monitor pass — never wall time, so expiry is deterministic under
    the [lib/check] explorer and a dead monitor's own lease still expires
    as long as any other monitor ticks.

    {b Client leases.} Registration grants a lease
    ([deadline = now + Config.lease_ttl], grant-era bumped);
    {!Client.heartbeat} renews it. A peer observing [now > deadline] may
    CAS the slot [Alive → Suspected] ({!try_suspect}); a slot still
    unrenewed one further TTL later may be condemned
    [Suspected → Failed] ({!try_condemn}), which is what finally catches
    {e hung} clients — live processes whose progress stalled — and not
    just silent ones. A heartbeat from a falsely-suspected client cancels
    the suspicion ([Suspected → Alive], {!self_heal}); once condemned, the
    client is fenced and must re-register. Every transition is a CAS on
    the flags word, so rescue and condemnation cannot both win.

    {b Leader lease.} Monitors elect a leader by CAS on the packed
    {!Layout.hdr_leader} word; the winner's lease uses the same clock and
    TTL. A follower observing the leader's deadline expired deposes it
    with the same single CAS ({!try_lead} returns [Took_over]) and takes
    over recovery mid-flight — [Recovery.with_lock] already finishes any
    interrupted recovery first, so handoff composes with the idempotent
    phase machine. *)

val now : Ctx.t -> int
(** Current tick of the shared lease clock. *)

val tick : Ctx.t -> int
(** Advance the clock by one tick (fetch-and-add); returns the new [now].
    Called once per monitor pass by every monitor. *)

val ttl : Ctx.t -> int
(** [Config.lease_ttl]. *)

(** {1 Client leases} *)

val deadline : Ctx.t -> cid:int -> int
(** The client's lease deadline tick (0 = no lease). *)

val era : Ctx.t -> cid:int -> int
(** The client's lease grant era (bumped once per registration). *)

val grant : Ctx.t -> cid:int -> int
(** Bump the grant era and set a fresh deadline; returns the new era.
    Called by {!Client.init_slot} for the registering client. *)

val renew : Ctx.t -> cid:int -> unit
(** Extend the lease to [now + ttl] (owner only, via heartbeat). *)

val release : Ctx.t -> cid:int -> unit
(** Clear the deadline (clean unregister) so a recycled slot cannot be
    instantly re-suspected by a stale deadline. *)

val expired : Ctx.t -> cid:int -> bool
(** A lease exists and [now > deadline]. *)

val try_suspect : Ctx.t -> cid:int -> bool
(** If expired, CAS [Alive → Suspected]. True iff this caller made the
    transition. Callable by any peer, not just a monitor. *)

val try_condemn : Ctx.t -> cid:int -> bool
(** If still expired one further TTL past the deadline, CAS
    [Suspected → Failed]. True iff this caller condemned the client (the
    winner owns the failure incident: dump claim, recovery kick). *)

val self_heal : Ctx.t -> cid:int -> bool
(** CAS [Suspected → Alive] — a live client cancelling a false positive.
    False when the slot was not suspected (already condemned or never
    suspected). It CASes only when its load reads Suspected; call it after
    {!renew}, so a suspicion that lands after the load is healed by the
    next heartbeat. *)

(** {1 Monitor leader lease} *)

(** Outcome of a {!try_lead} attempt. *)
type lead =
  | Follower  (** someone else holds an unexpired lease *)
  | Leader  (** this id is leader (fresh election or renewal) *)
  | Took_over
      (** this id deposed an {e expired} leader — the caller must resume
          any recovery the dead leader left mid-flight *)

val leader : Ctx.t -> (int * int) option
(** [(monitor id, deadline tick)] of the current leader word, if any. *)

val try_lead : Ctx.t -> id:int -> lead
(** One election/renewal/deposition step: claim a free leader word, renew
    an own lease, or depose an expired leader — each a single CAS (a lost
    race returns [Follower]; call again next pass). Winning paths cross
    the [Lead_after_acquire] crash point {e before} returning, so the
    explorer can kill a monitor that won leadership but did nothing yet. *)

val abdicate : Ctx.t -> id:int -> unit
(** Release the leader word if this id holds it (clean monitor shutdown). *)
