(** Replicated failure monitor (§3.2).

    Detection is lease-based and leaderless: every replica advances the
    shared logical lease clock ({!Lease.tick}) once per pass and CASes
    expired clients [Alive → Suspected → Failed], so any surviving replica
    detects hung or dead clients — no per-monitor heartbeat history, which
    is what lets a fresh replica take over with no warm-up. A client that
    still runs but stopped heartbeating (hung, not dead) expires the same
    way; its own next heartbeat cancels a [Suspected] verdict but cannot
    rescue it once condemned.

    Recovery and the leak scan are {e leader-only}: replicas
    race one CAS on a lease-guarded leader word and the losers shadow-check.
    A leader that dies keeps the word, but its lease expires and the next
    replica deposes it, resuming any interrupted recovery mid-flight
    (see the [dual-monitor] explorer model). *)

type t

val create : mem:Cxlshm_shmem.Mem.t -> lay:Layout.t -> ?id:int -> unit -> t
(** A monitor replica. [id] (default 0) is its leader-election identity
    and must be distinct per replica sharing an arena. *)

val check_once : t -> int list
(** One detection pass: advance the lease clock, suspect expired [Alive]
    clients, condemn [Suspected] ones whose grace also ran out. Returns the
    clients this pass condemned. Condemnations (including failures declared
    externally) capture the client's last trace-ring events exactly once
    per failure incident across all replicas — see {!death_dumps}. *)

val death_dumps : t -> (int * Trace.event list) list
(** Event-ring dumps this replica captured at condemnation, newest first.
    Empty events lists mean the client wasn't tracing. The shared
    dump-claim word guarantees one capture per failure incident across
    replicas, keyed by the slot's lease grant era. *)

val recover_suspects : t -> (int * Recovery.report) list
(** Contend for leadership; as leader (or on takeover from an expired
    leader), resume any interrupted recovery, then recover every client
    currently [Failed]. Followers return [[]] without touching the arena. *)

val run_in_domain : t -> interval:float -> unit Domain.t * bool Atomic.t
(** Spawn the replica loop in its own domain; set the returned flag to stop
    it. Each pass checks, contends/recovers, and — as leader — drains
    unadopted limbo rows ({!Limbo.drain}) and runs the POTENTIAL_LEAKING
    scan. An exception in one iteration (a device fault, a half-recovered
    client) is counted ({!error_count}) and remembered for {!stop_and_join}
    to return, and the loop keeps running; it never dies silently. *)

val stop_and_join : unit Domain.t * bool Atomic.t -> t -> exn option
(** Stop the loop started by {!run_in_domain}, wait for the domain to
    finish, abdicate leadership (so a surviving replica takes over without
    waiting out the lease), and return the last error any iteration raised
    (if any). *)

val ctx : t -> Ctx.t
(** The monitor's service context (useful for validation and fsck). *)

val id : t -> int

val is_leader : t -> bool
(** Did the last {!recover_suspects} pass hold leadership? *)

val leader : t -> (int * int) option
(** Current [(leader id, lease deadline)] from the shared leader word. *)

val abdicate : t -> unit
(** Release leadership if held (clean shutdown / tests forcing a
    failover). A replica that merely stops calling {!recover_suspects}
    is deposed anyway once its leader lease expires. *)

val error_count : t -> int
(** Loop iterations that raised since the monitor was created. *)
