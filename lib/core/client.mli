(** Client registration and liveness (§3.2).

    Clients claim a ClientLocalState slot with a CAS on its flags word, so
    joining and leaving never block other clients (POSIX shm/mmap in the
    real system). A heartbeat renews the client's lease ({!Lease}), which
    lets any peer detect silent failures; tests can also declare failures
    explicitly. *)

type status =
  | Slot_free
  | Alive
  | Failed      (** declared dead; recovery pending or in progress *)
  | Suspected
      (** lease expired; any peer may have made this transition (see
          {!Lease.try_suspect}). Still alive for every safety purpose —
          the owner's next {!heartbeat} cancels it, a further TTL of
          silence condemns it to [Failed]. *)

val register : mem:Cxlshm_shmem.Mem.t -> lay:Layout.t -> ?cid:int -> unit -> Ctx.t
(** Claim a client slot ([?cid] forces a specific one) and initialise the
    era row, redo log and page tables. Raises [Failure] when no slot is
    free or the requested slot is taken. *)

val unregister : Ctx.t -> unit
(** Clean exit: releases empty owned segments, orphans non-empty ones
    (their live blocks may still be referenced remotely) and frees the
    slot. The application must have dropped its CXLRefs first; remaining
    RootRefs are treated exactly like a crash (recovery will reap them). *)

val status : Ctx.t -> cid:int -> status

val is_alive : Ctx.t -> cid:int -> bool
(** True for [Alive] {e and} [Suspected] — suspicion is a cancellable
    liveness hint, so hazards, reachability and leak scans must keep
    treating the client as live until it is condemned. *)

val alive_flags : int -> bool
(** {!is_alive} of a flags word the caller read itself. Total: a value that
    encodes no status reads as not alive. *)

val heartbeat : Ctx.t -> unit
(** Renew the caller's lease ({!Lease.renew}) and cancel a pending [Suspected]
    ({!Lease.self_heal}). A client already condemned to [Failed] is
    fenced; its heartbeat no longer rescues it. *)

val declare_failed : Ctx.t -> cid:int -> unit
(** Transition a (presumed dead) client to [Failed]; the recovery service
    picks it up from there. Idempotent. *)

val mark_recovered : Ctx.t -> cid:int -> unit
(** Recovery epilogue: free the slot for reuse. *)
