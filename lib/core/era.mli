(** The M×M era matrix (Fig 4 (a)).

    Era[i][i] is client i's current era, a strictly increasing counter
    advanced after each committed refcount transaction. Era[i][j] (i ≠ j) is
    the largest era of client j that client i has observed in an object
    header. The matrix doubles as a set of distributed vector clocks: during
    recovery of client i, the i-th *column* tells whether i's last
    transaction committed (Condition 2 of §4.3). Rows are single-writer —
    only client i (or recovery acting for dead i) writes row i. *)

val initial : int
(** Eras start at 1 so that era 0 in a header means "never touched". *)

val self : Ctx.t -> int
(** Era[cid][cid] — the client's current era. *)

val read : Ctx.t -> i:int -> j:int -> int
(** Era[i][j], read with this client's stats attribution. *)

val observe : Ctx.t -> saw_cid:int -> saw_era:int -> unit
(** Record "I saw era [saw_era] of client [saw_cid]" (Fig 4 (c) lines 5-6):
    raises Era[cid][saw_cid] to [saw_era] if it is smaller. *)

val advance : Ctx.t -> unit
(** Era[cid][cid]++ — commit-epilogue of a transaction (line 12). It and
    {!advance_for} also bump the context's volatile [Ctx.eras]. *)

val advance_for : Ctx.t -> cid:int -> unit
(** Recovery helper: advance the era of a *dead* client whose instruction
    stream the recovery service is finishing. *)

val observe_for : Ctx.t -> cid:int -> saw_cid:int -> saw_era:int -> unit
(** {!observe} on behalf of a dead client whose stream recovery resumes. *)

val self_of : Ctx.t -> cid:int -> int
(** Era[cid][cid] of an arbitrary client (recovery-side read). *)

val max_seen_by_others : Ctx.t -> cid:int -> int
(** max over j ≠ cid of Era[j][cid] — the right-hand side of Condition 2. *)

val init_row : Ctx.t -> unit
(** Zero the client's row and set Era[cid][cid] to {!initial}; called when a
    client slot is (re)registered. *)
