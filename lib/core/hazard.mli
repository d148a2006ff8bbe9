(** Hazard-era reclamation for latch-free readers (§5.4).

    The paper notes the classical ABA/use-after-free problem when readers
    traverse linked structures while the single writer unlinks nodes, and
    points at Hazard Eras [Ramalhete & Correia, SPAA'17] "because the era is
    already maintained". This module provides that scheme over a global
    epoch stored in the arena header:

    - a reader brackets each traversal with {!enter}/{!exit}, announcing
      the epoch it started in;
    - a writer stamps every retired node with {!retire_epoch}, a plain
      load taken after the unlink, and frees it only once {!min_announced}
      has moved past that stamp;
    - the epoch moves only when a release finds an announcement pinning
      what it keeps ({!advance}), so a writer that parks while nobody
      reads never writes the word;
    - a single writer's own operations run unannounced: its releases
      free only nodes it unlinked in earlier operations, which its later
      walks cannot reach, and an announcement would pin its own newest
      stamps;
    - a dead reader's announcement is ignored once its client slot leaves
      the [Alive] state, so a crashed reader can never block reclamation
      forever (the partial-failure property extends to reclamation). *)

val enter : Ctx.t -> unit
(** Announce the current epoch. Nestable calls are not supported: one
    traversal at a time per client. *)

val exit : Ctx.t -> unit
(** Clear the announcement. *)

val with_protection : Ctx.t -> (unit -> 'a) -> 'a

val retire_epoch : Ctx.t -> int
(** The value to stamp a retired node with: the current global epoch, one
    load. Read it after the unlink, so every reader that can still reach
    the node announced this value or an older one; the strict
    [stamp < min_announced] test keeps the node from all of them. A reader
    that announces the same value after the unlink pins it
    conservatively. *)

val advance : Ctx.t -> unit
(** Move the global epoch on by one (one fetch-add). A release that keeps
    an entry some announcement pins calls it once, so every reader that
    announces later passes the kept stamps. *)

val min_announced : Ctx.t -> int
(** The smallest epoch announced by any {e alive} client, or [max_int] if
    nobody is reading. Nodes stamped with a smaller value are safe to
    free. *)

val announced : Ctx.t -> cid:int -> int
(** Raw slot value (0 = not reading). *)
