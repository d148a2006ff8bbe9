(** Exactly-once reference transfer between clients (§5.2, Fig 5).

    Network transfer leaves the ownership of an in-flight reference
    ambiguous; CXL-SHM instead moves references through single-producer
    single-consumer ring queues living in the shared pool. The queue itself
    is a CXLObj whose ring slots are {e embedded references}, so:

    - sending attaches the object to the tail slot with the standard era
      transaction, then publishes it by advancing the tail — ownership
      transfers atomically at that store;
    - receiving relinks the head slot's counted reference to a fresh RootRef
      with one count-neutral {!Refc.swap}, then advances the head;
    - every queue is registered in the well-known directory, so the recovery
      service can find them; un-consumed references are owned by the queue
      object itself and die with it, so a crash on either side leaks
      nothing.

    A queue can instead carry {e loans} ({!lend}, {!peek}, {!advance}: the
    RPC request path). The sender moves its only reference into the tail
    slot and keeps owning the message: the receiver reads the slot in
    place, takes no count and hands the slot back by advancing the head.
    The sender frees the consumed message when it next lends into that
    slot, and queue teardown frees whatever the ring still holds. One queue
    carries either transfers or loans, never both: a transfer's attach
    would overwrite a loan's leftover.

    Queues are registered in the arena's queue directory; a slot records
    sender, receiver and a {e counted} reference to the queue object. *)

type endpoint = Sender | Receiver
type t

val capacity : t -> int

val pending : t -> int
(** Messages published but not yet consumed. *)

val endpoint : t -> endpoint
val peer : t -> int
val queue_ref : t -> Cxl_ref.t

val dir_index : t -> int
(** This queue's directory slot (for the channel sub-heap registry). *)

val peer_closed : t -> bool
(** Has the other endpoint closed (or been closed by recovery)? One shared
    load of the queue's flags word. *)

val connect : ?channel_segs:int list -> Ctx.t -> receiver:int -> capacity:int -> t
(** Sender side: allocate a queue for [ctx → receiver], register it in the
    directory. [channel_segs] (an RPC channel's private sub-heap, claimed by
    the caller) is published in the slot's registry words before the slot
    turns active, so the receiver can always read it at open. Raises
    [Failure] if the directory is full. *)

val open_from : Ctx.t -> sender:int -> t option
(** Receiver side: find an active queue [sender → ctx] and take a counted
    reference to it. [None] until the sender has connected. *)

type send_result = Sent | Full | Closed

val send : t -> Cxl_ref.t -> send_result
(** Share the handle's object with the peer: {!send_batch} of one. The
    sender keeps its own reference (drop it separately if no longer
    needed). *)

val send_batch : t -> Cxl_ref.t list -> int * send_result
(** Publish a prefix of the payloads (limited by ring room) under a
    {e single} fence and tail advance — the one tail store is the only
    commit point, so the batch transfers ownership atomically as a dense
    prefix. Returns how many were sent and why it stopped: [Sent] = all,
    [Full] = ring ran out of room, [Closed] = receiver gone (none sent). *)

val lend : t -> Cxl_ref.t -> send_result
(** Lend the handle's object to the receiver. On [Sent] the handle is
    consumed: one count-neutral {!Refc.swap} moves its reference into the
    tail slot and the slot's leftover (the message the receiver consumed
    [capacity] loans ago, or null) into the handle's RootRef, which is
    then released, or freed at once when null; then one fence and one tail
    store publish the loan. No header CAS. [Full] and [Closed] leave the
    handle untouched. Raises [Invalid_argument], lending nothing, if the
    handle is shared ({!Cxl_ref.into_rootref}).

    Crash windows: the swap is a redo-logged transaction, resumed or
    discarded by recovery; after it ([Send_after_attach]) the new object is
    owned by the queue but unpublished, and the leftover by the sender's
    RootRef, reaped with the sender. A receiver never sees a slot past the
    tail, so a half-done lend is invisible to it. *)

val peek : t -> Cxlshm_shmem.Pptr.t option
(** Receiver side of a loan: the head slot's word, read in place with no
    relink and no count taken; [None] when the ring is empty. The word is
    whatever the sender stored, so the receiver must vet it before
    dereferencing. The object stays alive until {!advance}: only the
    sender reclaims the slot, and only once the head has passed it. *)

val clear_head : t -> unit
(** Null the head slot with a plain store, no count change: for a word the
    receiver's vetting refused as naming no block the sender may lend
    (the RPC server: no block of the channel), so that queue teardown
    never drops a count through a forged reference. *)

val advance : t -> unit
(** Return the head slot to the sender: one fence, so everything the
    receiver wrote into the lent object (its completion word) is ordered
    before it, then one head store, whose write-back is deferred. The
    receiver holds nothing, so a receiver crash on either side of the
    store ([Recv_after_advance]) leaves no count behind: the object stays
    the queue's, freed at the sender's next lend or at teardown. *)

type recv_result = Received of Cxl_ref.t | Empty | Drained

val receive : t -> recv_result
(** {!receive_batch} of one. [Drained] = the sender closed (or died) and
    the ring is empty. *)

type recv_batch = Received_batch of Cxl_ref.t list | Batch_empty | Batch_drained

val receive_batch : t -> max:int -> recv_batch
(** Consume up to [max] messages, releasing all their slots with a single
    fence and head advance. Each message moves from its slot to a fresh
    RootRef by one {!Refc.swap} era transaction (no header CAS; the
    object's count never moves), so every message is crash-atomic on its
    own: a crash leaves it owned by the queue or by the receiver's
    RootRef. *)

val close : t -> unit
(** Close this endpoint and drop its queue reference. When both endpoints
    are closed the directory slot is reclaimed and the queue object (with
    any never-consumed in-flight references) is released. *)

(** {1 Channel sub-heap registry}

    The four spare words of a queue's directory slot record the segments an
    RPC channel claimed as its private sub-heap (count word + up to
    {!Layout.queue_max_channel_segs} segment ids). Advisory shared state:
    the peer's validation walk and the revocation path read it; cleanup and
    the claim-undo recovery path clear it with the slot. *)

val set_channel_segs : Ctx.t -> int -> int list -> unit
val channel_segs : Ctx.t -> int -> int list
val clear_channel_segs : Ctx.t -> int -> unit

val seg_held_by_live_peer : Ctx.t -> seg:int -> dead_cid:int -> bool
(** True when [seg] is registered as a channel sub-heap on an in-use
    directory slot with an endpoint other than [dead_cid] still alive.
    Recovery must not recycle such a segment — the surviving peer is still
    operating on the sub-heap (frees of reaped messages may be in flight);
    it is orphaned instead, and the peer's channel teardown adopts and
    returns it. *)

(** {1 Recovery hooks} *)

val recover_endpoints :
  Ctx.t -> failed_cid:int -> reclaim:(Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Close every directory registration of a dead client: abort half-claimed
    slots, mark its endpoints closed, and finish both-ends-dead cleanups —
    all with resumable releases under the dead client's identity
    ({!Reclaim.release_as}). *)

val directory_refs : read:(int -> int) -> Layout.t -> Cxlshm_shmem.Pptr.t list
(** Root-set helper ({!Heap.iter_roots}): the queue-object pointers
    currently held (counted) by directory slots, read through [read]. *)

val clear_wild_directory_refs :
  Cxlshm_shmem.Mem.t -> Layout.t -> valid:(Cxlshm_shmem.Pptr.t -> bool) -> int
(** Fsck helper (offline use only): free every occupied directory slot whose
    queue pointer fails [valid] — a wild reference left by corruption —
    and return how many were cleared. *)

val mutation_unfenced_advance : bool ref
(** {b Test-only.} Re-introduces the historical unfenced head advance in
    {!receive_batch} for the model checker's mutation self-check, expressed
    as the reordering the missing fence permitted (head published before the
    slot relinks). Must stay [false] outside the explorer's mutation
    tests. *)
