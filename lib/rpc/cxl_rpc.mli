(** CXL-RPC: pass-by-reference RPC with pointer isolation (§6.3 + RPCool).

    A call allocates one rpc_msg carrying embedded references to the inputs
    and the output object, then {e lends} it through the §5.2 transfer
    queue ({!Cxlshm.Transfer.lend}): the client's only reference moves into
    a ring slot. The server reads arguments and writes the result in place
    — zero copies, no serialisation, no I/O stack — then raises the
    message's completion word and hands the slot back; the client polls
    that word directly (no response message).

    {b Who frees a message.} The channel owner, always. The ring slot holds
    the message's one count; the server takes none, allocates no RootRef
    and releases nothing per call. The client frees the message when it
    next lends into the same slot, and queue teardown frees whatever the
    ring still holds.

    {b Pointer isolation.} Each channel owns a private sub-heap: segments
    the client claims at {!connect} and publishes in the queue directory's
    registry words. {!alloc_arg} and {!call_async} place arguments, output
    and the message itself inside that sub-heap (never claiming more
    segments — exhausting the sub-heap is [Out_of_shared_memory]). On
    receive the server walks the message closure and checks every embedded
    reference is the base of a live block {e inside} the channel sub-heap;
    an out-of-channel or wild pointer rejects the call with an error
    completion ({!Call_rejected} at the client) without ever dereferencing
    the hostile word.

    {b Liveness.} Every spin — send on a full ring, {!finish} polling the
    completion word, the server waiting for a connect — re-reads the peer's
    membership and lease words and raises {!Peer_failed} once the peer is
    declared failed or its lease lapses, with backoff pacing from the
    context's {!Cxlshm.Retry} policy. If either side dies mid-call the
    recovery service reaps the in-flight message (and through its embedded
    references the argument/output objects) with no leak, double free or
    wild pointer, and channel revocation returns the emptied sub-heap to
    the arena. *)

exception Peer_failed of string
(** The peer endpoint failed (declared dead or lease lapsed) while we were
    waiting on it. *)

exception Call_rejected of string
(** The server's validation walk refused the call: the message closure
    reached an out-of-channel or wild pointer, or the message lacked the
    shape {!Message.build} gives it (e.g. its argument-count word no longer
    agreed with its meta). *)

type client
type server

val connect :
  ?sub_heap_segments:int ->
  Cxlshm.Ctx.t -> server_cid:int -> capacity:int -> client
(** Claim [sub_heap_segments] (default 1, at most
    {!Cxlshm.Layout.queue_max_channel_segs}) as the channel's private
    sub-heap, connect the transfer queue with the sub-heap published in its
    directory registry, and exclude the sub-heap from this client's
    ordinary allocation. *)

val channel_segments : client -> int list
(** The channel's private sub-heap (for tests and diagnostics). *)

val accept : Cxlshm.Ctx.t -> client_cid:int -> capacity:int -> server
(** Call before or concurrently with [connect]. *)

val alloc_arg :
  client -> size_bytes:int -> ?emb_cnt:int -> unit -> Cxlshm.Cxl_ref.t
(** Allocate an argument object inside the channel sub-heap. Objects
    allocated any other way fail the server's validation walk. Raises
    [Alloc.Out_of_shared_memory] when the sub-heap is exhausted (it never
    grows) and for huge sizes (a segment run cannot live in-channel). *)

type pending
(** An in-flight call: a view of the lent message (the ring slot keeps it
    alive) plus the output handle. *)

val call_async :
  client -> func:int -> args:Cxlshm.Cxl_ref.t list -> output_bytes:int -> pending
(** Fire a request. The output object and the message are carved inside the
    channel sub-heap; [args] must have been allocated with {!alloc_arg}.
    The send is bounded: on a full ring it backs off and re-checks the
    server's lease, raising {!Peer_failed} if the server is gone. The
    caller keeps ownership of the argument handles. The lend reclaims the
    message of the call made [capacity] calls earlier; if that call is
    unfinished, its completion word is read first, so it can still be
    finished. *)

val can_call : client -> bool
(** Does the ring have room, so that {!call_async} would lend without
    waiting? Two shared loads; for callers that poll instead of
    blocking. *)

val is_done : pending -> bool
(** Poll the completion word — one shared load, plus an acquire fence once
    it reads non-zero so the caller's subsequent output reads are ordered
    after it (pairing with the server's pre-status release fence). *)

val finish : pending -> Cxlshm.Cxl_ref.t
(** Wait until done and return the caller-owned output; the message stays
    in its ring slot for the client's next lend to free.
    Bounded: polls with backoff, re-checking the server's lease and the
    queue's closed flag; raises {!Peer_failed} if the server dies mid-call
    (after one final completion re-check to close the race with a server
    that finished just before dying), {!Call_rejected} if validation
    refused the call, [Invalid_argument] on a second finish of the same
    pending. Also {!Peer_failed} if the call's slot came back with the
    completion word still pending (a server breaking the protocol), or
    the channel closed before completion. *)

val try_finish : pending -> Cxlshm.Cxl_ref.t option
(** [Some output] if complete (may raise {!Call_rejected}); [None] if still
    pending. Raises [Invalid_argument] if already finished. *)

val discard : pending -> unit
(** Drop the output handle without waiting for completion — harness
    cleanup for a call abandoned because the server died. The message
    stays the channel's. Idempotent; a no-op after {!finish}. *)

val call :
  client -> func:int -> args:Cxlshm.Cxl_ref.t list -> output_bytes:int ->
  Cxlshm.Cxl_ref.t
(** [finish (call_async ...)]. *)

type handler = func:int -> args:Message.view list -> output:Message.view -> unit

val serve_one : server -> handler:handler -> bool
(** Handle one pending request in place; [false] when the ring is empty.
    Validates the message closure first (see module doc); rejected calls
    never reach [handler] — they are counted in {!rejected_calls} and
    completed with an error status (none when the slot names no channel
    block: the slot is cleared instead). Then the head advances, handing
    the slot back to the client. The server takes no reference to
    anything it receives, so it can never release a count it does not
    hold. The handler's views are built from the walk's own reads:
    the argument count is the validated meta's, and each view carries the
    meta word the walk read. Raises {!Peer_failed} while waiting for a
    connect from a client that died first. *)

val serve_until : server -> handler:handler -> stop:bool Atomic.t -> unit

val rejected_calls : server -> int
(** Calls refused by the validation walk since [accept]. *)

val allow_peer_segments : server -> unit
(** Opt-in trust extension (RPCool's attached shared heap): the validation
    walk additionally accepts blocks homed in segments the {e peer client
    itself owns} — for workloads that pass large peer-allocated data by
    reference across many channels (e.g. mapreduce chunks, a shared
    centroid table). Third-party and unowned segments are still rejected,
    wild pointers are still rejected, and the walk still recurses through
    accepted blocks, so a peer-owned object cannot launder a reference
    into someone else's heap. Off by default; server-side and local (trust
    is the receiver's to extend). *)

val close_client : client -> unit
(** Close the queue endpoint (reading the completion word of every
    unfinished call first, since the queue's teardown may free the lent
    messages), lift the sub-heap exclusion, and return every
    provably empty sub-heap segment to the arena (retiring this context's
    sealed and parked drops first so they land). Idempotent. *)

val close_server : server -> unit
(** Close the queue endpoint and, if the claiming client is dead, revoke
    its sub-heap: recovery deliberately leaves a channel segment orphaned
    while a live peer still holds the queue (recycling it under an
    in-flight serve would be a use-after-free), so the surviving server
    returns whatever is empty once the queue is torn down. A live
    claimant keeps ownership and releases in {!close_client} instead.
    Idempotent. *)

(** {1 Test-only mutation switches}

    For the model checker's mutation self-check (docs/TESTING.md); must
    stay [false] everywhere else. *)

val mutation_skip_validate : bool ref
(** Make the receive-side validation walk accept every pointer unvetted —
    the [rpc-skip-validate] explorer mutation; the planted out-of-channel
    pointer must then reach the handler and trip the oracle. *)

val mutation_unfenced_status : bool ref
(** Publish the completion word {e before} the handler runs, the reordering
    the historical missing release/acquire pair permitted — the
    [rpc-unfenced-status] explorer mutation; the client must then observe
    stale output bytes under a raised completion word. *)

val mutation_early_advance : bool ref
(** Hand the ring slot back before the call is served, instead of after
    its completion word is raised — the [rpc-early-advance] explorer
    mutation; a client that lends into the returned slot then reclaims a
    message whose completion is still pending. *)
