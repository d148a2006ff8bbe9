(** Per-client execution context.

    A [Ctx.t] bundles what every core operation needs: the shared arena, the
    layout, the client id, the client's {!Cxlshm_shmem.Stats} accumulator and
    its fault-injection plan. It is the OCaml-heap ("local memory") half of a
    client — everything that is lost when the client crashes. *)

type cache
(** Client-local volatile cache tier: a DRAM-side mirror of shared words
    whose sole mutator is this client (class heads, owned segments' page
    metadata, the ownership set), plus the allocator's page sets derived
    from them. Write-through — shared memory always holds the truth — and
    reconstructible: dropped on attach/recovery and refilled lazily from
    shared state. *)

type epoch = {
  e_enabled : bool;
  ebuf : int array;  (** rootrefs awaiting batched retirement *)
  mutable elen : int;
  sealed : int array;  (** volatile copy of the sealed journal's slots *)
  mutable slen : int;  (** entries in the sealed batch; 0 = none *)
  mutable snext : int;  (** next sealed entry to retire *)
  spent : int array;  (** the last finished batch's rootrefs *)
  mutable flen : int;  (** rootrefs in [spent] not yet freed *)
  dirty : int array;  (** line-deduped addresses awaiting write-back *)
  mutable dlen : int;
}
(** Epoch-batched retirement state (volatile). [ebuf] holds rootrefs whose
    local count hit zero; they stay linked and [in_use] in shared memory
    until a full buffer is sealed into the persistent journal (see
    {!Epoch}). The sealed batch is then retired one entry per later
    release, [sealed.(snext)] first, so no single release tears down a
    whole batch. A retired entry's rootref stays allocated, its pointer
    null, until the batch's finish has cleared the journal; [spent] then
    frees them one per release. [dirty] queues hot-path write-backs to
    ride the batch's finish. Lost on crash by design: unsealed entries and
    unfreed [spent] rootrefs are still allocated rootrefs for the dead
    client's rootref scan, and the sealed entries whose pointer is still
    set are exactly the unfinished work [Recovery] replays from the
    journal. *)

type t = {
  mem : Cxlshm_shmem.Mem.t;
  lay : Layout.t;
  cid : int;
  home_dev : int;
      (** The client's home device in the pool ([cid mod num_devices]) —
          segment claims prefer segments served by it before spilling. *)
  st : Cxlshm_shmem.Stats.t;
  lines : Cxlshm_shmem.Lines.t;
      (** the client's CPU-cache line state, which classifies each of its
          word accesses into [st] *)
  mutable fault : Fault.plan;
  mutable retry : Retry.policy;
      (** retry/backoff budget for transient device faults; defaults to
          {!Retry.default_policy}; a policy with [max_attempts = 1] fails
          fast *)
  rng : Random.State.t;  (** client-local randomness (segment probing) *)
  mutable trace_on : bool;
      (** observability switch, seeded from [Config.trace]; when off every
          {!Trace.with_span} is a single branch *)
  hists : Cxlshm_shmem.Histogram.t array;
      (** per-op latency histograms (local memory), indexed by
          {!Cxlshm_shmem.Histogram.op_index}; fed by spans when tracing *)
  cache : cache;  (** client-local cache tier (see {!type:cache}) *)
  epoch : epoch;  (** epoch-batched retirement state (see {!type:epoch}) *)
  mutable degraded_hint : int;
      (** volatile mirror of the degraded-device bitmap, read on the
          allocation fast path instead of the shared word; refreshed at
          attach and heartbeat ({!refresh_degraded_hint}) *)
  mutable alloc_pin : int list;
      (** when non-empty, the allocator places objects only inside these
          segments and never claims new ones — the RPC channel sub-heap
          discipline (see {!with_pin}) *)
  mutable alloc_exclude : int list;
      (** owned segments ordinary allocation must stay out of (a channel's
          private sub-heap) *)
  mutable service : bool;
      (** the arena's service context ({!Shm.service_ctx}, set only by
          [Shm]): it acts as cid 0, which {!Client.register} also hands to
          the first client that joins, so {!Alloc.alloc_rootref} refuses
          to allocate through it *)
  mutable eras : int;
      (** era advances this context has made ({!Era.advance_for}); the
          version of every {!Cxl_ref} memo *)
}

val make :
  ?cache:bool ->
  ?epoch:bool ->
  mem:Cxlshm_shmem.Mem.t ->
  lay:Layout.t ->
  cid:int ->
  unit ->
  t
(** [?cache] overrides [Config.cache]; service/monitor contexts pass
    [~cache:false] so repair paths always read shared truth. [?epoch]
    (default true) can force epoch batching off even when
    [Config.epoch_batch > 0] — service contexts pass [~epoch:false] so they
    never enqueue retirements they would not flush. *)

val cfg : t -> Config.t

(** {1 Channel sub-heap placement (RPCool isolation)}

    Volatile placement policy for zero-copy RPC: while a pin is active the
    allocator carves only from the pinned segments (and raises
    [Out_of_shared_memory] instead of claiming more — the sub-heap stays
    bounded); excluded segments are invisible to ordinary allocation, so a
    client's private objects never land inside a channel it owns. *)

val pin_active : t -> bool

val with_pin : t -> int list -> (unit -> 'a) -> 'a
(** Run [f] with allocation pinned to [segs]; always restores the previous
    pin, even on exception. *)

val exclude_segment : t -> int -> unit
val unexclude_segment : t -> int -> unit

val seg_allowed : t -> int -> bool
(** May the allocator place an object in segment [s] right now? Pin list
    when pinned, complement of the exclusion list otherwise. *)

(** {1 Degraded devices}

    Escalated device faults set the device's bit in a shared arena-header
    bitmap ({!Layout.hdr_dev_degraded}); segment claims steer away from
    degraded devices and the monitor reports them. Cleared when the pool is
    serviced ({!clear_degraded}). *)

val device_degraded : t -> int -> bool
val degraded_devices : t -> int list
val mark_degraded : t -> int -> unit
val clear_degraded : t -> unit

val refresh_degraded_hint : t -> unit
(** Re-read the shared bitmap into [degraded_hint]. Placement steering is
    a hint — a stale mirror only means some allocations land on a device
    that was just marked, and those blocks stay where they landed — so
    refreshes ride existing slow points rather than charging every alloc a
    shared read. *)

val any_degraded_hint : t -> bool
(** [degraded_hint <> 0] — zero-cost "is any device degraded?" check for
    the allocation fast path. *)

(** {1 Shared-memory shorthands} (attributed to this client's stats)

    Each of [load], [store], [cas] and [fetch_add] is a single word
    operation with no interior commit point. It calls {!Cxlshm_shmem.Mem}
    directly and enters {!Retry.after_fault} only from its fault handler,
    so it is retried under the context's retry policy when the device
    faults transiently; persistent faults and exhausted budgets escalate
    as {!Cxlshm_shmem.Mem.Device_error}. [fence] and [flush] reach no
    backend and never fault. *)

val load : t -> Cxlshm_shmem.Pptr.t -> int
val store : t -> Cxlshm_shmem.Pptr.t -> int -> unit
val cas : t -> Cxlshm_shmem.Pptr.t -> expected:int -> desired:int -> bool
val fetch_add : t -> Cxlshm_shmem.Pptr.t -> int -> int
val fence : t -> unit
val flush : t -> Cxlshm_shmem.Pptr.t -> unit
val crash_point : t -> Fault.point -> unit

(** {1 Epoch batching} *)

val epoch_enabled : t -> bool
val epoch_capacity : t -> int

val flush_unless_elided : t -> Cxlshm_shmem.Pptr.t -> unit
(** Epoch mode's one flush-elision rule: {!flush} in an eager context,
    nothing when epoch batching is on. Only for lines whose loss recovery
    already tolerates (docs/ALGORITHM.md §9.3): the RootRef link and the
    RPC completion word. *)

val flush_deferred : t -> Cxlshm_shmem.Pptr.t -> unit
(** Queue a write-back to ride the next retirement-batch boundary instead
    of paying a per-op flush (counted in [Stats.deferred_flushes]; the
    eventual write-back is priced on the op that drains the batch). Falls
    back to an immediate {!flush} when batching is off or the queue is
    full. Only for stores whose durability deadline is the era advance
    that could recycle the line — the fast-path rootref/index lines. *)

val drain_dirty : t -> unit
(** Issue every queued write-back now (batch boundary or quiesce). *)

(** {1 Client-local cache tier}

    Strict mirroring rules: only words whose sole mutator is this client
    (its class heads; page metadata of segments it owns) may be mirrored; every mirror write happens
    alongside the write-through store; the whole tier drops to empty on
    attach/recovery and refills lazily. *)

val cache_drop : t -> unit
(** Forget everything — the post-attach/post-recovery state. *)

val load_class_head : t -> int -> int
(** Cached read of this client's class-head word [k] (write-through pair:
    {!store_class_head}). *)

val store_class_head : t -> int -> int -> unit

val cache_owned_known : t -> bool
(** The ownership set is populated (a shared scan can be skipped). *)

val cache_owned_list : t -> int list
(** Owned segments in ascending order; meaningful only when
    {!cache_owned_known}. *)

val cache_install_owned : t -> int list -> unit
(** Install the result of a shared ownership scan. *)

val cache_note_claim : t -> int -> unit
(** This client just claimed/adopted the segment (its pages join the
    unused-page set while the sets are warm). *)

val cache_note_release : t -> int -> unit
(** This client just released the segment (drops its page mirrors and its
    page-set entries). *)

val load_pm : t -> gid:int -> slot:int -> Cxlshm_shmem.Pptr.t -> int
(** Cached read of page-meta slot [slot] (0 = kind … 4 = used) of page
    [gid] at shared address [addr]; mirrors only pages of owned
    segments. *)

val store_pm : t -> gid:int -> slot:int -> Cxlshm_shmem.Pptr.t -> int -> unit
(** Write-through page-meta store; drops the mirror entry instead of
    updating it when the segment is not (known to be) owned. *)

(** {2 Page sets}

    mimalloc's page queues. Set [k] for [k <= num_classes] holds owned
    pages of kind-table index [k] (size class [k], RootRef pages at
    [num_classes]) that may have free blocks; set [num_classes + 1] holds
    owned pages that may still be unused. Warm sets miss no qualifying
    page but may hold stale entries, which {!page_set_find} drops. The
    sets start cold and go cold on {!cache_drop} and {!page_sets_drop};
    with the tier off they never warm, so every use follows a refill. *)

val page_sets_warm : t -> bool

val page_sets_refill : t -> (int * int) list -> unit
(** Replace every set's contents with the [(index, gid)] entries of a
    rebuild walk; the sets are warm afterwards if the tier is on. *)

val page_sets_drop : t -> unit
(** Mark the sets cold (e.g. after adopting a segment whose pages are
    unknown). *)

val page_set_add : t -> idx:int -> int -> unit
(** Add a page to set [idx]; a no-op while the sets are cold. *)

val page_set_find :
  t -> idx:int -> (int -> [ `Use | `Skip | `Stale ]) -> int option
(** The lowest gid of set [idx] the verdict accepts. Entries judged
    [`Stale] on the way are removed; [`Skip]ped ones stay. *)
