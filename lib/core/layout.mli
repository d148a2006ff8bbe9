(** Word-level layout of the shared arena (Fig 3 of the paper).

    Everything the allocator and the recovery service need lives *inside*
    the shared arena, so recovery can repair the pool using shared state
    only. Layout, in ascending addresses:

    {v
    word 0            reserved (pptr 0 == null)
    arena header      geometry + magic
    SegmentAllocationVec   one meta record per segment
    ClientLocalVec         one ClientLocalState per client
    queue directory        well-known transfer-queue registry (§5.2)
    recovery area          recovery lock (padded, see below)
    limbo pool             era-gated deferred frees, in owned rows ({!Limbo})
    trace rings            per-client event rings (observability layer)
    segments               segment header (page metas) + page areas
    v}

    All functions are pure offset computations over a {!Config.t}. *)

type t = private {
  cfg : Config.t;
  num_classes : int;
  arena_hdr : int;
  segvec_base : int;
  clientvec_base : int;
  client_state_words : int;
  domvec_base : int;
  queuedir_base : int;
  roots_base : int;
  recovery_base : int;
  limbo_base : int;
  trace_base : int;
  trace_ring_words : int;
  segments_base : int;
  segment_words : int;
  seg_hdr_words : int;
  total_words : int;
}

val make : Config.t -> t

(** {1 Arena header fields} *)

val magic : int
val hdr_magic : t -> Cxlshm_shmem.Pptr.t
val hdr_epoch : t -> Cxlshm_shmem.Pptr.t

val hdr_dev_degraded : t -> Cxlshm_shmem.Pptr.t
(** Shared degraded-device bitmap: bit [d] set means device [d] exhausted a
    retry budget (or faulted persistently) for some client and allocation
    should steer new segment claims away from it until it is serviced. *)

val hdr_lease_clock : t -> Cxlshm_shmem.Pptr.t
(** The logical lease clock: a monotone tick counter advanced
    (fetch-and-add) by every monitor pass. All lease deadlines — client
    leases and the monitor leader lease — are ticks of this clock, never
    wall time, so lease expiry is deterministic under the explorer and a
    dead leader's lease still expires as long as {e any} monitor ticks. *)

val hdr_leader : t -> Cxlshm_shmem.Pptr.t
(** Monitor leader word: [{monitor id + 1, deadline tick}] packed
    ({!leader_pack}) so election (CAS 0 → mine), renewal (CAS mine → mine
    with a later deadline) and deposition of an expired leader (CAS
    theirs → mine) are each one CAS. 0 = no leader. *)

val leader_pack : id:int -> deadline:int -> int
val leader_unpack : int -> (int * int) option
(** [(monitor id, deadline tick)], or [None] for the no-leader word 0. *)

val hdr_evac_claim : t -> Cxlshm_shmem.Pptr.t
(** Evacuation claim word (the evacuator's [cid + 1] and its lease grant
    era, packed; 0 = free): serialises evacuation sweeps across the
    monitor leader and clients relocating their own data. A claim whose
    holder incarnation is gone (slot free, or its era superseded) is
    broken by the next claimant after resuming the migration journal. *)

val hdr_evac_from : t -> Cxlshm_shmem.Pptr.t
val hdr_evac_to : t -> Cxlshm_shmem.Pptr.t
(** Migration journal for the holder re-point phase of one object
    evacuation: while [hdr_evac_from] is non-zero, holders of [from] are
    being re-pointed to [to]. Written to-then-from, cleared from-then-to,
    so a non-zero [from] always pairs with a valid [to] — a crashed
    evacuator's successor re-points the {e remaining} holders at the same
    copy instead of cloning a second one (object identity is preserved). *)

val hdr_evac_guard : t -> Cxlshm_shmem.Pptr.t
(** The pptr slot of the evacuator's guard rootref for the in-flight
    migration: the one holder of [hdr_evac_from] a successor must {e not}
    re-point (it belongs to the dead evacuator's slot and its recovery
    releases it against the old block). *)

val hdr_limbo_orphans : t -> Cxlshm_shmem.Pptr.t
(** Upper bound on the number of orphaned limbo rows. Recovery adds one
    before it orphans a row, and an adopter subtracts one after its
    claim CAS. A crash in either window only overcounts, so a zero lets
    adoption and the leak-scan drain skip the pool scan. *)

(** {1 SegmentAllocationVec}

    4 words per segment: occupied client id (0 = free, cid+1 otherwise),
    version (bumped on every ownership change, defeating ABA), state
    (see {!Seg_state}), and the cross-client free-list head (packed
    {tag, pptr} Treiber stack). *)

val seg_meta_words : int
val seg_occupied : t -> int -> Cxlshm_shmem.Pptr.t
val seg_version : t -> int -> Cxlshm_shmem.Pptr.t
val seg_state : t -> int -> Cxlshm_shmem.Pptr.t
val seg_client_free : t -> int -> Cxlshm_shmem.Pptr.t

(** {1 ClientLocalState}

    Per client: misc words (registration flag, hazard era, lease deadline
    and grant era, death-dump claim), the client's row of the M×M era matrix, the redo-log record,
    the per-size-class current-page table and the current-segment cursor. *)

val client_state : t -> int -> Cxlshm_shmem.Pptr.t
val client_flags : t -> int -> Cxlshm_shmem.Pptr.t

val client_hazard : t -> int -> Cxlshm_shmem.Pptr.t
(** The client's announced hazard epoch (0 = not reading), used by
    {!Hazard} for safe memory reclamation of latch-free readers (§5.4). *)

val client_lease_deadline : t -> int -> Cxlshm_shmem.Pptr.t
(** Lease deadline tick of {!hdr_lease_clock}: the slot owner (via
    {!Client.heartbeat}) stores [now + Config.lease_ttl]; any peer
    observing [now > deadline] may suspect the client and, a further TTL
    later, condemn it — see {!Lease}. 0 = no lease (slot free or already
    released). *)

val client_lease_era : t -> int -> Cxlshm_shmem.Pptr.t
(** Lease grant era: bumped once per {!Client.init_slot}, so one
    registration = one era. Guards recycled slots (a suspect/condemn
    decision taken against era [e] is void once the slot re-registers at
    [e+1]) and keys {!client_dump_claim}. *)

val client_dump_claim : t -> int -> Cxlshm_shmem.Pptr.t
(** Death-dump claim word: the lease era whose trace-ring dump has been
    captured. A monitor may capture a dump for era [e] only after winning
    CAS [claim: < e → e], so concurrent monitors (or repeated
    [declare_failed]) capture exactly one dump per failure incident. *)

val era_cell : t -> int -> int -> Cxlshm_shmem.Pptr.t
(** [era_cell lay i j] is the address of Era[i][j]. Row [i] is written only
    by client [i] (or by recovery acting for dead [i]); column [i] is read
    during client [i]'s recovery (Fig 4a). *)

val redo_base : t -> int -> Cxlshm_shmem.Pptr.t
val redo_words : int

val class_head : t -> int -> int -> Cxlshm_shmem.Pptr.t
(** [class_head lay cid k] — current page (packed gid+1, 0 = none) used by
    client [cid] for page kind [k] (size classes and the RootRef class). *)

val client_cur_segment : t -> int -> Cxlshm_shmem.Pptr.t

(** {1 Retirement journal}

    Per client, inside its ClientLocalState: [count; base_era; K slots]
    where K = [Config.epoch_batch]. A non-zero [count] is the sealed-batch
    commit point — the owner wrote [count] rootrefs into the slots, fenced,
    then stored the count. Entries are processed strictly in slot order;
    a retired entry's rootref has a null pointer and stays allocated until
    the count is cleared, so every slot names its own rootref and, after a
    crash, the entries whose pointer is still set are exactly the
    unfinished work: at most the first such entry can have a
    committed-but-unfinished count decrement (at the dead client's current
    era), the rest never started. [base_era] is diagnostic only — child
    detaches inside an entry, and the client's own transactions between
    two paced entries, consume a variable number of eras, so recovery
    resolves each entry against live state, not a precomputed era. Zero
    count means no batch is in flight (the volatile buffer, if any, is
    discarded by a crash by design). *)

val retire_count : t -> int -> Cxlshm_shmem.Pptr.t
val retire_era : t -> int -> Cxlshm_shmem.Pptr.t
val retire_slot : t -> int -> int -> Cxlshm_shmem.Pptr.t

val domain_class_head : t -> int -> int -> Cxlshm_shmem.Pptr.t
(** [domain_class_head lay d c] — head word of domain [d]'s sharded free
    stack for size class [c] (packed {tag, pptr} Treiber stack, same shape
    as {!seg_client_free}). Only present when [Config.num_domains > 0]. *)

(** {1 Queue directory} *)

val queue_slot_words : int
val queue_slot : t -> int -> Cxlshm_shmem.Pptr.t

val queue_max_channel_segs : int
(** Maximum private sub-heap segments one RPC channel can register. *)

val queue_slot_nsegs : t -> int -> Cxlshm_shmem.Pptr.t
(** Count word of queue [q]'s channel sub-heap registry (directory slot
    word +4; the 8-word slot only uses +0..+3 for the queue itself). *)

val queue_slot_seg : t -> int -> int -> Cxlshm_shmem.Pptr.t
(** [queue_slot_seg lay q k] — registry word [k] (directory slot word
    +5+k), holding segment index + 1, or 0 when unused. *)

(** {1 Named persistent roots (§6.4.1)} *)

val root_slots : int
val root_slot : t -> int -> Cxlshm_shmem.Pptr.t
(** Directory slot [i]: {v +0 state/name-hash, +1 counted obj pointer v}. *)

(** {1 Recovery area}

    One word, the recovery lock, padded to a fixed {!recovery_area_words}:
    the size the retired persistent teardown worklist had on
    {!Config.default}. The pad keeps the limbo pool, the trace rings and
    every segment at their old addresses, because segment bases feed the
    direct-mapped cache filter ({!Cxlshm_shmem.Stats}) and a moved base
    would shift gated numbers by aliasing alone. The re-baseline onto a
    set-associative filter (ROADMAP item 1) drops the pad. *)

val recovery_area_words : int

val recovery_lock : t -> Cxlshm_shmem.Pptr.t
(** [0] when free, else [cid + 1] of the client being recovered: a
    recovery service that dies mid-way leaves it set, and the next one
    finishes that recovery first ({!Recovery.resume_interrupted}). *)

(** {1 Limbo pool}

    Arena-wide region of {!limbo_rows} rows ({!Limbo}). Each row has an
    owner word — all owner words sit together at the start of the region,
    so a pool scan reads them sequentially — and {!limbo_row_words} words
    of {!limbo_row_entries} entries [{stamp, rr}]: a rootref parking a
    displaced object and the retire epoch that gates its release. The
    owner word is [0] (free), [cid + 1] (owned; only the owner writes the
    row's entries) or {!limbo_orphaned} (the owner died; a successor
    adopts the row with one CAS, or the leak scan drains it). An entry's
    rr word is its commit point: the stamp is written and fenced first,
    and rr = 0 marks the entry free whatever the stamp word holds. The
    pool holds at least [max_clients * Config.park_slots] entries. *)

val limbo_row_entries : int
val limbo_row_words : int
val limbo_orphaned : int
val limbo_rows : t -> int
val limbo_owner : t -> int -> Cxlshm_shmem.Pptr.t
val limbo_stamp : t -> int -> int -> Cxlshm_shmem.Pptr.t
val limbo_rr : t -> int -> int -> Cxlshm_shmem.Pptr.t
(** [limbo_stamp/rr lay r k] — the two words of entry [k] of row [r]. *)

(** {1 Trace rings}

    One fixed-size event ring per client, written by the observability layer
    ({!Trace}) with control-plane stores so a dead client's last events
    survive in shared memory for the monitor and [cxlshm trace]. Ring layout:
    a monotone write-cursor word, a reserved word, then
    [Config.trace_slots] slots of {!trace_slot_words} words each
    ({v tag, addr, era, dur_ns, t_ns v}); the slot for event [n] is
    [n mod trace_slots]. *)

val trace_hdr_words : int
val trace_slot_words : int

val trace_ring : t -> int -> Cxlshm_shmem.Pptr.t
(** Base of client [i]'s ring (= its cursor word). *)

val trace_cursor : t -> int -> Cxlshm_shmem.Pptr.t
val trace_slot : t -> int -> int -> Cxlshm_shmem.Pptr.t
(** [trace_slot lay cid k] — first word of slot [k] of client [cid]. *)

(** {1 Segments, pages, blocks} *)

val num_pages_total : t -> int
val segment_base : t -> int -> Cxlshm_shmem.Pptr.t
val segment_of_addr : t -> Cxlshm_shmem.Pptr.t -> int
(** Segment index containing an address inside the segments area. Raises
    [Invalid_argument] for addresses outside it. *)

val page_meta_words : int

(** Page metas: kind, block_words, capacity, free-list head, used count. *)

val page_gid : t -> seg:int -> page:int -> int
(** Global page id = seg * pages_per_segment + page. *)

val page_of_gid : t -> int -> int * int
val page_meta : t -> gid:int -> Cxlshm_shmem.Pptr.t
val page_kind : t -> gid:int -> Cxlshm_shmem.Pptr.t
val page_block_words : t -> gid:int -> Cxlshm_shmem.Pptr.t
val page_capacity : t -> gid:int -> Cxlshm_shmem.Pptr.t
val page_free : t -> gid:int -> Cxlshm_shmem.Pptr.t
val page_used : t -> gid:int -> Cxlshm_shmem.Pptr.t
val page_aux : t -> gid:int -> Cxlshm_shmem.Pptr.t
(** Spare per-page meta word (huge objects store their segment span here). *)

val page_aux2 : t -> gid:int -> Cxlshm_shmem.Pptr.t
(** Second spare meta word. A huge run's head page stores the object's true
    [data_words] here, since the packed meta word's field saturates (the
    object header's data_words field is narrower than a maximal run). *)

val page_area : t -> gid:int -> Cxlshm_shmem.Pptr.t
val page_gid_of_addr : t -> Cxlshm_shmem.Pptr.t -> int
(** Global page id of the page area containing [addr]. Raises
    [Invalid_argument] if [addr] lies in a segment header or outside the
    segments area. *)

val block_addr : t -> gid:int -> block_words:int -> int -> Cxlshm_shmem.Pptr.t
