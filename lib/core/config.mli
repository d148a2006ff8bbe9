(** Arena geometry and size-class configuration.

    Mirrors Fig 3 of the paper: the shared pool is an arena partitioned into
    fixed-size segments, each split into pages dedicated to one size class,
    each page carved into fixed-size blocks. The real system uses 64 MB
    segments; the simulator scales geometry down (configurable) so tests and
    benchmarks stay laptop-sized while preserving every structural invariant. *)

type t = {
  max_clients : int;  (** M — width of the era matrix. *)
  num_segments : int;
  pages_per_segment : int;
  page_words : int;  (** words per page area *)
  queue_slots : int;  (** transfer-queue directory capacity (§5.2) *)
  tier : Cxlshm_shmem.Latency.tier;
  backend : Cxlshm_shmem.Mem.backend_spec;
      (** Memory backend for the pool (see {!Cxlshm_shmem.Mem.backend_spec}):
          the seed's flat single-device array, a striped multi-device pool,
          or the fast non-atomic test backend. For [Striped],
          [stripe_words = 0] means "one segment per stripe" — {!Shm.create}
          resolves it to the layout's segment size so stripes are
          segment-granular. *)
  trace : bool;
      (** Enable the observability layer: per-op spans feed latency
          histograms and write events into the client's shared-memory
          event ring (see {!Trace}). Off by default; the ring region is
          reserved in the layout either way, so images stay comparable,
          but with [trace = false] every span is a single branch. *)
  trace_slots : int;
      (** Event-ring capacity per client (events kept); the ring wraps.
          Must be in [16, 2^20]. *)
  cache : bool;
      (** Client-local volatile cache tier: per-{!Ctx} DRAM mirror of
          owner-private and immutable shared words (class heads, owned
          segments' page metadata, the ownership set, segment→device
          mapping). Every mirror write is write-through, so shared memory
          always holds the truth and recovery/fsck never consult the cache;
          service contexts run with it off regardless. Ablation knob. *)
  epoch_batch : int;
      (** K > 0 enables epoch-batched retirement: a client's rootref
          releases accumulate in a volatile buffer; a full buffer of K is
          sealed into a persistent per-client retirement journal (the
          recovery service replays it) behind one fence and one journal
          flush, and the next K releases retire one sealed entry each, the
          last clearing the journal with a second flush. 0 keeps the
          eager per-release path — unit tests and explorer models rely on
          it being schedule-identical to earlier releases. Must be in
          [0, 64] (journal capacity). *)
  lease_ttl : int;
      (** Client lease lifetime in ticks of the shared logical lease clock
          ([Layout.hdr_lease_clock], advanced by every monitor pass).
          {!Client.heartbeat} extends the caller's lease deadline to
          [now + lease_ttl]; any peer observing [now > deadline] may CAS
          the slot [Alive → Suspected], and a slot still expired a further
          TTL later may be condemned [Suspected → Failed]. This catches
          {e hung} clients — live processes whose progress stalled — that
          the bare heartbeat-miss counter cannot distinguish from slow
          ones. Also bounds the monitor leader lease (same clock). Must be
          in [1, 2^20]. *)
  park_slots : int;
      (** Each client's share of the arena-wide limbo pool ({!Limbo},
          [Layout.limbo_*]): the pool holds [max_clients * park_slots]
          deferred frees — a rootref plus its retire-epoch stamp — in
          rows of [Layout.limbo_row_entries]. A writer may park beyond its
          share while free rows remain, and keeps up to its share of rows
          claimed across quiesce passes. A writer that finds the whole
          pool exhausted gets {!Limbo.Exhausted} before it allocates or
          unlinks anything; no record is ever parked volatile-only. Must
          be in [1, 2^16]. *)
}

val default : t
(** 16 clients, 64 segments × 16 pages × 8 KB pages ≈ 8 MB arena, CXL tier. *)

val small : t
(** Tiny arena for unit tests (fast to create, easy to exhaust on purpose). *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical geometry. *)

(** {1 Size classes}

    Block sizes double from [min_block_words] up to the page size; class 0 is
    the smallest. The paper's classes start at 16 bytes because every CXLObj
    carries a header; ours start at 4 words = 2 header words + 16 data bytes. *)

val header_words : int
(** Words of CXLObj header preceding the data area (packed refcount word +
    meta word). *)

val rootref_words : int  (** RootRef block size: in_use/count word + pptr. *)

val num_classes : t -> int
val class_block_words : t -> int -> int
(** Block size in words of class [i]. *)

val class_of_data_words : t -> int -> int option
(** Smallest class whose blocks hold [data_words] payload words, or [None]
    if the object is too large for any class (huge-object path). *)

val max_class_data_words : t -> int

(** {1 Page kinds} *)

val kind_unused : int
val kind_of_class : int -> int
val class_of_kind : t -> int -> int option
val kind_rootref : t -> int
val kind_huge : t -> int

val kind_quarantined : t -> int
(** Pages fsck has taken out of service (bad media, unrepairable
    geometry). A quarantined page has zeroed metadata — no capacity, no
    blocks — so validation and reclaim skip it and allocation never picks
    it; only recycling its whole segment (a fresh format after the device
    is serviced) brings the frame back. *)
