(** Lock-free single-producer single-consumer ring on shared memory.

    The plain-word cousin of the reference-transfer queue (§5.2): it moves
    uncounted 63-bit words (typically process-independent pointers whose
    lifetime is managed elsewhere). Used as the communication channel of the
    inter-thread baseline in Fig 8 ("pure SPSC reference exchange") and by
    the model checker's [spsc] scenario.

    Lamport's classic algorithm: the producer owns [tail], the consumer owns
    [head]; both are plain word slots in the shared arena, so two domains on
    two simulated "machines" can use one queue. Every operation takes the
    acting side's counters and line state ({!Cxlshm_shmem.Mem.load}). *)

type t

val words_needed : capacity:int -> int
(** Shared words to reserve for a queue of [capacity] slots. *)

val create :
  Cxlshm_shmem.Mem.t ->
  st:Cxlshm_shmem.Stats.t ->
  lines:Cxlshm_shmem.Lines.t ->
  base:Cxlshm_shmem.Pptr.t ->
  capacity:int ->
  t
(** Format a queue at [base] (words [base, base + words_needed)). *)

val attach :
  Cxlshm_shmem.Mem.t ->
  st:Cxlshm_shmem.Stats.t ->
  lines:Cxlshm_shmem.Lines.t ->
  base:Cxlshm_shmem.Pptr.t ->
  t
(** Open an existing queue (the peer's side). *)

val capacity : t -> int

val try_push :
  t -> st:Cxlshm_shmem.Stats.t -> lines:Cxlshm_shmem.Lines.t -> int -> bool
val try_pop :
  t -> st:Cxlshm_shmem.Stats.t -> lines:Cxlshm_shmem.Lines.t -> int option
val try_push_n :
  t ->
  st:Cxlshm_shmem.Stats.t ->
  lines:Cxlshm_shmem.Lines.t ->
  int list ->
  int
(** Push a prefix of the list limited by the free room, publishing all of
    it with a {e single} fence and tail store; returns how many were
    pushed (0 when the ring is full or the list is empty). *)

val try_pop_n :
  t ->
  st:Cxlshm_shmem.Stats.t ->
  lines:Cxlshm_shmem.Lines.t ->
  max:int ->
  int list
(** Pop up to [max] elements, releasing all their slots with a single
    fence and head store; [[]] when the ring is empty. *)

val push :
  t -> st:Cxlshm_shmem.Stats.t -> lines:Cxlshm_shmem.Lines.t -> int -> unit
(** Spin until there is room. *)

val pop :
  t -> st:Cxlshm_shmem.Stats.t -> lines:Cxlshm_shmem.Lines.t -> int
(** Spin until an element arrives. *)

val length :
  t -> st:Cxlshm_shmem.Stats.t -> lines:Cxlshm_shmem.Lines.t -> int

val mutation_unfenced_pop : bool ref
(** {b Test-only.} Re-introduces the historical missing-fence [try_pop] bug
    for the model checker's mutation self-check, expressed as the store
    reordering the missing fence permits (head published before the slot
    read). Must stay [false] outside the explorer's mutation tests. *)
