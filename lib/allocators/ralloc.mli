(** Ralloc-like persistent-memory allocator baseline (Fig 6, §6.2.1).

    Models Cai et al.'s lock-free pmem allocator: a mimalloc-style
    segment/page structure whose free-list updates must be persisted
    (flush + fence per allocation and per free), plus root registration
    ([set_root]) and a stop-the-world conservative garbage collection as
    crash recovery — whose cost is proportional to the {e whole heap},
    unlike CXL-SHM's recovery which is proportional to the dead client's
    RootRef count (the §6.2.1 contrast). *)

include Alloc_intf.S

val set_root : thread -> Cxlshm_shmem.Pptr.t -> unit
(** Register a root object (survives recovery). *)

val instance_of_thread : thread -> t

val recover :
  t -> st:Cxlshm_shmem.Stats.t -> lines:Cxlshm_shmem.Lines.t -> int * int
(** Stop-the-world recovery: conservative mark from the registered roots
    over every word of every carved page, then sweep unreachable blocks
    back to free lists. Returns [(live, swept)]. The [st] counters expose
    the heap-proportional cost. *)

val words_scanned : t -> int
(** Heap words the last recovery scanned. *)
