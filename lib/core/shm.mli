(** CXL-SHM facade — the public entry point (§3.1).

    {[
      let arena = Shm.create () in
      let a = Shm.join arena () in                    (* client A *)
      let r1 = Shm.cxl_malloc a ~size_bytes:64 () in  (* CXLRef *)
      let r2 = Cxl_ref.clone r1 in                    (* same-thread clone *)
      let q = Transfer.connect a ~receiver:(Shm.cid b) ~capacity:64 in
      ignore (Transfer.send q r1);                    (* cxl_send_to *)
      (* ... on client B: Transfer.open_from + Transfer.receive ... *)
      Cxl_ref.drop r1; Cxl_ref.drop r2
    ]} *)

type arena

val create : ?cfg:Config.t -> unit -> arena
(** Build and format a fresh shared arena (the mmap'd CXL device). *)

val mem : arena -> Cxlshm_shmem.Mem.t
val num_devices : arena -> int
(** Devices in the pool behind this arena (1 on the flat backend). *)

val layout : arena -> Layout.t
val config : arena -> Config.t

val join : arena -> ?cid:int -> unit -> Ctx.t
(** Register a client (POSIX shm/mmap attach in the real system). *)

val leave : Ctx.t -> unit

val cxl_malloc : Ctx.t -> size_bytes:int -> ?emb_cnt:int -> unit -> Cxl_ref.t
(** Allocate a CXLObj with [emb_cnt] embedded-reference slots followed by
    [size_bytes] of byte-addressable payload; returns the owning CXLRef. *)

val cxl_malloc_words : Ctx.t -> data_words:int -> ?emb_cnt:int -> unit -> Cxl_ref.t
(** Word-granularity variant ([data_words] includes the emb slots). *)

(** {1 Operations} *)

val validate : arena -> Validate.t

val fsck : arena -> Fsck.report
(** Offline verify-and-repair (see {!Fsck.repair}); disarms fault
    injection first. *)

val set_fault_injection : arena -> bool -> unit
(** Arm/disarm the [Faulty] backend wrapper, if the arena has one
    (no-op otherwise). *)

val recover : arena -> failed_cid:int -> Recovery.report
val scan_leaking : arena -> int
(** The leader's leak-scan step: drain orphaned limbo rows no announced era
    pins ({!Limbo.drain}), then run the §5.3 asynchronous scan over
    recyclable segments. Returns the segments recycled. *)

val monitor : arena -> ?id:int -> unit -> Monitor.t
(** A failure-monitor replica ([id] defaults to 0; give each replica of the
    same arena a distinct id — see {!Monitor.create}). *)

(** {1 Introspection} *)

val free_segments : arena -> int

val save : arena -> string -> unit
(** Persist the pool image to a file (quiesced use only). Models the CXL
    device's independent power domain: the pool's contents outlive every
    compute node. *)

val load : ?cfg:Config.t -> string -> arena
(** Re-attach to a persisted pool image. All client slots found alive in
    the image are declared failed and recovered (they are gone by
    definition); named roots and their object graphs survive. *)

val load_raw : ?cfg:Config.t -> string -> arena
(** Re-attach without running recovery or the leak scan — the image is
    presented exactly as saved. This is the loader fsck uses: whatever
    damage the image carries must still be observable. *)

val service_ctx : arena -> Ctx.t
(** A context for maintenance operations (stats attribution only). It acts
    as cid 0, which the first client to join also gets, so it cannot
    allocate: {!Alloc.alloc_rootref} raises [Invalid_argument]. *)
