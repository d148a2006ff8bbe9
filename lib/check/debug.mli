(** Human-readable arena introspection.

    Read-only dumps of the shared pool's management state — client slots,
    the era matrix, the segment vector, page occupancy, queue and root
    directories — for debugging applications and for the CLI. All reads are
    unattributed ({!Cxlshm_shmem.Mem.unsafe_peek}), so dumping does not
    perturb benchmark statistics. *)

open Cxlshm

val pp_clients : Format.formatter -> Cxlshm_shmem.Mem.t * Layout.t -> unit
val pp_era_matrix : Format.formatter -> Cxlshm_shmem.Mem.t * Layout.t -> unit
val pp_segments : Format.formatter -> Cxlshm_shmem.Mem.t * Layout.t -> unit
val pp_queues : Format.formatter -> Cxlshm_shmem.Mem.t * Layout.t -> unit
val pp_roots : Format.formatter -> Cxlshm_shmem.Mem.t * Layout.t -> unit

val pp_arena : Format.formatter -> Cxlshm_shmem.Mem.t * Layout.t -> unit
(** All of the above. *)

val summary : Cxlshm_shmem.Mem.t -> Layout.t -> string
(** One-line arena summary: clients alive, segments used, pages carved. *)
