(** Persistent named roots (§6.4.1).

    "Some persistent root objects (akin to pmem allocators) are needed if
    users intend to keep alive certain data even if all clients are
    temporarily crashed. This functionality can be implemented by adding a
    special API to CXL-SHM." — this is that API.

    The arena keeps a small well-known directory of name → counted object
    reference. A published object survives the death of {e every} client:
    its directory entry holds a reference of its own, recovery never touches
    completed entries, and a later client can {!lookup} the name to re-hang
    the data. Publication/removal are resumable era transactions: a client
    dying mid-publish leaves a half-claimed slot that its recovery rolls
    back or completes.

    Names are matched by 40-bit hash (collisions raise on [publish]). *)

exception Name_taken of string
exception Directory_full

val publish : Ctx.t -> name:string -> Cxl_ref.t -> unit
(** Register [name] → the handle's object; the directory takes its own
    counted reference (the caller keeps its handle). *)

val lookup : Ctx.t -> name:string -> Cxl_ref.t option
(** Take a fresh counted reference to the named object. *)

val unpublish : Ctx.t -> name:string -> bool
(** Drop the directory's reference (the object dies if that was the last
    one). [false] if the name is not present. *)

val names_hashes : Ctx.t -> int list
(** Hashes of currently published names (introspection). *)

val recover_endpoints :
  Ctx.t -> failed_cid:int -> reclaim:(Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Roll back / complete half-done publish/unpublish operations of a dead
    client, releasing through {!Reclaim.release_as}. Completed entries are
    left alone — that is the point. *)

val directory_refs : read:(int -> int) -> Layout.t -> Cxlshm_shmem.Pptr.t list
(** Root-set helper ({!Heap.iter_roots}): object pointers currently held by
    the directory, read through [read]. *)

val clear_wild_directory_refs :
  Cxlshm_shmem.Mem.t -> Layout.t -> valid:(Cxlshm_shmem.Pptr.t -> bool) -> int
(** Fsck helper (offline use only): drop every published name whose object
    pointer fails [valid]; returns how many slots were cleared. *)
