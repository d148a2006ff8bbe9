(** The durable root set and the mark from it.

    The roots are every in-use RootRef's target and the entries of the
    queue directory ({!Transfer}) and the named-root directory
    ({!Named_roots}); embedded references lead on from there. This module
    sits above those two, and walks the arena through {!Heap}'s format.
    Its users are the whole-heap tools: {!Validate}, {!Fsck} and
    {!Cycle_gc}. Like {!Heap}, every function reads through [read]. *)

type holder =
  | Rootref of Cxlshm_shmem.Pptr.t  (** an in-use RootRef block *)
  | Queue_directory
  | Named_root
  | Embedded of Cxlshm_shmem.Pptr.t * int  (** object, slot index *)

val holder_name : holder -> string

val iter_roots : read:(int -> int) -> Layout.t -> (holder -> Cxlshm_shmem.Pptr.t -> unit) -> unit
(** The durable roots: every in-use RootRef's target, then the directory
    entries. *)

val iter_embedded :
  read:(int -> int) -> Cxlshm_shmem.Pptr.t -> (holder -> Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Every non-null embedded reference of an object. *)

type marks = {
  roots : int;  (** root references seen, duplicates included *)
  holders : (int, int) Hashtbl.t;
      (** every object reachable from the roots, with its holder count *)
}

val mark :
  read:(int -> int) -> Layout.t -> wild:(holder -> Cxlshm_shmem.Pptr.t -> unit) -> marks
(** Mark from the roots through embedded references. A reference that is
    not a block base ({!Heap.block_base_ok}) is passed to [wild] and
    neither counted nor followed. *)
