(** The arena's walk-level format (Fig 3): how segments, pages, blocks
    and huge runs are laid out, and what counts as a reference holder.

    A segment holds either pages of one kind each — fixed-size blocks of
    one size class, or RootRefs — or one huge run: a head segment whose
    first word after the header is the object, followed by continuation
    segments whose headers are part of the payload. That fixed shape is
    what makes the §5.3 segment-local scan and the §6.2.2 oracle possible
    without a heap walk.

    Every whole-arena walker ({!Validate}, {!Fsck}, {!Cycle_gc},
    {!Evacuate}, and {!Recovery}'s RootRef scan) enumerates through this
    module, so they agree on what a valid object is. Every function reads
    through [read]: the offline tools pass [Mem.unsafe_peek], online
    callers [Ctx.load]. Only metadata is read before a word is known to
    be a block base, so the functions are safe on hostile words. *)

type seg_class =
  | Free  (** unowned; its pages are reset *)
  | Class_pages  (** pages of class blocks and RootRefs *)
  | Huge_head  (** the head of a huge run; the object follows the header *)
  | Huge_cont  (** a continuation of a huge run: payload, header included *)

val classify : read:(int -> int) -> Layout.t -> int -> seg_class
(** Reads the segment state and, unless it says huge, page 0's kind. A
    huge page-0 kind makes a head whatever the state word says: the kind
    is published after the [Huge_head] state and reset before the state
    returns to [Free], while leak-marking, orphaning and adoption rewrite
    the state alone. *)

val is_plain : seg_class -> bool
(** {!Free} or {!Class_pages}: the page-level iterators apply. *)

val huge_obj : Layout.t -> int -> Cxlshm_shmem.Pptr.t
(** The object of a huge run headed at this segment. *)

val huge_capacity : Layout.t -> span:int -> int
(** Data words a huge run of [span] segments can hold. *)

val huge_length_ok : read:(int -> int) -> Layout.t -> int -> bool
(** Does the head page's true-length word agree with the object's packed
    meta (which saturates at {!Obj_header.max_meta_data_words}) and fit in
    the run? 0, an image older than the word, is accepted. *)

(** {1 Blocks} *)

val block_capacity : read:(int -> int) -> Layout.t -> int -> int option
(** [Some n] when [p] is the base of a block a reference could legally
    name, [n] being the data words it can hold (block size or a huge run's
    extent, less the header). Only a {!Huge_head} base names a huge run; a
    continuation's first word is payload. The RPC receive-side walk
    ({!Cxlshm_rpc.Cxl_rpc}) reads through the server's [Ctx.load] and
    bounds each block's meta by [n]. *)

val block_base_ok : read:(int -> int) -> Layout.t -> int -> bool

val live_rootref : read:(int -> int) -> Layout.t -> int -> bool
(** Is [rr] an in-use block of a RootRef page? *)

val page_blocks : read:(int -> int) -> Layout.t -> int -> Cxlshm_shmem.Pptr.t list
(** Block bases of an initialised page (by global page id). *)

val iter_pages : read:(int -> int) -> Layout.t -> int -> (int -> int -> unit) -> unit
(** [f gid kind] for every page of a segment. The page-level iterators
    trust the segment to be {!Free} or {!Class_pages}: a continuation's
    page metadata is payload. *)

val iter_class_blocks :
  read:(int -> int) -> Layout.t -> int -> (Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Every block base of the segment's class pages. *)

val iter_rootref_pages : read:(int -> int) -> Layout.t -> int -> (int -> unit) -> unit
(** Every RootRef page of the segment, by global page id. *)

val iter_rootrefs :
  read:(int -> int) -> Layout.t -> int -> (Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Every RootRef block of the segment, in use or not. *)

val iter_segments : read:(int -> int) -> Layout.t -> (int -> seg_class -> unit) -> unit

val iter_objects : read:(int -> int) -> Layout.t -> (Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Every object block of the arena, live or not: class blocks and huge
    heads. *)

(** {1 Roots and the mark} *)

type holder =
  | Rootref of Cxlshm_shmem.Pptr.t  (** an in-use RootRef block *)
  | Queue_directory
  | Named_root
  | Embedded of Cxlshm_shmem.Pptr.t * int  (** object, slot index *)

val holder_name : holder -> string

val directory_refs : read:(int -> int) -> Layout.t -> Cxlshm_shmem.Pptr.t list
(** Objects held by the queue directory and the named-root directory. *)

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
    not a block base ({!block_base_ok}) is passed to [wild] and neither
    counted nor followed. *)
