(** The arena's format (Fig 3): how segments, pages, blocks and huge
    runs are laid out, and which words are metadata.

    A segment holds either pages of one kind each — fixed-size blocks of
    one size class, or RootRefs — or one huge run: a head segment whose
    first word after the header is the object, followed by continuation
    segments whose headers are part of the payload. That fixed shape is
    what makes the §5.3 segment-local scan, the §3.2 RootRef scan and the
    §6.2.2 oracle possible without a heap walk — provided every reader
    tells the two shapes apart the same way. So every segment-kind
    decision goes through {!classify} or {!of_state}: {!Alloc} (is a
    freed block huge?), {!Reclaim} (the §5.3 scan), {!Recovery} (whose
    pages are RootRef pages?) and every whole-arena walker ({!Validate},
    {!Fsck}, {!Cycle_gc}, {!Root_set}).

    The module sits below {!Alloc}; the root set, which needs the
    directories, is {!Root_set}. Every function reads through [read]: the
    offline tools pass [Mem.unsafe_peek], online callers [Ctx.load]. Only
    metadata is read before a word is known to be a block base, so the
    functions are safe on hostile words. *)

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

val of_state : Layout.t -> int -> page0_kind:(unit -> int) -> seg_class
(** {!classify} from a state word the caller already read; [page0_kind]
    is called only when the state leaves the class open. Lets a hot path
    keep its own loads (the allocator reads page 0's kind through its
    page-metadata mirror). *)

val is_plain : seg_class -> bool
(** {!Free} or {!Class_pages}: the page-level iterators apply. *)

val huge_obj : Layout.t -> int -> Cxlshm_shmem.Pptr.t
(** The object of a huge run headed at this segment. *)

val huge_span : read:(int -> int) -> Layout.t -> int -> int
(** Segments in the huge run headed at this segment (at least 1). *)

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

val iter_rootref_pages : read:(int -> int) -> Layout.t -> int -> (int -> unit) -> unit
(** Every RootRef page of the segment, by global page id. *)

val iter_rootrefs :
  read:(int -> int) -> Layout.t -> int -> (Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Every RootRef block of the segment, in use or not. *)

val iter_segments : read:(int -> int) -> Layout.t -> (int -> seg_class -> unit) -> unit

val iter_objects : read:(int -> int) -> Layout.t -> (Cxlshm_shmem.Pptr.t -> unit) -> unit
(** Every object block of the arena, live or not: class blocks and huge
    heads. *)
