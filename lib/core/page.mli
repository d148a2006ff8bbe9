(** Page metadata and intrusive free lists (Fig 3, §3.3).

    A page is dedicated to one size class. Free blocks form an intrusive
    singly-linked list: the page meta's [free] word points at the first free
    block and each free block's next pointer points at the following one —
    exactly the structure §5.1's recovery guard relies on. Pages are
    single-writer (owned by the segment's client), so page meta updates are
    plain stores; crash windows are covered by write ordering (the page
    [kind] is written last during initialisation, so [kind <> unused] implies
    a complete page). *)

val next_slot_offset : kind_rootref:bool -> int
(** Where a free block stores its next pointer: word 1 for RootRef blocks,
    the first data word (after the header) otherwise. *)

val init : Ctx.t -> gid:int -> kind:int -> block_words:int -> unit
(** Build the free chain and publish the page under [kind]. *)

val reset : Ctx.t -> gid:int -> unit
(** Return the page to [kind_unused] (recovery / segment recycling). *)

val kind : Ctx.t -> gid:int -> int
val free_head : Ctx.t -> gid:int -> Cxlshm_shmem.Pptr.t

val set_free_head : Ctx.t -> gid:int -> Cxlshm_shmem.Pptr.t -> unit
(** Owner-side store of the free-list head ([Alloc] interleaves it with
    RootRef linking per §5.1); write-through via the cache tier. *)

val used : Ctx.t -> gid:int -> int
val incr_used : Ctx.t -> gid:int -> unit


val push_free : Ctx.t -> gid:int -> rootref:bool -> Cxlshm_shmem.Pptr.t -> bool
(** Owner-side push of a freed block. True when the page was full, i.e.
    the push made it usable again. *)

val blocks : Ctx.t -> gid:int -> Cxlshm_shmem.Pptr.t list
(** Addresses of every block slot in the page (by capacity), for scans. *)

val block_of_addr : Ctx.t -> Cxlshm_shmem.Pptr.t -> Cxlshm_shmem.Pptr.t * int
(** [(block_base, gid)] of the block containing [addr]. Raises
    [Invalid_argument] if [addr] is not inside an initialised page. *)
