(** rpc_msg layout and zero-copy views (§6.3.1).

    A call with I input arguments is one CXLObj with I+1 embedded
    references — the first I link the inputs, the last links the output
    object — plus three plain words (function id, argument count,
    completion status). The server accesses arguments through the embedded
    references directly: no copy, no serialisation.

    A {!view} is a raw window onto an object the viewer does not own a
    counted reference to — legal exactly while something else (here: the
    rpc_msg's embedded reference) keeps it alive. A view reads the block's
    meta word once, when it is made: a live block's meta does not change
    between alloc and free, so every accessor below costs one shared access
    for the word it touches and none for the header. *)

type view

val view : Cxlshm.Ctx.t -> Cxlshm_shmem.Pptr.t -> view
val view_of_ref : Cxlshm.Cxl_ref.t -> view

val of_meta : Cxlshm.Ctx.t -> Cxlshm_shmem.Pptr.t -> meta:int -> view
(** A view over a meta word the caller already read from the block — the
    server's validation walk, which reads every block's meta exactly once
    and hands the handler views built from those reads. *)

val obj : view -> Cxlshm_shmem.Pptr.t
val data_words : view -> int
val emb_cnt : view -> int
val read_word : view -> int -> int
val write_word : view -> int -> int -> unit
val read_bytes : view -> len:int -> bytes
val write_bytes : view -> bytes -> unit

val read_bytes_at : view -> word_off:int -> len:int -> bytes
(** Byte payload starting [word_off] words into the data area. *)

val write_bytes_at : view -> word_off:int -> bytes -> unit

(** {1 rpc_msg} *)

val msg_data_words : nargs:int -> int
(** I+1 embedded slots + three plain words: function id, argument count
    and the completion status the server raises when the in-place results
    are ready. *)

val build :
  Cxlshm.Ctx.t -> func:int -> args:Cxlshm.Cxl_ref.t list -> output:Cxlshm.Cxl_ref.t -> Cxlshm.Cxl_ref.t
(** Allocate and populate an rpc_msg (the §6.3.1 client steps 1-3). *)

val nargs : view -> int
(** The argument count from the meta word ([emb_cnt - 1]), never from the
    client-written {!count_word}: the embedded-slot count is what the
    server's walk validated. *)

val well_formed : view -> bool
(** The layout {!build} gives: at least the output slot, then exactly
    [msg_data_words ~nargs] data words — so {!func}, {!count_word} and
    {!status} name plain words inside the block. *)

val func : view -> int

val count_word : view -> int
(** The argument count the client wrote. The server rejects a call whose
    count word disagrees with {!nargs}. *)

val status : view -> int
val set_status : view -> int -> unit
(** Completion flag (0 = pending); the client polls it directly — no
    response message, no copy. Written back in an eager context only
    ({!Cxlshm.Ctx.flush_unless_elided}): a lost completion word reads
    pending, which the client reports as a failed server. *)
