(** Process-independent pointers.

    A [Pptr.t] is a word offset from the base of the shared arena — the same
    representation PMDK uses for persistent pointers and the paper uses for
    its "offset-based machine independent pointer" (§5.1). Word 0 of every
    arena is reserved, so offset 0 doubles as the null pointer. *)

type t = int

val null : t
val is_null : t -> bool
val of_word_offset : int -> t

val add : t -> int -> t
(** Pointer arithmetic in words. *)
