(** Bitfield packing helpers for 63-bit shared-memory words.

    CXL-SHM packs several logical fields (client id, era, reference count,
    size class, ...) into a single word so they can be updated with one CAS.
    A {!field} describes one bitfield inside such a word; [get]/[set] extract
    and replace it without disturbing the other fields. *)

type field = private { shift : int; bits : int; mask : int }

val field : shift:int -> bits:int -> field
(** [field ~shift ~bits] describes a bitfield occupying [bits] bits starting
    at bit [shift]. Raises [Invalid_argument] if the field does not fit into
    62 bits (we keep the top bit of the 63-bit OCaml int unused so packed
    words are always non-negative). *)

val get : field -> int -> int
(** [get f w] extracts field [f] from packed word [w]. *)

val set : field -> int -> int -> int
(** [set f w v] returns [w] with field [f] replaced by [v]. Raises
    [Invalid_argument] if [v] does not fit in the field. *)

val max_value : field -> int
(** Largest value representable by the field. *)
