(** One context's CPU-cache line state.

    CXL memory is cacheable, so a client re-reading a line it touched
    recently pays an L1/L2 access, not a link round trip. [Lines] models
    that cache for one context: a direct-mapped filter of {!capacity}
    64-byte lines plus the last line touched, which detects sequential
    streams. {!Mem} asks it how to classify each access and counts the
    answer into a {!Stats.t}; the counters hold no line state, so they
    copy and diff as plain numbers. *)

type t

val capacity : int
(** Lines the filter holds (16,384: about 1 MiB of 64-byte lines). *)

val create : unit -> t
(** Every line cold; no stream yet. *)

val reset : t -> unit
(** Back to {!create}'s state: every line goes cold and stream detection
    restarts. *)

type kind =
  | Hit  (** cached, and not the last line or the one after it *)
  | Seq  (** the last line touched or the next one (prefetched) *)
  | Miss  (** neither: a random link round trip *)

val access : t -> int -> kind
(** Classify a load or store of line [line], then cache it and make it the
    stream's last line. *)

val touch : t -> int -> bool
(** Cache line [line] and make it the stream's last line; [true] if it was
    already cached. Prices an atomic, which never streams. *)
