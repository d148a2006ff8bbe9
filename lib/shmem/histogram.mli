(** Log-bucketed latency histograms keyed by operation class.

    Fed by the span machinery in the core ([Trace]): a span measures one
    operation's modeled nanoseconds and records the duration into the
    histogram of its op class. Buckets double (bucket [i >= 1] covers
    [[2^(i-1), 2^i)] ns), so quantiles are exact to within one bucket
    and [record] is an array increment. *)

(** {1 Operation classes} *)

type op =
  | Alloc_small  (** size-class object allocation (RootRef + carve) *)
  | Alloc_huge  (** contiguous-segment huge-object allocation *)
  | Rootref  (** standalone RootRef allocation *)
  | Refc_attach  (** era-transaction attach *)
  | Refc_detach  (** era-transaction detach *)
  | Transfer_send  (** queue send (attach + tail publish) *)
  | Transfer_recv  (** queue receive (attach + detach + head advance) *)
  | Recovery_scan  (** recovery phases / POTENTIAL_LEAKING scan *)

val num_ops : int
val op_index : op -> int
val op_of_index : int -> op
val all_ops : op list
val op_name : op -> string
val op_of_name : string -> op option

(** {1 Histograms} *)

type t

val num_buckets : int
val create : unit -> t

val record : t -> float -> unit
(** Record one duration in nanoseconds (negative values clamp to 0). *)

val count : t -> int
val sum_ns : t -> float
val min_ns : t -> float
val max_ns : t -> float
val mean_ns : t -> float

val percentile : t -> float -> float
(** [percentile t q] for [q] in [[0, 1]]: linear interpolation inside the
    winning log bucket, clamped to the observed min/max. 0 when empty. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float

val merge : into:t -> t -> unit

val bucket_of_ns : float -> int
(** Exposed for tests. *)

(** {1 Per-op sets} *)

val create_set : unit -> t array
(** One histogram per op class, indexed by {!op_index}. *)

