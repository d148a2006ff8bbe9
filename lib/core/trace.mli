(** Observability layer: event tracing + latency spans.

    A span ({!with_span}) wraps one hot-path operation. When the context's
    [trace_on] switch is off the span is a single branch; when on it

    - snapshots the client's {!Cxlshm_shmem.Stats} before/after and records
      the operation's modeled nanoseconds into the per-op histogram
      ([ctx.hists]), and
    - writes [Begin] / [End] (or [Err]) events into the client's
      fixed-size event ring in shared memory.

    Ring writes use control-plane stores ([Mem.ctl_poke]): no stats, no
    fault injection, no modeled-clock perturbation — and because the ring
    lives in the arena, a client killed mid-operation leaves its last
    events behind for the monitor, fsck and [cxlshm trace]. *)

type phase = Begin | End | Err

val set : Ctx.t -> bool -> unit
(** Toggle tracing for this client at runtime. *)

val emit :
  Ctx.t ->
  op:Cxlshm_shmem.Histogram.op ->
  phase:phase ->
  addr:int ->
  dur_ns:float ->
  unit
(** Append one event to the client's ring (cursor published last). *)

val with_span :
  Ctx.t -> Cxlshm_shmem.Histogram.op -> ?addr:int -> (unit -> 'a) -> 'a
(** [with_span ctx op ~addr f] runs [f], pricing it with the context's cost
    model. On exception the span emits [Err] (duration so far) and
    re-raises, so a crash-point kill is visible in the ring. *)

(** {1 Reading rings back}

    Decoding is deliberately strict: a slot whose tag does not decode is
    skipped ([dump]) or repaired ({!Fsck}). *)

type event = {
  seq : int;  (** monotone event number (ring slot = seq mod trace_slots) *)
  op : Cxlshm_shmem.Histogram.op;
  phase : phase;
  addr : int;
  era : int;  (** client's own era (Era[cid][cid]) when the event fired *)
  dur_ns : int;
  t_ns : int;  (** client's modeled clock at emission *)
}

val dump :
  Cxlshm_shmem.Mem.t -> Layout.t -> cid:int -> ?last:int -> unit -> event list
(** Events still in client [cid]'s ring, oldest first; [?last] keeps only
    the most recent [k]. Reads with control-plane loads, so it works on
    dead clients and damaged images. *)

val slot_ok : read:(Cxlshm_shmem.Pptr.t -> int) -> Cxlshm_shmem.Pptr.t -> bool
(** Whether a published ring slot is well formed: its tag decodes to an op
    and phase, and its duration and clock words are non-negative. {!Fsck}
    zeroes a ring holding any slot that is not. *)

val pp_event : Format.formatter -> event -> unit
