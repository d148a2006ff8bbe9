(** Simulated CXL-attached shared memory.

    The arena is a pool of 63-bit words addressed by global word offset and
    served by a pluggable {e backend} (see {!Mem_intf.S}): a single flat
    device, a sharded multi-device pool striped across N devices, or a fast
    non-atomic single-domain array. Whatever the backend, the wrapper gives
    the exact primitive set the paper requires of the underlying RDSM (§3):
    load, store, CAS, fence and flush over a byte-addressable pool — with
    *real* atomicity and real interleavings across domains on the atomic
    backends, not a replayed trace.

    Every operation is attributed to a caller-supplied {!Stats.t} so modeled
    time can be computed per client, and every word access is classified by
    the caller's {!Lines.t} (cache hit, sequential or random). On a
    multi-device pool, accesses that land on a device of a different
    {!Latency.tier} than the pool's base model are re-priced at their
    device's tier ({!Stats.t.xdev_ns}).
    Out-of-bounds accesses raise {!Wild_pointer} on every backend: in the
    simulator a wild pointer is detected rather than silently corrupting,
    which the correctness tests rely on. *)

exception Wild_pointer of { addr : int; words : int }

(** {1 Device faults}

    Re-exported from {!Backend_faulty}: the [Faulty] backend wrapper raises
    {!Device_error} on injected device faults (poisoned reads, torn writes,
    stuck words, offline windows). Transient faults heal on retry; the
    retry/backoff layer in [lib/core] decides when to give up and mark the
    device degraded. *)

type fault_class = Backend_faulty.fault_class =
  | Read_poison  (** poisoned load; transient, no corruption *)
  | Torn_write  (** store landed partially (low half only); transient *)
  | Stuck_word  (** media dropped the store, address stuck; persistent *)
  | Offline  (** whole device off the switch for an op-count window *)

exception
  Device_error of {
    dev : int;
    addr : int;
    fault : fault_class;
    transient : bool;
  }

val fault_class_name : fault_class -> string

type t

(** {1 Backends} *)

type backend_spec =
  | Flat  (** The seed backend: one flat atomic-word array (one device). *)
  | Striped of { devices : int; stripe_words : int; tiers : Latency.tier array }
      (** Multi-device pool (Fig 1): global addresses interleaved across
          [devices] in stripes of [stripe_words] words. [tiers] gives each
          device its own latency tier ([[||]] = every device at the pool's
          base tier). Atomic across domains, like [Flat]. *)
  | Counting_fast
      (** Non-atomic plain-array backend: deterministic and fast,
          single-domain only; metered by {!Stats} like every backend. *)
  | Faulty of { base : backend_spec; fault_spec : Backend_faulty.spec }
      (** Any of the above wrapped in seed-scheduled device-fault injection
          (see {!Backend_faulty}). *)
  | Sched of backend_spec
      (** Any of the above wrapped in scheduler instrumentation: every raw
          load/store/CAS/fetch-add/fence/flush first calls
          {!Backend_sched.hook}, the preemption point the [lib/check] model
          checker schedules around. Single-domain only (the hook is global
          process state). *)

val create : ?tier:Latency.tier -> ?backend:backend_spec -> words:int -> unit -> t
(** Fresh zeroed arena of [words] 8-byte words. Default tier is [Cxl];
    default backend is [Flat], which is behavior-identical to the
    pre-backend arena. *)

val backend_name : t -> string
val num_devices : t -> int

val device_of : t -> Pptr.t -> int
(** Device index in [\[0, num_devices)] serving a pool address — the
    segment→device map allocation placement uses. Raises {!Wild_pointer}
    out of bounds. *)

val device_tier : t -> int -> Latency.tier
(** Latency tier of one device. *)

val set_fault_injection : t -> bool -> unit
(** Arm or disarm fault injection. A [Faulty] pool starts {e disarmed} so
    formatting and client registration happen on healthy devices — arm it
    to begin the campaign. Disarming models servicing the device: no new
    faults fire and stuck media is replaced, but values already swallowed
    or torn stay corrupted. No-op on non-faulty backends. *)

val fault_injection_armed : t -> bool

val injected_faults : t -> (fault_class * int) list
(** Per-class injected-fault counts ([[]] on non-faulty backends). *)

val cost_model : t -> Latency.t

val words_per_line : int
(** Words per simulated 64-byte cache line. *)

(** {1 Primitive operations} *)

val load : t -> st:Stats.t -> lines:Lines.t -> Pptr.t -> int
val store : t -> st:Stats.t -> lines:Lines.t -> Pptr.t -> int -> unit

val cas :
  t -> st:Stats.t -> lines:Lines.t -> Pptr.t -> expected:int -> desired:int -> bool
(** Single-word compare-and-swap, the primitive the era algorithm builds on. *)

val fetch_add : t -> st:Stats.t -> lines:Lines.t -> Pptr.t -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val fence : t -> st:Stats.t -> unit
(** Store fence (sfence). Orders this client's prior stores before later
    ones. Atomics already give sequential consistency in OCaml, so the fence
    only needs to be *counted* — but it still matters: the fault-injection
    harness uses fence positions as the boundaries where a crash may observe
    reordered stores. *)

val flush : t -> st:Stats.t -> Pptr.t -> unit
(** Cache-line write-back (clwb) of the line containing the address. *)

(** {1 Bulk operations} *)

val fill : t -> st:Stats.t -> lines:Lines.t -> Pptr.t -> len:int -> int -> unit

val write_bytes : t -> st:Stats.t -> lines:Lines.t -> Pptr.t -> bytes -> unit
(** Pack a byte string into consecutive words (7 payload bytes per word, so
    every stored word stays non-negative). Use [read_bytes] to recover it. *)

val read_bytes : t -> st:Stats.t -> lines:Lines.t -> Pptr.t -> len:int -> bytes

val bytes_words : int -> int
(** Words consumed by [write_bytes] for a payload of [n] bytes. *)

val blit :
  t -> st:Stats.t -> lines:Lines.t -> src:Pptr.t -> dst:Pptr.t -> len:int -> unit
(** Word-wise copy inside the arena, with [memmove] semantics: overlapping
    ranges copy correctly in either direction. *)

(** {1 Validation / introspection (simulator-only, not part of the RDSM)} *)

val unsafe_peek : t -> Pptr.t -> int
(** Read without stats attribution — for validators and debug printers. *)

val unsafe_poke : t -> Pptr.t -> int -> unit

val ctl_peek : t -> Pptr.t -> int
(** Control-plane read: fabric-manager metadata (the degraded-device
    bitmap) travels out of band, so it never faults and does not advance
    the injection schedule. Equivalent to {!unsafe_peek} on non-faulty
    backends. *)

val ctl_poke : t -> Pptr.t -> int -> unit

val snapshot : t -> int array
(** Copy of every word in global address order (quiesced use only) — the
    pool's durable image, portable across backends. *)

val restore : t -> int array -> unit
(** Overwrite the arena with a {!snapshot} of identical size. *)
