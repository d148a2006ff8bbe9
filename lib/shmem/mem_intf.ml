(** Pluggable arena backends — the device pool behind {!Mem}.

    The paper's target topology (Fig 1) is a *pool* of CXL devices behind a
    switch, not one flat device. A backend owns the actual word storage of
    the simulated pool and decides how global word addresses map onto
    devices; the {!Mem} wrapper layers bounds checking, bulk and byte
    operations, fences, flushes and {!Stats} attribution on top, so a
    backend only implements raw word transport plus the address→device map.

    Backend contract:

    - every address passed in is in range [\[0, words)] — the {!Mem}
      wrapper performs the {!Mem.Wild_pointer} bounds check first;
    - [load]/[store]/[cas]/[fetch_add] must be atomic across OCaml domains,
      unless the backend documents itself single-domain
      (see {!Backend_counting});
    - [snapshot]/[restore] use *global* (pool) address order regardless of
      how the backend scatters words across devices, so pool images are
      portable between backends — recovery and {!Mem.Wild_pointer}
      semantics are identical on every backend. *)

module type S = sig
  type t

  val name : t -> string
  (** Short human-readable backend id, e.g. ["flat"] or ["striped-4x8192"]. *)

  val words : t -> int

  (** {2 Device topology} *)

  val num_devices : t -> int
  val device_of : t -> int -> int
  (** Device index in [\[0, num_devices)] holding a global word address. *)

  val device_tier : t -> int -> Latency.tier
  (** Memory tier of one device — the per-device latency class {!Mem} uses
      to charge cross-device accesses. *)

  (** {2 Word transport} *)

  val load : t -> int -> int
  val store : t -> int -> int -> unit
  val cas : t -> int -> expected:int -> desired:int -> bool
  val fetch_add : t -> int -> int -> int

  (** {2 Durable image} *)

  val snapshot : t -> int array
  val restore : t -> int array -> unit
  (** [restore] may assume the array length equals [words t]. *)
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed
(** A backend module paired with one of its instances — what a {!Mem.t}
    dispatches through. *)
