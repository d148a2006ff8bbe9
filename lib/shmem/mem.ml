exception Wild_pointer of { addr : int; words : int }

type fault_class = Backend_faulty.fault_class =
  | Read_poison
  | Torn_write
  | Stuck_word
  | Offline

exception Device_error = Backend_faulty.Device_error

let fault_class_name = Backend_faulty.fault_class_name

type backend_spec =
  | Flat
  | Striped of { devices : int; stripe_words : int; tiers : Latency.tier array }
  | Counting_fast
  | Faulty of { base : backend_spec; fault_spec : Backend_faulty.spec }
  | Sched of backend_spec

type t = {
  b : Mem_intf.packed;
  words : int;
  model : Latency.t;
  dev_tiers : Latency.tier array;
  dev_models : Latency.t array;
  off_tier : bool array; (* device tier <> base tier *)
  multi : bool; (* any off-tier device: per-access device pricing needed *)
  faulty : Backend_faulty.t option;
  sched : Backend_sched.t option;
}

let words_per_line = 8 (* 64-byte cache line / 8-byte words *)

let pack (type a) (module B : Mem_intf.S with type t = a) (v : a) =
  Mem_intf.Packed ((module B), v)

let create ?(tier = Latency.Cxl) ?(backend = Flat) ~words () =
  if words <= 0 then invalid_arg "Mem.create: words must be positive";
  let rec build = function
    | Flat ->
        ( pack (module Backend_flat) (Backend_flat.create ~tier ~words ()),
          [| tier |],
          None,
          None )
    | Striped { devices; stripe_words; tiers } ->
        let tiers =
          if Array.length tiers = 0 then None else Some tiers
        in
        let s =
          Backend_striped.create ~tier ~devices ~stripe_words ?tiers ~words ()
        in
        ( pack (module Backend_striped) s,
          Array.init devices (Backend_striped.device_tier s),
          None,
          None )
    | Counting_fast ->
        ( pack (module Backend_counting) (Backend_counting.create ~tier ~words ()),
          [| tier |],
          None,
          None )
    | Faulty { base; fault_spec } ->
        let bp, dev_tiers, _, sched = build base in
        (* start disarmed: pool formatting and client registration happen on
           healthy devices; the driver arms the campaign once set up *)
        let f = Backend_faulty.create ~armed:false ~base:bp ~spec:fault_spec () in
        (pack (module Backend_faulty) f, dev_tiers, Some f, sched)
    | Sched base ->
        let bp, dev_tiers, faulty, _ = build base in
        let s = Backend_sched.create ~base:bp () in
        (pack (module Backend_sched) s, dev_tiers, faulty, Some s)
  in
  let b, dev_tiers, faulty, sched = build backend in
  let off_tier = Array.map (fun dt -> dt <> tier) dev_tiers in
  {
    b;
    words;
    model = Latency.of_tier tier;
    dev_tiers;
    dev_models = Array.map Latency.of_tier dev_tiers;
    off_tier;
    multi = Array.exists Fun.id off_tier;
    faulty;
    sched;
  }

let cost_model t = t.model
let in_bounds t p = p >= 0 && p < t.words

(* [check] and [count_access] run on every word access; they are inlined
   so that the access costs no more calls than its line classification. *)
let[@inline] check t p =
  if not (in_bounds t p) then raise (Wild_pointer { addr = p; words = t.words })

(* Backend dispatch shorthands. *)
let b_load t p =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.load bk p

let b_store t p v =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.store bk p v

let b_cas t p ~expected ~desired =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.cas bk p ~expected ~desired

let b_fetch_add t p n =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.fetch_add bk p n

let b_device_of t p =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.device_of bk p

let backend_name t =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.name bk

let num_devices t =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.num_devices bk

let device_of t p =
  check t p;
  b_device_of t p

let device_tier t d =
  if d < 0 || d >= Array.length t.dev_tiers then
    invalid_arg "Mem.device_tier: device out of range";
  t.dev_tiers.(d)

let set_fault_injection t on =
  match t.faulty with
  | Some f -> Backend_faulty.arm f on
  | None -> ()

let fault_injection_armed t =
  match t.faulty with Some f -> Backend_faulty.is_armed f | None -> false

let injected_faults t =
  match t.faulty with Some f -> Backend_faulty.injected f | None -> []

(* Re-price an access that landed on a device of a different tier than the
   pool's base model: accumulate the per-kind cost delta so modeled_ns
   charges the access at its device's tier. CPU-cache hits and hit-CAS stay
   at base cost — the cache sits in front of the link, whichever device the
   line came from. *)
let charge t (st : Stats.t) p kind =
  if t.multi then begin
    let d = b_device_of t p in
    if t.off_tier.(d) then begin
      let dm = t.dev_models.(d) and m = t.model in
      let delta =
        match kind with
        | `Seq -> dm.Latency.seq_ns -. m.Latency.seq_ns
        | `Rand -> dm.Latency.rand_ns -. m.Latency.rand_ns
        | `Cas -> dm.Latency.cas_ns -. m.Latency.cas_ns
        | `Flush -> dm.Latency.flush_ns -. m.Latency.flush_ns
      in
      st.xdev_accesses <- st.xdev_accesses + 1;
      st.xdev_ns <- st.xdev_ns +. delta
    end
  end

(* Count the access as its line state classifies it: CPU-cache hit (CXL
   memory is cacheable, so a recently-touched line costs an L1/L2 access),
   sequential (same or next line — the prefetcher hides stream crossings),
   or a random link round trip — mirroring Table 1's seq/rand split. *)
let[@inline] count_access t (st : Stats.t) lines p =
  match Lines.access lines (p / words_per_line) with
  | Seq ->
      st.seq_accesses <- st.seq_accesses + 1;
      charge t st p `Seq
  | Hit -> st.cache_hits <- st.cache_hits + 1
  | Miss ->
      st.rand_accesses <- st.rand_accesses + 1;
      charge t st p `Rand

let load t ~st ~lines p =
  check t p;
  count_access t st lines p;
  b_load t p

let store t ~st ~lines p v =
  check t p;
  count_access t st lines p;
  b_store t p v

let count_cas t (st : Stats.t) lines p =
  (* a CAS on a line this client already caches is a local atomic; a cold
     or stolen line pays the coherence round trip *)
  if Lines.touch lines (p / words_per_line) then
    st.cas_hit_ops <- st.cas_hit_ops + 1
  else begin
    st.cas_ops <- st.cas_ops + 1;
    charge t st p `Cas
  end

let cas t ~(st : Stats.t) ~lines p ~expected ~desired =
  check t p;
  count_cas t st lines p;
  let ok = b_cas t p ~expected ~desired in
  if not ok then st.cas_failures <- st.cas_failures + 1;
  ok

let fetch_add t ~st ~lines p n =
  check t p;
  count_cas t st lines p;
  b_fetch_add t p n

(* Fence/flush are not backend operations: OCaml atomics are already
   sequentially consistent, so the wrapper only meters them. The scheduler
   wrapper alone hears of them, because they are ordering points the
   explorer schedules around. *)
let fence t ~st:(st : Stats.t) =
  st.fences <- st.fences + 1;
  match t.sched with Some s -> Backend_sched.fence s | None -> ()

let flush t ~st:(st : Stats.t) p =
  check t p;
  st.flushes <- st.flushes + 1;
  charge t st p `Flush;
  match t.sched with Some s -> Backend_sched.flush s p | None -> ()

let fill t ~st ~lines p ~len v =
  if len < 0 then invalid_arg "Mem.fill: negative length";
  check t p;
  if len > 0 then check t (p + len - 1);
  for i = p to p + len - 1 do
    count_access t st lines i;
    b_store t i v
  done

let bytes_words n = (n + 6) / 7

(* 7 payload bytes per 63-bit word keeps every stored word non-negative,
   which the rest of the system assumes of packed header words too. *)
let write_bytes t ~st ~lines p b =
  let n = Bytes.length b in
  let nwords = bytes_words n in
  if nwords > 0 then begin
    check t p;
    check t (p + nwords - 1)
  end;
  for w = 0 to nwords - 1 do
    let acc = ref 0 in
    for k = 6 downto 0 do
      let idx = (w * 7) + k in
      let byte = if idx < n then Char.code (Bytes.unsafe_get b idx) else 0 in
      acc := (!acc lsl 8) lor byte
    done;
    count_access t st lines (p + w);
    b_store t (p + w) !acc
  done

let read_bytes t ~st ~lines p ~len =
  if len < 0 then invalid_arg "Mem.read_bytes: negative length";
  let nwords = bytes_words len in
  if nwords > 0 then begin
    check t p;
    check t (p + nwords - 1)
  end;
  let b = Bytes.create len in
  for w = 0 to nwords - 1 do
    count_access t st lines (p + w);
    let v = b_load t (p + w) in
    for k = 0 to 6 do
      let idx = (w * 7) + k in
      if idx < len then
        Bytes.unsafe_set b idx (Char.chr ((v lsr (8 * k)) land 0xff))
    done
  done;
  b

let blit t ~st ~lines ~src ~dst ~len =
  if len < 0 then invalid_arg "Mem.blit: negative length";
  if len > 0 then begin
    check t src;
    check t (src + len - 1);
    check t dst;
    check t (dst + len - 1)
  end;
  (* memmove: when the destination overlaps past the source a forward copy
     would read already-overwritten words, so copy backward. *)
  if src < dst && src + len > dst then
    for i = len - 1 downto 0 do
      count_access t st lines (src + i);
      let v = b_load t (src + i) in
      count_access t st lines (dst + i);
      b_store t (dst + i) v
    done
  else
    for i = 0 to len - 1 do
      count_access t st lines (src + i);
      let v = b_load t (src + i) in
      count_access t st lines (dst + i);
      b_store t (dst + i) v
    done

let unsafe_peek t p =
  check t p;
  b_load t p

let unsafe_poke t p v =
  check t p;
  b_store t p v

(* Control-plane words (the degraded-device bitmap) are fabric-manager
   metadata reached out of band: they stay accessible while the data path
   faults, or escalation could be swallowed by the very fault it records. *)
let ctl_peek t p =
  check t p;
  match t.faulty with
  | Some f -> Backend_faulty.pristine_load f p
  | None -> b_load t p

let ctl_poke t p v =
  check t p;
  match t.faulty with
  | Some f -> Backend_faulty.pristine_store f p v
  | None -> b_store t p v

let snapshot t =
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.snapshot bk

let restore t ws =
  if Array.length ws <> t.words then invalid_arg "Mem.restore: size mismatch";
  let (Mem_intf.Packed ((module B), bk)) = t.b in
  B.restore bk ws
