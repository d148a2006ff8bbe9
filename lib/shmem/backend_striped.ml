(* A sharded multi-device pool: N devices behind the switch (Fig 1), global
   addresses interleaved across them in fixed-size stripes.

   Global stripe s = addr / stripe_words lives on device s mod N, at
   device-local stripe s / N. Only the last global stripe may be partial, so
   a device's stripes are contiguous in its local array and the local offset
   of a global address is a pure computation — no per-device index tables.

   Each device carries its own Latency.tier: the wrapper uses it to charge
   accesses that cross to a device of a different tier than the pool's base
   model (the paper's per-device latency asymmetry). *)

type t = {
  devs : int Atomic.t array array;
  tiers : Latency.tier array;
  stripe_words : int;
  n : int;
  total : int;
}

let create ?(tier = Latency.Cxl) ~devices ~stripe_words ?tiers ~words () =
  if devices < 1 then invalid_arg "Backend_striped.create: devices must be >= 1";
  if stripe_words < 1 then
    invalid_arg "Backend_striped.create: stripe_words must be >= 1";
  let tiers =
    match tiers with
    | None -> Array.make devices tier
    | Some a ->
        if Array.length a <> devices then
          invalid_arg "Backend_striped.create: one tier per device required";
        Array.copy a
  in
  (* Walk the stripes once to size each device; only the final stripe may be
     partial, which keeps locate's arithmetic exact. *)
  let lens = Array.make devices 0 in
  let s = ref 0 and remaining = ref words in
  while !remaining > 0 do
    let take = min stripe_words !remaining in
    lens.(!s mod devices) <- lens.(!s mod devices) + take;
    incr s;
    remaining := !remaining - take
  done;
  {
    devs = Array.map (fun len -> Array.init len (fun _ -> Atomic.make 0)) lens;
    tiers;
    stripe_words;
    n = devices;
    total = words;
  }

let name t = Printf.sprintf "striped-%dx%d" t.n t.stripe_words
let words t = t.total
let num_devices t = t.n
let device_of t p = p / t.stripe_words mod t.n

let device_tier t d =
  if d < 0 || d >= t.n then invalid_arg "Backend_striped.device_tier";
  t.tiers.(d)

(* (device, device-local offset) of a global address. *)
let locate t p =
  let s = p / t.stripe_words in
  (s mod t.n, ((s / t.n) * t.stripe_words) + (p mod t.stripe_words))

let cell t p =
  let d, off = locate t p in
  t.devs.(d).(off)

let load t p = Atomic.get (cell t p)
let store t p v = Atomic.set (cell t p) v
let cas t p ~expected ~desired = Atomic.compare_and_set (cell t p) expected desired
let fetch_add t p n = Atomic.fetch_and_add (cell t p) n

(* Images are in global address order, so they interchange with every other
   backend's snapshot/restore. *)
let snapshot t = Array.init t.total (fun p -> load t p)
let restore t ws = Array.iteri (fun p v -> store t p v) ws
