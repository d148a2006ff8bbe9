(* Non-atomic single-domain backend: a plain int array. No Atomic boxes
   means no per-word indirection and no memory-model traffic, so
   deterministic unit tests and single-threaded benches run fast. Like every
   backend it is a bare transport: the [Mem] wrapper meters its traffic in
   [Stats].

   NOT safe across domains — concurrent suites must use Backend_flat or
   Backend_striped. *)

type t = { cells : int array; tier : Latency.tier }

let create ?(tier = Latency.Cxl) ~words () = { cells = Array.make words 0; tier }
let name _ = "counting-fast"
let words t = Array.length t.cells
let num_devices _ = 1
let device_of _ _ = 0
let device_tier t _ = t.tier
let load t p = t.cells.(p)
let store t p v = t.cells.(p) <- v

let cas t p ~expected ~desired =
  if t.cells.(p) = expected then begin
    t.cells.(p) <- desired;
    true
  end
  else false

let fetch_add t p n =
  let v = t.cells.(p) in
  t.cells.(p) <- v + n;
  v

let snapshot t = Array.copy t.cells
let restore t ws = Array.blit ws 0 t.cells 0 (Array.length ws)
