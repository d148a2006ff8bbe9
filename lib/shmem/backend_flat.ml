(* The seed backend: one flat atomic-word array — a single CXL device.
   Behavior-identical to the pre-backend-refactor arena. *)

type t = { cells : int Atomic.t array; tier : Latency.tier }

let create ?(tier = Latency.Cxl) ~words () =
  { cells = Array.init words (fun _ -> Atomic.make 0); tier }

let name _ = "flat"
let words t = Array.length t.cells
let num_devices _ = 1
let device_of _ _ = 0
let device_tier t _ = t.tier
let load t p = Atomic.get t.cells.(p)
let store t p v = Atomic.set t.cells.(p) v

let cas t p ~expected ~desired =
  Atomic.compare_and_set t.cells.(p) expected desired

let fetch_add t p n = Atomic.fetch_and_add t.cells.(p) n
let snapshot t = Array.map Atomic.get t.cells
let restore t ws = Array.iteri (fun i v -> Atomic.set t.cells.(i) v) ws
