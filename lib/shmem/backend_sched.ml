(* Scheduler instrumentation: a wrapper over any other backend that hands
   control to a cooperative scheduler before every raw word operation.

   This is the hook the [lib/check] model checker builds on — following the
   dscheck approach, each shared-memory access is a scheduling point where
   the explorer may preempt the running logical client or inject a crash.
   The wrapper itself knows nothing about fibers or effects: it only calls
   [!hook] (when set) with a description of the access about to happen, then
   delegates to the base backend. The scheduler installs the hook around
   each fiber resumption, so scheduler/checker code running outside a fiber
   reads the pool without yielding to itself.

   A single global hook is intentional: the model checker is single-domain
   by design (fibers are coroutines, never real threads), and threading the
   hook through every [Mem.t] consumer would touch the whole system for a
   test-only concern. [Mem]'s bulk and byte operations reach the pool
   word by word, so each of their words is a scheduling point too;
   snapshot/restore are not hooked — they are durable-image paths, not the
   concurrent protocols under test. *)

type access =
  | Load of int
  | Store of int
  | Cas of int
  | Fetch_add of int
  | Fence
  | Flush of int

let access_name = function
  | Load p -> Printf.sprintf "load@%d" p
  | Store p -> Printf.sprintf "store@%d" p
  | Cas p -> Printf.sprintf "cas@%d" p
  | Fetch_add p -> Printf.sprintf "faa@%d" p
  | Fence -> "fence"
  | Flush p -> Printf.sprintf "flush@%d" p

let hook : (access -> unit) option ref = ref None
let note a = match !hook with Some f -> f a | None -> ()

type t = { base : Mem_intf.packed }

let create ~base () = { base }

(* ---- delegation shorthands ---- *)

let b_name t = let (Mem_intf.Packed ((module B), b)) = t.base in B.name b
let words t = let (Mem_intf.Packed ((module B), b)) = t.base in B.words b
let num_devices t = let (Mem_intf.Packed ((module B), b)) = t.base in B.num_devices b
let device_of t p = let (Mem_intf.Packed ((module B), b)) = t.base in B.device_of b p
let device_tier t d = let (Mem_intf.Packed ((module B), b)) = t.base in B.device_tier b d

let name t = "sched+" ^ b_name t

let load t p =
  note (Load p);
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.load b p

let store t p v =
  note (Store p);
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.store b p v

let cas t p ~expected ~desired =
  note (Cas p);
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.cas b p ~expected ~desired

let fetch_add t p n =
  note (Fetch_add p);
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.fetch_add b p n

(* Not transport operations: [Mem] calls these two hooks directly, so the
   explorer can schedule around fences and flushes. *)
let fence _ = note Fence
let flush _ p = note (Flush p)

let snapshot t =
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.snapshot b

let restore t ws =
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.restore b ws
