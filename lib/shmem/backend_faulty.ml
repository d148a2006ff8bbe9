(* Device-fault injection: a wrapper over any other backend that makes the
   pool misbehave the way real CXL devices do — on a deterministic,
   seed-driven schedule.

   Four fault classes, after "Towards CXL Resilience to CPU Failures" and
   the media-error concerns of the CXL memory-sharing literature:

   - {b read poison}: a load hits a poisoned line and the (simulated)
     hardware raises a machine-check instead of returning data. Transient:
     the retry re-reads a healthy copy. No state is corrupted.
   - {b torn write}: a store lands only partially — the low 32 bits of the
     new value, the high bits of the old — and faults. The partial value
     IS in memory; a successful retry overwrites it, a client that dies
     first leaves a torn word (e.g. a torn object header) for fsck.
   - {b stuck word}: the media at one address stops accepting writes; the
     store is dropped and every further store to that address faults too.
     Persistent until the device is serviced ([arm t false]).
   - {b offline window}: a whole device drops off the switch for a window
     of the operation sequence; every access to it faults until the window
     passes. Transient on the scale of a bounded-backoff retry loop iff the
     window is short.

   Scheduling is deterministic: one [Random.State] seeded from [spec.seed]
   is advanced once per armed load/store/CAS, so a given (seed, operation
   sequence) always injects the same faults — the soak harness prints the
   seed of any failing run and it replays exactly. *)

type fault_class = Read_poison | Torn_write | Stuck_word | Offline

let fault_class_name = function
  | Read_poison -> "read-poison"
  | Torn_write -> "torn-write"
  | Stuck_word -> "stuck-word"
  | Offline -> "offline"

let all_fault_classes = [ Read_poison; Torn_write; Stuck_word; Offline ]

exception
  Device_error of {
    dev : int;
    addr : int;
    fault : fault_class;
    transient : bool;
  }

(** Pure-data fault schedule (safe to embed in a marshalled [Config.t]).
    Probabilities are per raw word operation; [offline] windows are
    [(device, first_op, last_op)] inclusive ranges over the backend's raw
    operation counter. *)
type spec = {
  seed : int;
  read_poison : float;
  torn_write : float;
  stuck_word : float;
  offline : (int * int * int) list;
}

type t = {
  base : Mem_intf.packed;
  spec : spec;
  rng : Random.State.t;
  mutable ops : int;
  stuck : (int, unit) Hashtbl.t;
  mutable armed : bool;
  injected : int array; (* per fault_class injection counts *)
}

let class_index = function
  | Read_poison -> 0
  | Torn_write -> 1
  | Stuck_word -> 2
  | Offline -> 3

let create ?(armed = true) ~base ~spec () =
  {
    base;
    spec;
    rng = Random.State.make [| 0xfa017; spec.seed |];
    ops = 0;
    stuck = Hashtbl.create 16;
    armed;
    injected = Array.make 4 0;
  }

let arm t on =
  t.armed <- on;
  (* Disarming models servicing the device: stuck media is replaced, so
     writes land again — but the values the stuck words swallowed are
     gone; that logical corruption is fsck's problem. *)
  if not on then Hashtbl.reset t.stuck

let is_armed t = t.armed
let injected t = List.map (fun c -> (c, t.injected.(class_index c))) all_fault_classes

(* ---- delegation shorthands ---- *)

let b_name t = let (Mem_intf.Packed ((module B), b)) = t.base in B.name b
let words t = let (Mem_intf.Packed ((module B), b)) = t.base in B.words b
let num_devices t = let (Mem_intf.Packed ((module B), b)) = t.base in B.num_devices b
let device_of t p = let (Mem_intf.Packed ((module B), b)) = t.base in B.device_of b p
let device_tier t d = let (Mem_intf.Packed ((module B), b)) = t.base in B.device_tier b d
let b_load t p = let (Mem_intf.Packed ((module B), b)) = t.base in B.load b p
let b_store t p v = let (Mem_intf.Packed ((module B), b)) = t.base in B.store b p v

let name t = "faulty+" ^ b_name t

(* ---- injection core ---- *)

let fire t fault ~addr ~transient =
  t.injected.(class_index fault) <- t.injected.(class_index fault) + 1;
  raise (Device_error { dev = device_of t addr; addr; fault; transient })

let check_offline t addr =
  let dev = device_of t addr in
  if
    List.exists
      (fun (d, first, last) -> d = dev && t.ops >= first && t.ops <= last)
      t.spec.offline
  then fire t Offline ~addr ~transient:true

let draw t = Random.State.float t.rng 1.0

(* Every armed load/store/CAS advances both the op counter (offline windows)
   and the RNG (probabilistic classes), keeping the schedule a pure function
   of the operation sequence. *)
let tick t = t.ops <- t.ops + 1

let load t p =
  tick t;
  if t.armed then begin
    check_offline t p;
    if t.spec.read_poison > 0. && draw t < t.spec.read_poison then
      fire t Read_poison ~addr:p ~transient:true
  end;
  b_load t p

let store t p v =
  tick t;
  if t.armed then begin
    check_offline t p;
    if Hashtbl.mem t.stuck p then fire t Stuck_word ~addr:p ~transient:false;
    let d = draw t in
    if t.spec.stuck_word > 0. && d < t.spec.stuck_word then begin
      (* The word goes stuck at its current value: this store is dropped
         and every later one faults immediately. *)
      Hashtbl.replace t.stuck p ();
      fire t Stuck_word ~addr:p ~transient:false
    end;
    if t.spec.torn_write > 0. && d < t.spec.stuck_word +. t.spec.torn_write
    then begin
      (* Torn 8-byte store: only the low half lands. *)
      let old = b_load t p in
      b_store t p (old land lnot 0xffffffff lor (v land 0xffffffff));
      fire t Torn_write ~addr:p ~transient:true
    end
  end;
  b_store t p v

let cas t p ~expected ~desired =
  tick t;
  if t.armed then begin
    check_offline t p;
    if Hashtbl.mem t.stuck p then fire t Stuck_word ~addr:p ~transient:false;
    if t.spec.read_poison > 0. && draw t < t.spec.read_poison then
      fire t Read_poison ~addr:p ~transient:true
  end;
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.cas b p ~expected ~desired

let fetch_add t p n =
  tick t;
  if t.armed then begin
    check_offline t p;
    if Hashtbl.mem t.stuck p then fire t Stuck_word ~addr:p ~transient:false
  end;
  let (Mem_intf.Packed ((module B), b)) = t.base in
  B.fetch_add b p n

(* Control-plane access: fabric-manager metadata (e.g. the degraded-device
   bitmap) travels out of band, not over the faulted media path — these
   never inject and don't advance the schedule. *)
let pristine_load t p = b_load t p
let pristine_store t p v = b_store t p v

(* Maintenance paths: snapshot/restore model the pool's independent power
   domain and bypass injection entirely. *)
let snapshot t = let (Mem_intf.Packed ((module B), b)) = t.base in B.snapshot b
let restore t ws = let (Mem_intf.Packed ((module B), b)) = t.base in B.restore b ws
