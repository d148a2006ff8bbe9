module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Lines = Cxlshm_shmem.Lines
module Latency = Cxlshm_shmem.Latency

let name = "buddy (Lightning)"
let min_order = 1 (* 2 words *)

(* Layout: +0 lock, +1.. free-list heads per order, then order map (one
   word per min-granule recording {order+1, allocated flag}), then the
   heap. Free blocks chain through their first word. *)
type t = {
  mem : Mem.t;
  max_order : int;
  heads_base : int;
  order_map_base : int;
  heap_base : int;
  heap_words : int;
  threads : int;
  serial : Stats.t;  (** everything happens under the global lock *)
  serial_lines : Lines.t;
  lock : Mutex.t;  (** host-side mutex standing in for the spinlock *)
}

type thread = { a : t; st : Stats.t; lines : Lines.t }

let tier _ = Latency.Local_numa

(* All metadata traffic happens under the global lock: it is counted in
   [serial], and [serial_lines] is its one line state. *)
let load a p = Mem.load a.mem ~st:a.serial ~lines:a.serial_lines p
let store a p v = Mem.store a.mem ~st:a.serial ~lines:a.serial_lines p v

let create ~words ~threads =
  (* Pick the largest power-of-two heap that fits with its metadata. *)
  let rec pick order =
    let heap = 1 lsl order in
    let granules = heap lsr min_order in
    if 1 + (order + 1) + granules + heap > words then pick (order - 1)
    else (order, heap, granules)
  in
  let max_order, heap_words, granules = pick 40 in
  if max_order <= min_order then invalid_arg "Buddy.create: arena too small";
  let mem = Mem.create ~tier:Latency.Local_numa ~words () in
  let heads_base = 1 in
  let order_map_base = heads_base + max_order + 1 in
  let heap_base = order_map_base + granules in
  let t =
    {
      mem;
      max_order;
      heads_base;
      order_map_base;
      heap_base;
      heap_words;
      threads;
      serial = Stats.create ();
      serial_lines = Lines.create ();
      lock = Mutex.create ();
    }
  in
  (* One block of the maximal order. *)
  store t (heads_base + max_order) t.heap_base;
  store t t.heap_base 0;
  t

let thread a tid =
  if tid < 0 || tid >= a.threads then invalid_arg "Buddy.thread";
  { a; st = Stats.create (); lines = Lines.create () }

let stats th = th.st
let serial_stats a = a.serial

let granule a b = (b - a.heap_base) lsr min_order

let set_meta a b ~order ~allocated =
  store a (a.order_map_base + granule a b)
    (((order + 1) lsl 1) lor (if allocated then 1 else 0))

let get_meta a b =
  let v = load a (a.order_map_base + granule a b) in
  ((v lsr 1) - 1, v land 1 = 1)

let order_of_bytes size_bytes =
  let words = max 2 ((size_bytes + 7) / 8) in
  let rec go o = if 1 lsl o >= words then o else go (o + 1) in
  go min_order

let head_addr a o = a.heads_base + o

let pop_head a o =
  let h = load a (head_addr a o) in
  if h = 0 then None
  else begin
    store a (head_addr a o) (load a h);
    Some h
  end

let push_head a o b =
  store a b (load a (head_addr a o));
  store a (head_addr a o) b

let rec take a o =
  if o > a.max_order then raise Out_of_memory;
  match pop_head a o with
  | Some b -> b
  | None ->
      (* split a larger block *)
      let big = take a (o + 1) in
      let half = big + (1 lsl o) in
      set_meta a half ~order:o ~allocated:false;
      push_head a o half;
      big

(* The entire operation holds the global lock — Lightning's design. The
   host mutex provides mutual exclusion between domains; the CAS on word 0
   models the spinlock acquisition cost. *)
let with_lock th f =
  let a = th.a in
  Mutex.lock a.lock;
  let rec spin () =
    if
      not
        (Mem.cas a.mem ~st:a.serial ~lines:a.serial_lines 0 ~expected:0
           ~desired:1)
    then spin ()
  in
  spin ();
  Fun.protect
    ~finally:(fun () ->
      store a 0 0;
      Mutex.unlock a.lock)
    f

let alloc th ~size_bytes =
  with_lock th (fun () ->
      let a = th.a in
      let o = order_of_bytes size_bytes in
      let b = take a o in
      set_meta a b ~order:o ~allocated:true;
      b)

let rec coalesce a b o =
  if o >= a.max_order then push_head a o b
  else begin
    let buddy = a.heap_base + ((b - a.heap_base) lxor (1 lsl o)) in
    let border, balloc = get_meta a buddy in
    if (not balloc) && border = o then begin
      (* unlink buddy from its free list (linear scan, as in simple
         implementations) *)
      let rec unlink prev cur =
        if cur = 0 then false
        else if cur = buddy then begin
          let next = load a cur in
          (if prev = 0 then store a (head_addr a o) next
           else store a prev next);
          true
        end
        else unlink cur (load a cur)
      in
      if unlink 0 (load a (head_addr a o)) then begin
        let merged = min b buddy in
        set_meta a merged ~order:(o + 1) ~allocated:false;
        coalesce a merged (o + 1)
      end
      else push_head a o b
    end
    else push_head a o b
  end

let free th b =
  with_lock th (fun () ->
      let a = th.a in
      let o, allocated = get_meta a b in
      if not allocated then invalid_arg "Buddy.free: double free";
      set_meta a b ~order:o ~allocated:false;
      coalesce a b o)

let write_word th b i v = Mem.store th.a.mem ~st:th.st ~lines:th.lines (b + i) v
let read_word th b i = Mem.load th.a.mem ~st:th.st ~lines:th.lines (b + i)
