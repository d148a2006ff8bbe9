module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Lines = Cxlshm_shmem.Lines
module Latency = Cxlshm_shmem.Latency

let name = "jemalloc"
let page_words = 512
let tcache_slots = 32

(* Layout: +0 reserved, +1 page bump, +2.. central bin heads (one per
   class, CAS'd), then per-thread tcaches (count + slots per class), then
   page areas. Central bins are Treiber stacks of blocks. *)
type t = {
  mem : Mem.t;
  num_pages : int;
  central_base : int;
  page_map_base : int;  (** class+1 of each carved page *)
  tcache_base : int;
  pages_base : int;
  nclasses : int;
  threads : int;
}

type thread = { a : t; tid : int; st : Stats.t; lines : Lines.t }

let tier _ = Latency.Local_numa

(* +0 count, +1 overflow-chain head (thread-local, no CAS), +2.. slots *)
let tcache_words = 2 + tcache_slots

let create ~words ~threads =
  let nclasses = Size_class.num_classes ~page_words in
  let overhead np = 2 + nclasses + np + (threads * nclasses * tcache_words) in
  let rec fit np =
    if overhead np + (np * page_words) > words then np - 1 else fit (np + 1)
  in
  let num_pages = fit 1 in
  if num_pages < 1 then invalid_arg "Local_jemalloc.create: arena too small";
  let mem = Mem.create ~tier:Latency.Local_numa ~words () in
  {
    mem;
    num_pages;
    central_base = 2;
    page_map_base = 2 + nclasses;
    tcache_base = 2 + nclasses + num_pages;
    pages_base = overhead num_pages;
    nclasses;
    threads;
  }

let thread a tid =
  if tid < 0 || tid >= a.threads then invalid_arg "Local_jemalloc.thread";
  { a; tid; st = Stats.create (); lines = Lines.create () }

let stats th = th.st
let serial_stats _ = Stats.create ()

(* This thread's word traffic: counted in [st], classified by [lines]. *)
let load th p = Mem.load th.a.mem ~st:th.st ~lines:th.lines p
let store th p x = Mem.store th.a.mem ~st:th.st ~lines:th.lines p x
let cas th p ~expected ~desired =
  Mem.cas th.a.mem ~st:th.st ~lines:th.lines p ~expected ~desired
let fetch_add th p n = Mem.fetch_add th.a.mem ~st:th.st ~lines:th.lines p n

let central_addr a c = a.central_base + c
let tcache_addr a tid c = a.tcache_base + (((tid * a.nclasses) + c) * tcache_words)

(* Carve a fresh page directly into the central bin of class [c]. *)
let refill_central th c =
  let a = th.a in
  let p = fetch_add th 1 1 in
  if p >= a.num_pages then raise Out_of_memory;
  store th (a.page_map_base + p) (c + 1);
  let bw = Size_class.block_words c in
  let cap = page_words / bw in
  let base = a.pages_base + (p * page_words) in
  (* chain the new blocks, then CAS the chain onto the bin *)
  for i = 0 to cap - 2 do
    store th (base + (i * bw)) (base + ((i + 1) * bw))
  done;
  let last = base + ((cap - 1) * bw) in
  let rec splice () =
    let cur = load th (central_addr a c) in
    store th last cur;
    if not (cas th (central_addr a c) ~expected:cur ~desired:base)
    then splice ()
  in
  splice ()

(* Refill the tcache from the thread-local overflow chain; when that is
   empty, swap the whole central bin in with a single CAS (jemalloc batches
   central-bin synchronisation, it never pays a CAS per block). *)
let rec refill_tcache th c =
  let a = th.a in
  let tc = tcache_addr a th.tid c in
  let overflow = tc + 1 in
  let rec swap_central () =
    let cur = load th (central_addr a c) in
    if cur = 0 then false
    else if cas th (central_addr a c) ~expected:cur ~desired:0
    then begin
      store th overflow cur;
      true
    end
    else swap_central ()
  in
  let count = ref (load th tc) in
  let target = tcache_slots / 2 in
  let rec fill () =
    if !count < target then begin
      let head = load th overflow in
      if head <> 0 then begin
        store th overflow (load th head);
        store th (tc + 2 + !count) head;
        incr count;
        fill ()
      end
      else if swap_central () then fill ()
      else begin
        refill_central th c;
        ignore (swap_central ());
        fill ()
      end
    end
  in
  fill ();
  store th tc !count;
  if !count = 0 then refill_tcache th c

let alloc th ~size_bytes =
  let a = th.a in
  let c = Size_class.class_of_bytes ~page_words size_bytes in
  let tc = tcache_addr a th.tid c in
  let count = load th tc in
  if count = 0 then begin
    refill_tcache th c;
    let count = load th tc in
    let b = load th (tc + 1 + count) in
    store th tc (count - 1);
    b
  end
  else begin
    let b = load th (tc + 1 + count) in
    store th tc (count - 1);
    b
  end

let free th b =
  let a = th.a in
  (* Pages are homogeneous; the page map recovers the block's class. *)
  let p = (b - a.pages_base) / page_words in
  let c = load th (a.page_map_base + p) - 1 in
  let tc = tcache_addr a th.tid c in
  let count = load th tc in
  if count >= tcache_slots - 1 then begin
    (* overflow to the thread-local chain — no synchronisation *)
    let overflow = tc + 1 in
    store th b (load th overflow);
    store th overflow b
  end
  else begin
    store th (tc + 2 + count) b;
    store th tc (count + 1)
  end

let write_word th b i v = store th (b + i) v
let read_word th b i = load th (b + i)
