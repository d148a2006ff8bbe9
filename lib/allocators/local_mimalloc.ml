module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Lines = Cxlshm_shmem.Lines
module Latency = Cxlshm_shmem.Latency

let name = "mimalloc"
let page_words = 512

(* Layout: +0 reserved, +1 page-bump counter, +2.. per-page free heads,
   then the thread tables (current page per class), then page areas. *)
type t = {
  mem : Mem.t;
  num_pages : int;
  meta_base : int;
  thread_base : int;
  pages_base : int;
  nclasses : int;
  threads : int;
}

type thread = {
  a : t;
  tid : int;
  st : Stats.t;
  lines : Lines.t;
  pages : int list array;  (** per-class pages owned by this thread *)
}

let tier _ = Latency.Local_numa

let create ~words ~threads =
  let nclasses = Size_class.num_classes ~page_words in
  (* Solve for the page count that fits in [words]. *)
  let overhead np = 2 + np + (threads * nclasses) in
  let rec fit np = if overhead np + (np * page_words) > words then np - 1 else fit (np + 1) in
  let num_pages = fit 1 in
  if num_pages < threads then invalid_arg "Local_mimalloc.create: arena too small";
  let mem = Mem.create ~tier:Latency.Local_numa ~words () in
  {
    mem;
    num_pages;
    meta_base = 2;
    thread_base = 2 + num_pages;
    pages_base = overhead num_pages;
    nclasses;
    threads;
  }

let thread a tid =
  if tid < 0 || tid >= a.threads then invalid_arg "Local_mimalloc.thread";
  {
    a;
    tid;
    st = Stats.create ();
    lines = Lines.create ();
    pages = Array.make a.nclasses [];
  }

let stats th = th.st
let serial_stats _ = Stats.create ()

(* This thread's word traffic: counted in [st], classified by [lines]. *)
let load th p = Mem.load th.a.mem ~st:th.st ~lines:th.lines p
let store th p x = Mem.store th.a.mem ~st:th.st ~lines:th.lines p x
let fetch_add th p n = Mem.fetch_add th.a.mem ~st:th.st ~lines:th.lines p n

let page_area a p = a.pages_base + (p * page_words)
let free_head_addr a p = a.meta_base + p

(* Per-page size class is implicit: the thread that claimed the page carved
   it for one class; block size is recoverable from the thread table only,
   so frees must pass through the owner (true for our benchmarks, as in the
   paper's threadtest/shbench, which free what they allocated). We stash the
   class in the page's first meta bit-field instead: free head word packs
   {class:8, head:48}. *)
let pack ~cls ~head = cls lor (head lsl 8)
let cls_of w = w land 0xff
let head_of w = w lsr 8

let claim_page th ~cls =
  let a = th.a in
  let p = fetch_add th 1 1 in
  if p >= a.num_pages then raise Out_of_memory;
  ignore cls;
  let bw = Size_class.block_words cls in
  let cap = page_words / bw in
  let base = page_area a p in
  for i = 0 to cap - 1 do
    store th (base + (i * bw))
      (if i = cap - 1 then 0 else base + ((i + 1) * bw))
  done;
  store th (free_head_addr a p) (pack ~cls ~head:base);
  p

(* Walk this thread's page queue for the class; pages with room move to
   the front (mimalloc's page queues). Touching a page meta costs a load. *)
let alloc th ~size_bytes =
  let a = th.a in
  let c = Size_class.class_of_bytes ~page_words size_bytes in
  let pop_from p =
    let w = load th (free_head_addr a p) in
    let head = head_of w in
    if head = 0 then None
    else begin
      let next = load th head in
      store th (free_head_addr a p)
        (pack ~cls:(cls_of w) ~head:next);
      Some head
    end
  in
  let rec from_queue seen = function
    | [] ->
        let p = claim_page th ~cls:c in
        th.pages.(c) <- p :: List.rev_append seen [];
        Option.get (pop_from p)
    | p :: rest -> (
        match pop_from p with
        | Some b ->
            th.pages.(c) <- p :: List.rev_append seen rest;
            b
        | None -> from_queue (p :: seen) rest)
  in
  from_queue [] th.pages.(c)

let free th b =
  let a = th.a in
  let p = (b - a.pages_base) / page_words in
  let w = load th (free_head_addr a p) in
  store th b (head_of w);
  store th (free_head_addr a p) (pack ~cls:(cls_of w) ~head:b)

let write_word th b i v = store th (b + i) v
let read_word th b i = load th (b + i)
