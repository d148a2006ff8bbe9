module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Lines = Cxlshm_shmem.Lines
module Latency = Cxlshm_shmem.Latency

let name = "ralloc"
let page_words = 512
let max_roots = 4096

(* Layout: +0 reserved, +1 page bump, +2 root count, +3.. roots,
   then per-page {class+1} map, then per-page free heads, then thread
   tables, then pages. Every block has a one-word header recording
   {allocated:1} so the sweep can find block boundaries. *)
type t = {
  mem : Mem.t;
  num_pages : int;
  roots_base : int;
  page_map_base : int;
  meta_base : int;
  thread_base : int;
  pages_base : int;
  nclasses : int;
  threads : int;
  mutable scanned : int;
}

type thread = {
  a : t;
  tid : int;
  st : Stats.t;
  lines : Lines.t;
  pages : int list array;  (** per-class page queue of this thread *)
}

(* Optane-class persistent memory: random latency lands near the
   remote-NUMA tier of Table 1. *)
let tier _ = Latency.Remote_numa

let create ~words ~threads =
  let nclasses = Size_class.num_classes ~page_words in
  let overhead np =
    3 + max_roots + np + np + (threads * nclasses)
  in
  let rec fit np = if overhead np + (np * page_words) > words then np - 1 else fit (np + 1) in
  let num_pages = fit 1 in
  if num_pages < 1 then invalid_arg "Ralloc.create: arena too small";
  let mem = Mem.create ~tier:Latency.Remote_numa ~words () in
  {
    mem;
    num_pages;
    roots_base = 3;
    page_map_base = 3 + max_roots;
    meta_base = 3 + max_roots + num_pages;
    thread_base = 3 + max_roots + num_pages + num_pages;
    pages_base = overhead num_pages;
    nclasses;
    threads;
    scanned = 0;
  }

let thread a tid =
  if tid < 0 || tid >= a.threads then invalid_arg "Ralloc.thread";
  {
    a;
    tid;
    st = Stats.create ();
    lines = Lines.create ();
    pages = Array.make a.nclasses [];
  }

let stats th = th.st
let serial_stats _ = Stats.create ()
let instance_of_thread th = th.a
let words_scanned a = a.scanned

(* This thread's word traffic: counted in [st], classified by [lines]. *)
let load th p = Mem.load th.a.mem ~st:th.st ~lines:th.lines p
let store th p x = Mem.store th.a.mem ~st:th.st ~lines:th.lines p x
let fetch_add th p n = Mem.fetch_add th.a.mem ~st:th.st ~lines:th.lines p n

let free_head_addr a p = a.meta_base + p

(* Block layout: word 0 = {allocated flag}; payload follows. The free-list
   next pointer reuses word 1. *)
let hdr_words = 1

let claim_page th ~cls =
  let a = th.a in
  let p = fetch_add th 1 1 in
  if p >= a.num_pages then raise Out_of_memory;
  store th (a.page_map_base + p) (cls + 1);
  let bw = Size_class.block_words cls + hdr_words in
  let cap = page_words / bw in
  let base = a.pages_base + (p * page_words) in
  for i = 0 to cap - 1 do
    let b = base + (i * bw) in
    store th b 0;
    store th (b + 1)
      (if i = cap - 1 then 0 else base + ((i + 1) * bw))
  done;
  store th (free_head_addr a p) base;
  p

let alloc th ~size_bytes =
  let a = th.a in
  let c = Size_class.class_of_bytes ~page_words size_bytes in
  let use_page p =
    let head = load th (free_head_addr a p) in
    if head = 0 then None
    else begin
      let next = load th (head + 1) in
      store th (free_head_addr a p) next;
      (* Ralloc's design point: free lists are volatile (post-crash GC
         rebuilds them), only the allocated-header must persist before the
         block is handed out. *)
      store th head 1;
      Mem.flush a.mem ~st:th.st head;
      Mem.fence a.mem ~st:th.st;
      Some (head + hdr_words)
    end
  in
  let rec from_queue seen = function
    | [] ->
        let p = claim_page th ~cls:c in
        th.pages.(c) <- p :: List.rev_append seen [];
        Option.get (use_page p)
    | p :: rest -> (
        match use_page p with
        | Some b ->
            th.pages.(c) <- p :: List.rev_append seen rest;
            b
        | None -> from_queue (p :: seen) rest)
  in
  from_queue [] th.pages.(c)

let free th b =
  let a = th.a in
  let blk = b - hdr_words in
  let p = (blk - a.pages_base) / page_words in
  (* the header flip must persist (sweep correctness); the list push is
     volatile *)
  store th blk 0;
  Mem.flush a.mem ~st:th.st blk;
  let head = load th (free_head_addr a p) in
  store th (blk + 1) head;
  store th (free_head_addr a p) blk

let write_word th b i v = store th (b + i) v
let read_word th b i = load th (b + i)

let set_root th b =
  let a = th.a in
  let n = fetch_add th 2 1 in
  if n >= max_roots then invalid_arg "Ralloc.set_root: too many roots";
  store th (a.roots_base + n) b

(* Stop-the-world conservative mark & sweep over the whole carved heap —
   the §4.1 recovery model whose pause the paper contrasts with CXL-SHM. *)
let recover a ~st ~lines =
  let carved = Mem.load a.mem ~st ~lines 1 in
  let carved = min carved a.num_pages in
  let block_of addr =
    if addr < a.pages_base then None
    else
      let p = (addr - a.pages_base) / page_words in
      if p >= carved then None
      else
        let cls = Mem.load a.mem ~st ~lines (a.page_map_base + p) - 1 in
        if cls < 0 then None
        else
          let bw = Size_class.block_words cls + hdr_words in
          let base = a.pages_base + (p * page_words) in
          let i = (addr - base) / bw in
          if i * bw + base + bw <= base + page_words then Some (base + (i * bw), bw)
          else None
  in
  let marked : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let scanned = ref 0 in
  let rec mark addr =
    match block_of addr with
    | None -> ()
    | Some (blk, bw) ->
        if not (Hashtbl.mem marked blk) then begin
          Hashtbl.replace marked blk ();
          (* conservative scan of the payload *)
          for w = hdr_words to bw - 1 do
            incr scanned;
            mark (Mem.load a.mem ~st ~lines (blk + w))
          done
        end
  in
  let nroots = Mem.load a.mem ~st ~lines 2 in
  for r = 0 to min nroots max_roots - 1 do
    mark (Mem.load a.mem ~st ~lines (a.roots_base + r))
  done;
  (* sweep: every allocated, unmarked block goes back to its free list *)
  let swept = ref 0 in
  for p = 0 to carved - 1 do
    let cls = Mem.load a.mem ~st ~lines (a.page_map_base + p) - 1 in
    if cls >= 0 then begin
      let bw = Size_class.block_words cls + hdr_words in
      let base = a.pages_base + (p * page_words) in
      let cap = page_words / bw in
      for i = 0 to cap - 1 do
        let blk = base + (i * bw) in
        incr scanned;
        if Mem.load a.mem ~st ~lines blk = 1 && not (Hashtbl.mem marked blk)
        then begin
          Mem.store a.mem ~st ~lines blk 0;
          let head = Mem.load a.mem ~st ~lines (free_head_addr a p) in
          Mem.store a.mem ~st ~lines (blk + 1) head;
          Mem.store a.mem ~st ~lines (free_head_addr a p) blk;
          Mem.flush a.mem ~st (free_head_addr a p);
          incr swept
        end
      done
    end
  done;
  Mem.fence a.mem ~st;
  a.scanned <- !scanned;
  (Hashtbl.length marked, !swept)
