module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Lines = Cxlshm_shmem.Lines
module Latency = Cxlshm_shmem.Latency

let name = "TBB-KV"

(* Arena layout: +0 bump, +1 free-stack head, +2.. bucket words
   {lock:1, head:shifted}, then records [next][key][value..]. *)
type store = {
  mem : Mem.t;
  buckets : int;
  value_words : int;
  rec_words : int;
  heap_base : int;
  heap_end : int;
  threads : int;
}

type handle = { s : store; st : Stats.t; lines : Lines.t }

let tier _ = Latency.Local_numa

let create ~buckets ~value_words ~capacity ~threads =
  let rec_words = 2 + value_words in
  let heap_base = 2 + buckets in
  let words = heap_base + (capacity * rec_words) in
  let mem = Mem.create ~tier:Latency.Local_numa ~words () in
  {
    mem;
    buckets;
    value_words;
    rec_words;
    heap_base;
    heap_end = words;
    threads;
  }

let handle s tid =
  if tid < 0 || tid >= s.threads then invalid_arg "Tbb_kv.handle";
  { s; st = Stats.create (); lines = Lines.create () }

let stats h = h.st
let lines h = h.lines

(* This handle's word traffic: counted in [st], classified by [lines]. *)
let load h p = Mem.load h.s.mem ~st:h.st ~lines:h.lines p
let store h p x = Mem.store h.s.mem ~st:h.st ~lines:h.lines p x
let cas h p ~expected ~desired =
  Mem.cas h.s.mem ~st:h.st ~lines:h.lines p ~expected ~desired
let fetch_add h p n = Mem.fetch_add h.s.mem ~st:h.st ~lines:h.lines p n

let hash key = (key * 0x2545F4914F6CDD1D) land max_int
let bucket_addr _s b = 2 + b

(* Bucket word packs {head:48, lock:1}. *)
let lock_bit = 1
let head_of w = w lsr 1
let pack_bucket ~locked head = (head lsl 1) lor (if locked then lock_bit else 0)

let lock_bucket h b =
  let a = bucket_addr h.s b in
  let rec spin () =
    let w = load h a in
    if
      w land lock_bit <> 0
      || not (cas h a ~expected:w ~desired:(w lor lock_bit))
    then begin
      Domain.cpu_relax ();
      spin ()
    end
  in
  spin ()

let unlock_bucket h b head =
  store h (bucket_addr h.s b) (pack_bucket ~locked:false head)

let alloc_record h =
  (* try the free stack, then the bump pointer *)
  let rec pop () =
    let top = load h 1 in
    if top = 0 then None
    else
      let next = load h top in
      if cas h 1 ~expected:top ~desired:next then Some top
      else pop ()
  in
  match pop () with
  | Some r -> r
  | None ->
      let off = fetch_add h 0 h.s.rec_words in
      let r = h.s.heap_base + off in
      if r + h.s.rec_words > h.s.heap_end then raise Out_of_memory;
      r

let free_record h r =
  let rec push () =
    let top = load h 1 in
    store h r top;
    if not (cas h 1 ~expected:top ~desired:r) then push ()
  in
  push ()

let get h ~key =
  let b = hash key mod h.s.buckets in
  let rec walk r =
    if r = 0 then None
    else if load h (r + 1) = key then
      Some (load h (r + 2))
    else walk (load h r)
  in
  walk (head_of (load h (bucket_addr h.s b)))

let put h ~key ~value =
  let b = hash key mod h.s.buckets in
  lock_bucket h b;
  let head = head_of (load h (bucket_addr h.s b)) in
  let rec find r =
    if r = 0 then None
    else if load h (r + 1) = key then Some r
    else find (load h r)
  in
  (match find head with
  | Some r ->
      for i = 0 to h.s.value_words - 1 do
        store h (r + 2 + i) (value + i)
      done;
      unlock_bucket h b head
  | None ->
      let r = alloc_record h in
      store h (r + 1) key;
      for i = 0 to h.s.value_words - 1 do
        store h (r + 2 + i) (value + i)
      done;
      store h r head;
      unlock_bucket h b r)

let delete h ~key =
  let b = hash key mod h.s.buckets in
  lock_bucket h b;
  let head = head_of (load h (bucket_addr h.s b)) in
  let rec remove prev r =
    if r = 0 then (head, false)
    else if load h (r + 1) = key then begin
      let next = load h r in
      (if prev = 0 then (* new head *) ()
       else store h prev next);
      let new_head = if prev = 0 then next else head in
      free_record h r;
      (new_head, true)
    end
    else remove r (load h r)
  in
  let new_head, found = remove 0 head in
  unlock_bucket h b new_head;
  found
