module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Lines = Cxlshm_shmem.Lines
module Latency = Cxlshm_shmem.Latency
module Buddy = Cxlshm_allocators.Buddy

let name = "Lightning"

(* The hash index and the undo-log area live in a small control arena;
   records come from the lock-based buddy allocator. Every mutation runs
   under the store's global lock and writes a 4-word undo-log entry first
   (Lightning's crash-consistency mechanism), so all mutation traffic lands
   in [serial] and serialises across threads — the behaviour the paper
   blames for Lightning's Fig 10a gap. Reads are direct shm loads. *)
type store = {
  idx : Mem.t;
  buddy : Buddy.t;
  buckets : int;
  value_words : int;
  threads : int;
  log_base : int;
  serial : Stats.t;
  serial_lines : Lines.t;
  lock : Mutex.t;
}

type handle = { s : store; bth : Buddy.thread; st : Stats.t; lines : Lines.t }

let tier _ = Latency.Local_numa

let create ~buckets ~value_words ~words ~threads =
  let idx = Mem.create ~tier:Latency.Local_numa ~words:(buckets + 32) () in
  {
    idx;
    buddy = Buddy.create ~words ~threads;
    buckets;
    value_words;
    threads;
    log_base = buckets;
    serial = Stats.create ();
    serial_lines = Lines.create ();
    lock = Mutex.create ();
  }

let handle s tid =
  let st = Stats.create () and lines = Lines.create () in
  { s; bth = Buddy.thread s.buddy tid; st; lines }
let stats h = h.st

let serial_stats s =
  let acc = Stats.copy s.serial in
  Stats.add acc (Buddy.serial_stats s.buddy);
  acc

(* Index and undo-log traffic under the store lock: counted in [serial]
   against the one line state [serial_lines]. *)
let serial_load s p = Mem.load s.idx ~st:s.serial ~lines:s.serial_lines p
let serial_store s p v = Mem.store s.idx ~st:s.serial ~lines:s.serial_lines p v

let hash key = (key * 0x2545F4914F6CDD1D) land max_int
let bucket_addr b = b

(* Record layout inside a buddy block: [next][key][value...]. *)

let with_store_lock h f =
  Mutex.lock h.s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.s.lock) f

(* Lightning keeps every store mutation crash-consistent with per-object
   undo logging: the object header, the buddy metadata words touched by the
   split/merge, and the index pointer are all logged and persisted before
   the mutation applies (~10 logged words, each forced out). *)
let undo_log h ~op ~key =
  let base = h.s.log_base in
  for i = 0 to 9 do
    serial_store h.s (base + i) (op + key + i);
    Mem.flush h.s.idx ~st:h.s.serial (base + i)
  done;
  Mem.fence h.s.idx ~st:h.s.serial

let get h ~key =
  let b = hash key mod h.s.buckets in
  let rec walk r =
    if r = 0 then None
    else if Buddy.read_word h.bth r 1 = key then Some (Buddy.read_word h.bth r 2)
    else walk (Buddy.read_word h.bth r 0)
  in
  walk (Mem.load h.s.idx ~st:h.st ~lines:h.lines (bucket_addr b))

(* Lightning is an object store: a put creates a new immutable object via
   the lock-based buddy allocator and retires the previous version — the
   alloc/free-per-write path the paper blames for the Fig 10a gap. *)
let put h ~key ~value =
  with_store_lock h (fun () ->
      undo_log h ~op:1 ~key;
      let b = bucket_addr (hash key mod h.s.buckets) in
      let head = serial_load h.s b in
      let fresh = Buddy.alloc h.bth ~size_bytes:((2 + h.s.value_words) * 8) in
      Buddy.write_word h.bth fresh 1 key;
      for i = 0 to h.s.value_words - 1 do
        Buddy.write_word h.bth fresh (2 + i) (value + i)
      done;
      let rec unlink prev r =
        if r = 0 then head
        else if Buddy.read_word h.bth r 1 = key then begin
          let next = Buddy.read_word h.bth r 0 in
          (if prev = 0 then () else Buddy.write_word h.bth prev 0 next);
          let head' = if prev = 0 then next else head in
          Buddy.free h.bth r;
          head'
        end
        else unlink r (Buddy.read_word h.bth r 0)
      in
      let head' = unlink 0 head in
      Buddy.write_word h.bth fresh 0 head';
      serial_store h.s b fresh)

let delete h ~key =
  with_store_lock h (fun () ->
      undo_log h ~op:2 ~key;
      let b = bucket_addr (hash key mod h.s.buckets) in
      let head = serial_load h.s b in
      let rec remove prev r =
        if r = 0 then false
        else if Buddy.read_word h.bth r 1 = key then begin
          let next = Buddy.read_word h.bth r 0 in
          (if prev = 0 then serial_store h.s b next
           else Buddy.write_word h.bth prev 0 next);
          Buddy.free h.bth r;
          true
        end
        else remove r (Buddy.read_word h.bth r 0)
      in
      remove 0 head)
