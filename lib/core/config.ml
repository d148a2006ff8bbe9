type t = {
  max_clients : int;
  num_segments : int;
  pages_per_segment : int;
  page_words : int;
  queue_slots : int;
  tier : Cxlshm_shmem.Latency.tier;
  backend : Cxlshm_shmem.Mem.backend_spec;
  trace : bool;
  trace_slots : int;
  cache : bool;
  epoch_batch : int;
      (* K > 0 seals K rootref retirements per client behind one fence
         and retires them one per later release (two journal flushes per
         batch); 0 keeps the eager per-release path. *)
  lease_ttl : int;
      (* Client lease lifetime in lease-clock ticks: a heartbeat extends the
         client's lease to now + lease_ttl; a lease observed expired makes
         the client Suspected, a second full TTL of silence condemns it. *)
  park_slots : int;
      (* Per-client share of the arena-wide limbo pool ([Limbo]): the pool
         holds [max_clients * park_slots] era-stamped deferred frees. *)
}

let default =
  {
    max_clients = 16;
    num_segments = 64;
    pages_per_segment = 16;
    page_words = 1024;
    queue_slots = 64;
    tier = Cxlshm_shmem.Latency.Cxl;
    backend = Cxlshm_shmem.Mem.Flat;
    trace = false;
    trace_slots = 256;
    cache = true;
    epoch_batch = 16;
    lease_ttl = 4;
    park_slots = 256;
  }

let small =
  {
    max_clients = 8;
    num_segments = 8;
    pages_per_segment = 4;
    page_words = 128;
    queue_slots = 16;
    tier = Cxlshm_shmem.Latency.Cxl;
    backend = Cxlshm_shmem.Mem.Flat;
    trace = false;
    trace_slots = 128;
    cache = true;
    (* unit tests and explorer models rely on the eager retirement path
       being schedule-identical to earlier releases *)
    epoch_batch = 0;
    lease_ttl = 4;
    park_slots = 16;
  }

let header_words = 2
let min_block_words = 4
let rootref_words = 2

let validate t =
  let fail msg = invalid_arg ("Config.validate: " ^ msg) in
  if t.max_clients < 2 || t.max_clients > 1023 then
    fail "max_clients must be in [2, 1023]";
  if t.num_segments < 1 then fail "num_segments must be positive";
  if t.pages_per_segment < 1 then fail "pages_per_segment must be positive";
  if t.page_words < 2 * min_block_words then fail "page_words too small";
  if t.page_words land (t.page_words - 1) <> 0 then
    fail "page_words must be a power of two";
  if t.queue_slots < 1 then fail "queue_slots must be positive";
  if t.trace_slots < 16 || t.trace_slots > 1 lsl 20 then
    fail "trace_slots must be in [16, 2^20]";
  if t.epoch_batch < 0 || t.epoch_batch > 64 then
    fail "epoch_batch must be in [0, 64]";
  (* The leader word packs {monitor id, deadline tick}; the deadline field
     is 48 bits wide, so cap the TTL well below that. *)
  if t.lease_ttl < 1 || t.lease_ttl > 1 lsl 20 then
    fail "lease_ttl must be in [1, 2^20]";
  if t.park_slots < 1 || t.park_slots > 1 lsl 16 then
    fail "park_slots must be in [1, 2^16]";
  let prob name p =
    if p < 0. || p > 1. then fail (name ^ " must be a probability in [0, 1]")
  in
  let rec check_backend = function
    | Cxlshm_shmem.Mem.Flat | Cxlshm_shmem.Mem.Counting_fast -> ()
    | Cxlshm_shmem.Mem.Striped { devices; stripe_words; tiers } ->
        if devices < 1 || devices > 1024 then
          fail "backend devices must be in [1, 1024]";
        if stripe_words < 0 then fail "stripe_words must be >= 0";
        if Array.length tiers <> 0 && Array.length tiers <> devices then
          fail "device tiers must be empty or one per device"
    | Cxlshm_shmem.Mem.Faulty { base; fault_spec } ->
        (match base with
        | Cxlshm_shmem.Mem.Faulty _ -> fail "nested Faulty backends"
        | _ -> ());
        prob "read_poison" fault_spec.Cxlshm_shmem.Backend_faulty.read_poison;
        prob "torn_write" fault_spec.Cxlshm_shmem.Backend_faulty.torn_write;
        prob "stuck_word" fault_spec.Cxlshm_shmem.Backend_faulty.stuck_word;
        List.iter
          (fun (d, first, last) ->
            if d < 0 || first < 0 || last < first then
              fail "offline windows must be (dev >= 0, first <= last)")
          fault_spec.Cxlshm_shmem.Backend_faulty.offline;
        check_backend base
    | Cxlshm_shmem.Mem.Sched base ->
        (match base with
        | Cxlshm_shmem.Mem.Sched _ -> fail "nested Sched backends"
        | _ -> ());
        check_backend base
  in
  check_backend t.backend

let num_classes t =
  let rec count n sz =
    if sz > t.page_words then n else count (n + 1) (sz * 2)
  in
  count 0 min_block_words

let class_block_words t i =
  if i < 0 || i >= num_classes t then invalid_arg "Config.class_block_words";
  min_block_words lsl i

let max_class_data_words t =
  class_block_words t (num_classes t - 1) - header_words

let class_of_data_words t data_words =
  if data_words < 0 then invalid_arg "Config.class_of_data_words";
  let need = data_words + header_words in
  let rec find i =
    if i >= num_classes t then None
    else if class_block_words t i >= need then Some i
    else find (i + 1)
  in
  find 0

let kind_unused = 0
let kind_of_class c = c + 1

let class_of_kind t k =
  if k >= 1 && k <= num_classes t then Some (k - 1) else None

let kind_rootref t = num_classes t + 1
let kind_huge t = num_classes t + 2
let kind_quarantined t = num_classes t + 3
