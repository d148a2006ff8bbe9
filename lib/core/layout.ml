
type t = {
  cfg : Config.t;
  num_classes : int;
  arena_hdr : int;
  segvec_base : int;
  clientvec_base : int;
  client_state_words : int;
  domvec_base : int;
  queuedir_base : int;
  roots_base : int;
  recovery_base : int;
  limbo_base : int;
  trace_base : int;
  trace_ring_words : int;
  segments_base : int;
  segment_words : int;
  seg_hdr_words : int;
  total_words : int;
}

let magic = 0x43584c53484d (* "CXLSHM" *)
let arena_hdr_words = 16
let seg_meta_words = 4
let redo_words = 8
let client_misc_words = 5
let queue_slot_words = 8
let page_meta_words = 8
(* The recovery lock, padded so that later regions keep their addresses
   (see the mli). *)
let recovery_area_words = 1040
let root_slots = 64
let root_slot_words = 2

(* Per-client trace ring: a cursor word (monotone event counter; slot =
   counter mod trace_slots) plus fixed-width event slots of
   {tag, addr, era, dur_ns, t_ns}. *)
let trace_hdr_words = 2
let trace_slot_words = 5

(* Limbo row: an owner word (kept with the other rows' owner words) and
   [limbo_row_entries] entries of {retire stamp, rootref}. *)
let limbo_row_entries = 8
let limbo_row_words = 2 * limbo_row_entries
let limbo_orphaned = -1

let align8 n = (n + 7) land lnot 7

let limbo_rows_of cfg =
  ((cfg.Config.max_clients * cfg.Config.park_slots) + limbo_row_entries - 1)
  / limbo_row_entries

let make cfg =
  Config.validate cfg;
  let num_classes = Config.num_classes cfg in
  let arena_hdr = 8 in
  let segvec_base = align8 (arena_hdr + arena_hdr_words) in
  let clientvec_base = align8 (segvec_base + (seg_meta_words * cfg.Config.num_segments)) in
  (* misc + era row + redo log + per-kind current-page table (classes +
     rootref) + current-segment cursor + retirement journal (count, base
     era, K rootref slots) *)
  let client_state_words =
    align8
      (client_misc_words + cfg.Config.max_clients + redo_words
      + (num_classes + 1) + 1
      + (2 + cfg.Config.epoch_batch))
  in
  let domvec_base =
    align8 (clientvec_base + (client_state_words * cfg.Config.max_clients))
  in
  (* per-domain sharded class heads: one ABA-tagged Treiber stack head per
     (domain, object size class) *)
  let queuedir_base =
    align8 (domvec_base + (cfg.Config.num_domains * num_classes))
  in
  let roots_base =
    align8 (queuedir_base + (queue_slot_words * cfg.Config.queue_slots))
  in
  let recovery_base = align8 (roots_base + (root_slots * root_slot_words)) in
  let limbo_base = align8 (recovery_base + recovery_area_words) in
  let trace_base =
    align8
      (limbo_base + align8 (limbo_rows_of cfg)
      + (limbo_row_words * limbo_rows_of cfg))
  in
  let trace_ring_words =
    align8 (trace_hdr_words + (trace_slot_words * cfg.Config.trace_slots))
  in
  let segments_base =
    align8 (trace_base + (trace_ring_words * cfg.Config.max_clients))
  in
  let seg_hdr_words =
    align8 (8 + (page_meta_words * cfg.Config.pages_per_segment))
  in
  let segment_words =
    seg_hdr_words + (cfg.Config.pages_per_segment * cfg.Config.page_words)
  in
  let total_words = segments_base + (segment_words * cfg.Config.num_segments) in
  {
    cfg;
    num_classes;
    arena_hdr;
    segvec_base;
    clientvec_base;
    client_state_words;
    domvec_base;
    queuedir_base;
    roots_base;
    recovery_base;
    limbo_base;
    trace_base;
    trace_ring_words;
    segments_base;
    segment_words;
    seg_hdr_words;
    total_words;
  }

let hdr_magic t = t.arena_hdr
let hdr_epoch t = t.arena_hdr + 1
let hdr_dev_degraded t = t.arena_hdr + 2
let hdr_lease_clock t = t.arena_hdr + 3
let hdr_leader t = t.arena_hdr + 4
let hdr_evac_claim t = t.arena_hdr + 5
let hdr_evac_from t = t.arena_hdr + 6
let hdr_evac_to t = t.arena_hdr + 7
let hdr_evac_guard t = t.arena_hdr + 8
let hdr_limbo_orphans t = t.arena_hdr + 9

(* Leader word: {monitor id + 1, deadline tick} packed so election, renewal
   and deposition are each a single CAS. 0 = no leader. *)
let leader_id_bits = 15
let leader_pack ~id ~deadline = (deadline lsl leader_id_bits) lor (id + 1)

let leader_unpack w =
  if w = 0 then None
  else Some ((w land ((1 lsl leader_id_bits) - 1)) - 1, w lsr leader_id_bits)

let check_seg t s =
  if s < 0 || s >= t.cfg.Config.num_segments then
    invalid_arg (Printf.sprintf "Layout: segment %d out of range" s)

let seg_occupied t s = check_seg t s; t.segvec_base + (s * seg_meta_words)
let seg_version t s = seg_occupied t s + 1
let seg_state t s = seg_occupied t s + 2
let seg_client_free t s = seg_occupied t s + 3

let check_cid t i =
  if i < 0 || i >= t.cfg.Config.max_clients then
    invalid_arg (Printf.sprintf "Layout: client id %d out of range" i)

let client_state t i =
  check_cid t i;
  t.clientvec_base + (i * t.client_state_words)

let client_flags t i = client_state t i
let client_hazard t i = client_state t i + 1
let client_lease_deadline t i = client_state t i + 2
let client_lease_era t i = client_state t i + 3
let client_dump_claim t i = client_state t i + 4

let era_cell t i j =
  check_cid t j;
  client_state t i + client_misc_words + j

let redo_base t i = client_state t i + client_misc_words + t.cfg.Config.max_clients

let class_head t i k =
  if k < 0 || k > t.num_classes then
    invalid_arg (Printf.sprintf "Layout.class_head: bad kind index %d" k);
  redo_base t i + redo_words + k

let client_cur_segment t i = class_head t i 0 + t.num_classes + 1

(* Retirement journal: [count; base_era; slot_0 .. slot_{K-1}]. A non-zero
   count is the sealed-batch commit point — recovery replays exactly that
   many slots under eras base_era .. base_era + count - 1. *)
let retire_count t i = client_cur_segment t i + 1
let retire_era t i = client_cur_segment t i + 2

let retire_slot t i k =
  if k < 0 || k >= t.cfg.Config.epoch_batch then
    invalid_arg (Printf.sprintf "Layout.retire_slot: slot %d out of range" k);
  client_cur_segment t i + 3 + k

let domain_class_head t d c =
  if d < 0 || d >= t.cfg.Config.num_domains then
    invalid_arg (Printf.sprintf "Layout.domain_class_head: domain %d" d);
  if c < 0 || c >= t.num_classes then
    invalid_arg (Printf.sprintf "Layout.domain_class_head: class %d" c);
  t.domvec_base + (d * t.num_classes) + c

let queue_slot t q =
  if q < 0 || q >= t.cfg.Config.queue_slots then
    invalid_arg "Layout.queue_slot: out of range";
  t.queuedir_base + (q * queue_slot_words)

(* Channel sub-heap registry: the four spare words of each 8-word queue
   directory slot record the RPC channel's private segments, so any client
   (and recovery) can map a queue to the sub-heap it isolates. *)
let queue_max_channel_segs = 3

let queue_slot_nsegs t q = queue_slot t q + 4

let queue_slot_seg t q k =
  if k < 0 || k >= queue_max_channel_segs then
    invalid_arg "Layout.queue_slot_seg: out of range";
  queue_slot t q + 5 + k

let root_slot t i =
  if i < 0 || i >= root_slots then invalid_arg "Layout.root_slot";
  t.roots_base + (i * root_slot_words)

let recovery_lock t = t.recovery_base

(* Limbo pool: the owner words of every row, then the rows' entries. *)
let limbo_rows t = limbo_rows_of t.cfg

let limbo_owner t r =
  if r < 0 || r >= limbo_rows t then
    invalid_arg (Printf.sprintf "Layout.limbo_owner: row %d out of range" r);
  t.limbo_base + r

let limbo_stamp t r k =
  if k < 0 || k >= limbo_row_entries then
    invalid_arg (Printf.sprintf "Layout.limbo_stamp: entry %d out of range" k);
  ignore (limbo_owner t r);
  t.limbo_base + align8 (limbo_rows t) + (r * limbo_row_words) + (2 * k)

let limbo_rr t r k = limbo_stamp t r k + 1

let trace_ring t i =
  check_cid t i;
  t.trace_base + (i * t.trace_ring_words)

let trace_cursor t i = trace_ring t i

let trace_slot t i k =
  if k < 0 || k >= t.cfg.Config.trace_slots then
    invalid_arg "Layout.trace_slot: out of range";
  trace_ring t i + trace_hdr_words + (k * trace_slot_words)

let num_pages_total t = t.cfg.Config.num_segments * t.cfg.Config.pages_per_segment

let segment_base t s = check_seg t s; t.segments_base + (s * t.segment_words)

let segment_of_addr t addr =
  if addr < t.segments_base || addr >= t.total_words then
    invalid_arg (Printf.sprintf "Layout.segment_of_addr: %d outside segments" addr);
  (addr - t.segments_base) / t.segment_words

let page_gid t ~seg ~page =
  check_seg t seg;
  if page < 0 || page >= t.cfg.Config.pages_per_segment then
    invalid_arg "Layout.page_gid: page out of range";
  (seg * t.cfg.Config.pages_per_segment) + page

let page_of_gid t gid =
  if gid < 0 || gid >= num_pages_total t then
    invalid_arg "Layout.page_of_gid: out of range";
  (gid / t.cfg.Config.pages_per_segment, gid mod t.cfg.Config.pages_per_segment)

let page_meta t ~gid =
  let seg, page = page_of_gid t gid in
  segment_base t seg + 8 + (page * page_meta_words)

let page_kind t ~gid = page_meta t ~gid
let page_block_words t ~gid = page_meta t ~gid + 1
let page_capacity t ~gid = page_meta t ~gid + 2
let page_free t ~gid = page_meta t ~gid + 3
let page_used t ~gid = page_meta t ~gid + 4
let page_aux t ~gid = page_meta t ~gid + 5
let page_aux2 t ~gid = page_meta t ~gid + 6

let page_area t ~gid =
  let seg, page = page_of_gid t gid in
  segment_base t seg + t.seg_hdr_words + (page * t.cfg.Config.page_words)

let page_gid_of_addr t addr =
  let seg = segment_of_addr t addr in
  let off = addr - segment_base t seg - t.seg_hdr_words in
  if off < 0 then
    invalid_arg "Layout.page_gid_of_addr: address inside a segment header";
  let page = off / t.cfg.Config.page_words in
  page_gid t ~seg ~page

let block_addr t ~gid ~block_words i =
  let base = page_area t ~gid in
  let addr = base + (i * block_words) in
  if i < 0 || addr + block_words > base + t.cfg.Config.page_words then
    invalid_arg "Layout.block_addr: block index out of page";
  addr

