module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats

(* Client-local volatile cache tier (DRAM mirror of shared words).

   Mirroring rule: a shared word may live here only while this context is
   its *sole mutator* — the client's own class heads, page metadata of
   segments this client currently owns. Layout facts such as the
   segment→device map are arithmetic, not shared words, and need no
   mirror. Every mirror update is paired with
   the write-through store, so shared memory always holds the truth and a
   crash loses nothing. The cache starts empty (a fresh attach) and is
   filled lazily; [cache_drop] returns it to that state, which is how
   recovery proves the tier is reconstructible. The allocator's page sets
   (see ctx.mli) live here too: derived from owned pages' metadata, they
   go cold with the rest of the tier. *)
module Int_set = Set.Make (Int)

type cache = {
  enabled : bool;
  heads : int array;  (* class-head mirror, -1 = unknown *)
  mutable owned_valid : bool;
  owned : bool array;  (* this client's segment-ownership set *)
  pm : int array;  (* page-meta mirror: [gid * pm_slots + slot] *)
  pmv : bool array;  (* per-word validity for [pm] *)
  psets : Int_set.t array;  (* page sets, by kind-table index *)
  mutable psets_warm : bool;
}

(* Epoch-batched retirement state (volatile, per client).

   [ebuf] accumulates rootrefs whose local count dropped to zero; they stay
   linked and in_use in shared memory until a full buffer is sealed into
   the persistent retirement journal under one fence. [sealed] mirrors the
   journal's slots and [snext] is the next entry to retire: later releases
   retire one sealed entry each. [spent] holds the last finished batch's
   rootrefs; the first [flen] are still allocated, and one goes back to
   its page per release. [dirty] is the companion write-back
   queue: hot-path stores whose flush can ride the next batch boundary
   instead of paying a per-op clwb. *)
type epoch = {
  e_enabled : bool;
  ebuf : int array;
  mutable elen : int;
  sealed : int array;
  mutable slen : int; (* entries in the sealed batch; 0 = none in flight *)
  mutable snext : int;
  spent : int array;
  mutable flen : int; (* rootrefs in [spent] not yet freed *)
  dirty : int array; (* line-deduped addresses awaiting write-back *)
  mutable dlen : int;
}

type t = {
  mem : Mem.t;
  lay : Layout.t;
  cid : int;
  home_dev : int;
  st : Stats.t;
  lines : Cxlshm_shmem.Lines.t;
  mutable fault : Fault.plan;
  mutable retry : Retry.policy;
  rng : Random.State.t;
  mutable trace_on : bool;
  hists : Cxlshm_shmem.Histogram.t array;
  cache : cache;
  epoch : epoch;
  mutable degraded_hint : int;
  mutable alloc_pin : int list;
  mutable alloc_exclude : int list;
  mutable service : bool;
  mutable eras : int;
}

(* Mirrored page-meta slots: kind, block_words, capacity, free, used.
   [page_aux]/[page_aux2] are huge-object slow-path words and stay
   uncached. *)
let pm_slots = 5

let dirty_capacity = 64

let make ?cache ?epoch ~mem ~lay ~cid () =
  if cid < 0 || cid >= lay.Layout.cfg.Config.max_clients then
    invalid_arg "Ctx.make: cid out of range";
  let enabled =
    match cache with Some b -> b | None -> lay.Layout.cfg.Config.cache
  in
  let batch = lay.Layout.cfg.Config.epoch_batch in
  let e_enabled =
    batch > 0 && match epoch with Some b -> b | None -> true
  in
  let nseg = lay.Layout.cfg.Config.num_segments in
  let npages = Layout.num_pages_total lay in
  {
    mem;
    lay;
    cid;
    home_dev = cid mod Mem.num_devices mem;
    st = Stats.create ();
    lines = Cxlshm_shmem.Lines.create ();
    fault = Fault.none;
    retry = Retry.default_policy;
    rng = Random.State.make [| 0x5eed; cid |];
    trace_on = lay.Layout.cfg.Config.trace;
    hists = Cxlshm_shmem.Histogram.create_set ();
    cache =
      {
        enabled;
        heads = Array.make (lay.Layout.num_classes + 1) (-1);
        owned_valid = false;
        owned = Array.make nseg false;
        pm = Array.make (npages * pm_slots) 0;
        pmv = Array.make (npages * pm_slots) false;
        psets = Array.make (lay.Layout.num_classes + 2) Int_set.empty;
        psets_warm = false;
      };
    epoch =
      {
        e_enabled;
        ebuf = Array.make (max 1 batch) 0;
        elen = 0;
        sealed = Array.make (max 1 batch) 0;
        slen = 0;
        snext = 0;
        spent = Array.make (max 1 batch) 0;
        flen = 0;
        dirty = Array.make dirty_capacity 0;
        dlen = 0;
      };
    degraded_hint = Mem.ctl_peek mem (Layout.hdr_dev_degraded lay);
    alloc_pin = [];
    alloc_exclude = [];
    service = false;
    eras = 0;
  }

let cfg t = t.lay.Layout.cfg

(* {1 Channel sub-heap placement (RPCool isolation)}

   Both lists are volatile client-local policy, not shared state: a crash
   simply loses them, and recovery of the dead client's segments does not
   care where its allocations were steered. *)

let pin_active t = t.alloc_pin <> []

let with_pin t segs f =
  let saved = t.alloc_pin in
  t.alloc_pin <- segs;
  Fun.protect ~finally:(fun () -> t.alloc_pin <- saved) f

let exclude_segment t s =
  if not (List.mem s t.alloc_exclude) then
    t.alloc_exclude <- s :: t.alloc_exclude

let unexclude_segment t s =
  t.alloc_exclude <- List.filter (fun x -> x <> s) t.alloc_exclude

let seg_allowed t s =
  match t.alloc_pin with
  | [] -> not (List.mem s t.alloc_exclude)
  | pins -> List.mem s pins

(* Degraded-device bitmap (arena header): shared fault-status word the
   escalation path sets and allocation placement reads. The word itself
   lives on some device, so every access is best-effort — a pool that can't
   even serve its header word is beyond steering. Accesses bypass the
   injection/stats wrappers: marking a device bad must not itself retry. *)

let max_degradable_devices = 62 (* bits of a 63-bit non-negative word *)

let degraded_bitmap t = Mem.ctl_peek t.mem (Layout.hdr_dev_degraded t.lay)

let device_degraded t dev =
  dev < max_degradable_devices && (degraded_bitmap t lsr dev) land 1 = 1

let degraded_devices t =
  let bits = degraded_bitmap t in
  List.filter
    (fun d -> (bits lsr d) land 1 = 1)
    (List.init (min (Mem.num_devices t.mem) max_degradable_devices) Fun.id)

let mark_degraded t dev =
  if dev >= 0 && dev < max_degradable_devices then begin
    let p = Layout.hdr_dev_degraded t.lay in
    Mem.ctl_poke t.mem p (Mem.ctl_peek t.mem p lor (1 lsl dev));
    t.degraded_hint <- t.degraded_hint lor (1 lsl dev)
  end

let clear_degraded t =
  Mem.ctl_poke t.mem (Layout.hdr_dev_degraded t.lay) 0;
  t.degraded_hint <- 0

(* The hint is a volatile mirror of the bitmap consulted on the allocation
   fast path, where a per-op [ctl_peek] would charge every alloc a shared
   read for a word that is almost always zero. Staleness only delays
   placement steering: a block placed on a just-degraded device stays
   where it landed. It is refreshed at attach and on every heartbeat. *)
let refresh_degraded_hint t = t.degraded_hint <- degraded_bitmap t
let any_degraded_hint t = t.degraded_hint <> 0

(* A fault-free access calls [Mem] directly; only a [Device_error]
   enters the retry ladder. *)
let after_fault t ~dev ~transient e f =
  Retry.after_fault ~policy:t.retry ~st:t.st ~dev ~transient e f
    ~on_escalate:(fun ~dev -> mark_degraded t dev)

let load t p =
  try Mem.load t.mem ~st:t.st ~lines:t.lines p
  with Mem.Device_error { dev; transient; _ } as e ->
    after_fault t ~dev ~transient e @@ fun () ->
    Mem.load t.mem ~st:t.st ~lines:t.lines p

let store t p v =
  try Mem.store t.mem ~st:t.st ~lines:t.lines p v
  with Mem.Device_error { dev; transient; _ } as e ->
    after_fault t ~dev ~transient e @@ fun () ->
    Mem.store t.mem ~st:t.st ~lines:t.lines p v

let cas t p ~expected ~desired =
  try Mem.cas t.mem ~st:t.st ~lines:t.lines p ~expected ~desired
  with Mem.Device_error { dev; transient; _ } as e ->
    after_fault t ~dev ~transient e @@ fun () ->
    Mem.cas t.mem ~st:t.st ~lines:t.lines p ~expected ~desired

let fetch_add t p n =
  try Mem.fetch_add t.mem ~st:t.st ~lines:t.lines p n
  with Mem.Device_error { dev; transient; _ } as e ->
    after_fault t ~dev ~transient e @@ fun () ->
    Mem.fetch_add t.mem ~st:t.st ~lines:t.lines p n

let fence t = Mem.fence t.mem ~st:t.st

(* [Mem.flush] reaches no backend, so it never faults. *)
let flush t p = Mem.flush t.mem ~st:t.st p
let crash_point t point = Fault.maybe_crash t.fault point

(* {1 Epoch batching} *)

let epoch_enabled t = t.epoch.e_enabled
let epoch_capacity t = t.lay.Layout.cfg.Config.epoch_batch

let flush_unless_elided t p = if not t.epoch.e_enabled then flush t p

(* Queue a write-back to ride the next retirement-batch boundary. Safe only
   for stores whose durability deadline is the era advance that could free
   the line's contents — exactly the fast-path rootref/index lines. The
   retirement batch's finish drains the queue; overflow degrades to an
   immediate flush of the overflowing line so the queue stays bounded. *)
let flush_deferred t p =
  let e = t.epoch in
  if not e.e_enabled then flush t p
  else begin
    t.st.Stats.deferred_flushes <- t.st.Stats.deferred_flushes + 1;
    let line = p / Mem.words_per_line in
    let dup = ref false in
    for i = 0 to e.dlen - 1 do
      if e.dirty.(i) / Mem.words_per_line = line then dup := true
    done;
    if not !dup then
      if e.dlen < dirty_capacity then begin
        e.dirty.(e.dlen) <- p;
        e.dlen <- e.dlen + 1;
        (* The modeled write-back cost belongs to the op that dirtied the
           line, not to whichever op happens to hit the batch boundary —
           charge the flush to this op's stats now; [drain_dirty] issues
           the device flush against scratch stats so it is never counted
           twice. *)
        t.st.Stats.flushes <- t.st.Stats.flushes + 1
      end
      else flush t p
  end

let drain_dirty t =
  let e = t.epoch in
  if e.dlen > 0 then begin
    let scratch = Stats.create () in
    for i = 0 to e.dlen - 1 do
      let p = e.dirty.(i) in
      Mem.flush t.mem ~st:scratch p
    done;
    e.dlen <- 0
  end

(* {1 Cache tier} *)

let cache_drop t =
  let c = t.cache in
  Array.fill c.heads 0 (Array.length c.heads) (-1);
  c.owned_valid <- false;
  Array.fill c.pmv 0 (Array.length c.pmv) false;
  c.psets_warm <- false

(* Class heads: written only by this client while it is alive (recovery
   rewrites them only for dead clients, whose contexts are gone), so they
   are always mirrorable. *)

let load_class_head t k =
  let c = t.cache in
  if c.enabled && c.heads.(k) >= 0 then c.heads.(k)
  else
    let v = load t (Layout.class_head t.lay t.cid k) in
    if c.enabled then c.heads.(k) <- v;
    v

let store_class_head t k v =
  store t (Layout.class_head t.lay t.cid k) v;
  if t.cache.enabled then t.cache.heads.(k) <- v

(* Segment-ownership set. Maintained by [Segment.claim]/[adopt]/[release];
   [orphan] leaves [seg_occupied] (and thus the set) unchanged. *)

let cache_owned_known t = t.cache.enabled && t.cache.owned_valid

let cache_owned_list t =
  let c = t.cache in
  let acc = ref [] in
  for s = Array.length c.owned - 1 downto 0 do
    if c.owned.(s) then acc := s :: !acc
  done;
  !acc

let cache_install_owned t segs =
  let c = t.cache in
  if c.enabled then begin
    Array.fill c.owned 0 (Array.length c.owned) false;
    List.iter (fun s -> c.owned.(s) <- true) segs;
    c.owned_valid <- true
  end

let cache_invalidate_pages t seg =
  let c = t.cache in
  let pps = t.lay.Layout.cfg.Config.pages_per_segment in
  Array.fill c.pmv (seg * pps * pm_slots) (pps * pm_slots) false

(* Page sets: only this client's allocator and owner frees touch them. *)

let page_sets_warm t = t.cache.psets_warm

let page_sets_refill t entries =
  let c = t.cache in
  Array.fill c.psets 0 (Array.length c.psets) Int_set.empty;
  List.iter (fun (k, gid) -> c.psets.(k) <- Int_set.add gid c.psets.(k)) entries;
  c.psets_warm <- c.enabled

let page_sets_drop t = t.cache.psets_warm <- false

let page_set_add t ~idx gid =
  let c = t.cache in
  if c.psets_warm then c.psets.(idx) <- Int_set.add gid c.psets.(idx)

let page_set_find t ~idx verdict =
  let c = t.cache in
  let rec go s =
    match s () with
    | Seq.Nil -> None
    | Seq.Cons (gid, rest) -> (
        match verdict gid with
        | `Use -> Some gid
        | `Skip -> go rest
        | `Stale ->
            c.psets.(idx) <- Int_set.remove gid c.psets.(idx);
            go rest)
  in
  go (Int_set.to_seq c.psets.(idx))

let seg_gids t seg =
  let pps = t.lay.Layout.cfg.Config.pages_per_segment in
  (seg * pps, (seg + 1) * pps)

let cache_note_claim t seg =
  let c = t.cache in
  if c.enabled then begin
    (* Page metadata cached under a previous tenancy of this segment is
       dead; the entries were already dropped at release, but clearing here
       keeps claim self-sufficient. *)
    cache_invalidate_pages t seg;
    if c.owned_valid then c.owned.(seg) <- true;
    (* A claimed segment's pages are all unused (release resets them);
       [Segment.adopt] marks the sets cold instead. *)
    let lo, hi = seg_gids t seg in
    for gid = lo to hi - 1 do
      page_set_add t ~idx:(Array.length c.psets - 1) gid
    done
  end

let cache_note_release t seg =
  let c = t.cache in
  if c.enabled then begin
    cache_invalidate_pages t seg;
    if c.owned_valid then c.owned.(seg) <- false;
    if c.psets_warm then begin
      let lo, hi = seg_gids t seg in
      Array.iteri
        (fun k s ->
          c.psets.(k) <- Int_set.filter (fun g -> g < lo || g >= hi) s)
        c.psets
    end
  end

(* Page metadata: mirrorable only while this client owns the segment — a
   non-owned page's meta has another live mutator (its owner), so reads
   and writes outside the ownership set go straight to shared memory and
   drop any stale mirror entry. *)

let cache_owns t seg =
  let c = t.cache in
  c.enabled && c.owned_valid && c.owned.(seg)

let load_pm t ~gid ~slot addr =
  let seg = gid / t.lay.Layout.cfg.Config.pages_per_segment in
  if cache_owns t seg then begin
    let c = t.cache in
    let i = (gid * pm_slots) + slot in
    if c.pmv.(i) then c.pm.(i)
    else begin
      let v = load t addr in
      c.pm.(i) <- v;
      c.pmv.(i) <- true;
      v
    end
  end
  else load t addr

let store_pm t ~gid ~slot addr v =
  store t addr v;
  if t.cache.enabled then begin
    let c = t.cache in
    let seg = gid / t.lay.Layout.cfg.Config.pages_per_segment in
    let i = (gid * pm_slots) + slot in
    if cache_owns t seg then begin
      c.pm.(i) <- v;
      c.pmv.(i) <- true
    end
    else c.pmv.(i) <- false
  end

