exception Out_of_shared_memory

module Histogram = Cxlshm_shmem.Histogram

let data_words_for _cfg ~size_bytes ~emb_cnt =
  if size_bytes < 0 || emb_cnt < 0 then
    invalid_arg "Alloc.data_words_for: negative size";
  emb_cnt + Cxlshm_shmem.Mem.bytes_words size_bytes

(* ------------------------------------------------------------------ *)
(* Current-page table                                                  *)
(* ------------------------------------------------------------------ *)

(* Kind-table index: size class c at index c, RootRef class at index NC.
   Reads are served from the client-local cache tier (a client's heads have
   no other live mutator); writes go through shared memory. *)
let current_page ctx idx =
  let v = Ctx.load_class_head ctx idx in
  if v = 0 then None else Some (v - 1)

let set_current_page ctx idx gid = Ctx.store_class_head ctx idx (gid + 1)

(* ------------------------------------------------------------------ *)
(* Slow path: segments and pages                                       *)
(* ------------------------------------------------------------------ *)

let segment_device (ctx : Ctx.t) s =
  Cxlshm_shmem.Mem.device_of ctx.mem (Layout.segment_base ctx.lay s)

let claim_any_segment (ctx : Ctx.t) =
  let n = (Ctx.cfg ctx).Config.num_segments in
  (* Randomised start index spreads concurrent claimers apart. *)
  let start = Random.State.int ctx.rng n in
  (* On a multi-device pool, prefer fresh segments served by the client's
     home device before spilling to remote devices; adopting orphans stays
     the last resort on every topology. Devices marked degraded (escalated
     faults, see Ctx) are avoided until nothing else is claimable — a
     degraded device still works, it just isn't trusted with new data. *)
  let any_degraded = Ctx.degraded_devices ctx <> [] in
  let passes =
    if Cxlshm_shmem.Mem.num_devices ctx.Ctx.mem > 1 then
      if any_degraded then [ `Home_healthy; `Healthy; `Any; `Adopt ]
      else [ `Home; `Any; `Adopt ]
    else [ `Any; `Adopt ]
  in
  let try_pass pass =
    let rec go k =
      if k >= n then None
      else
        let s = (start + k) mod n in
        let healthy () = not (Ctx.device_degraded ctx (segment_device ctx s)) in
        let ok =
          match pass with
          | `Home ->
              segment_device ctx s = ctx.Ctx.home_dev && Segment.claim ctx s
          | `Home_healthy ->
              segment_device ctx s = ctx.Ctx.home_dev
              && healthy () && Segment.claim ctx s
          | `Healthy -> healthy () && Segment.claim ctx s
          | `Any -> Segment.claim ctx s
          | `Adopt -> Segment.adopt ctx s
        in
        if ok then Some s else go (k + 1)
    in
    go 0
  in
  match List.find_map try_pass passes with
  | Some s ->
      Ctx.crash_point ctx Fault.Slowpath_after_segment_claim;
      Some s
  | None -> None

(* A client keeps allocating from segments it owns even after one of them
   was marked POTENTIAL_LEAKING (the marking only gates recycling, §5.3). *)
let usable_state = function
  | Segment.Active | Segment.Leaking -> true
  | Segment.Free | Segment.Orphaned | Segment.Huge_head | Segment.Huge_cont ->
      false

(* Page-set index of a page kind (see {!Ctx.page_set_find}): the
   kind-table index for size classes and RootRefs, one past it for unused
   pages, none for huge and quarantined pages. *)
let set_index (ctx : Ctx.t) kind =
  let cfg = Ctx.cfg ctx in
  let nc = ctx.lay.Layout.num_classes in
  if kind = Config.kind_unused then Some (nc + 1)
  else if kind = Config.kind_rootref cfg then Some nc
  else Config.class_of_kind cfg kind

(* The one whole-ownership page walk: refill every page set from shared
   truth, reading each owned segment's state once. *)
let refill_page_sets (ctx : Ctx.t) =
  let pps = (Ctx.cfg ctx).Config.pages_per_segment in
  let entries = ref [] in
  List.iter
    (fun seg ->
      if usable_state (Segment.state ctx seg) then
        for p = 0 to pps - 1 do
          let gid = Layout.page_gid ctx.lay ~seg ~page:p in
          let kind = Page.kind ctx ~gid in
          match set_index ctx kind with
          | Some k
            when kind = Config.kind_unused || Page.free_head ctx ~gid <> 0 ->
              entries := (k, gid) :: !entries
          | Some _ | None -> ()
        done)
    (Segment.owned_by ctx ~cid:ctx.cid);
  Ctx.page_sets_refill ctx !entries

(* The lowest page of set [idx] that can serve [kind] now: still that kind,
   with a free block (unused pages have none), in a usable segment. A page
   only [seg_ok] rejects stays queued for a later, laxer pass. *)
let find_page (ctx : Ctx.t) ~idx ~kind ~seg_ok =
  Ctx.page_set_find ctx ~idx (fun gid ->
      let seg = fst (Layout.page_of_gid ctx.lay gid) in
      if
        Page.kind ctx ~gid <> kind
        || (kind <> Config.kind_unused && Page.free_head ctx ~gid = 0)
      then `Stale
      else if not (seg_ok seg) then `Skip
      else if usable_state (Segment.state ctx seg) then `Use
      else `Stale)

(* An owner free; a page it takes from full to non-full rejoins its page
   set. The kind is read only then, and only while the sets are warm. *)
let push_owned (ctx : Ctx.t) ~gid ~rootref blk =
  if Page.push_free ctx ~gid ~rootref blk && Ctx.page_sets_warm ctx then
    Option.iter
      (fun idx -> Ctx.page_set_add ctx ~idx gid)
      (set_index ctx (Page.kind ctx ~gid))

let init_page_for ctx ~idx ~kind ~block_words gid =
  Page.init ctx ~gid ~kind ~block_words;
  Ctx.page_set_add ctx ~idx gid;
  Ctx.crash_point ctx Fault.Slowpath_after_page_claim

let collect_deferred (ctx : Ctx.t) =
  let drain seg =
    let blocks = Segment.pop_all_client_free ctx ~seg in
    List.iter
      (fun b ->
        (* A push racing the segment's release can strand an entry from the
           previous lifetime; its page has been reset, so drop it — the
           block died with that lifetime. *)
        match Page.block_of_addr ctx b with
        | exception Invalid_argument _ -> ()
        | _, gid ->
            let cfg = Ctx.cfg ctx in
            let rootref = Page.kind ctx ~gid = Config.kind_rootref cfg in
            push_owned ctx ~gid ~rootref b)
      blocks
  in
  List.iter drain (Segment.owned_by ctx ~cid:ctx.cid)

(* Find (or make) a page of [kind] with free blocks and make it current.
   mimalloc-style: the page sets hand out the lowest owned page that
   qualifies, which is the page an ascending scan of the owned segments
   would pick, without the scan; cold sets (after attach, adopt or
   [Ctx.cache_drop], and always with the tier off) are refilled first.
   When any device is degraded, placement runs [strict] first: only pages
   on healthy devices qualify. The segment-claim ladder alone cannot steer
   a client that already owns a page with free blocks on a degraded device
   — reuse would keep landing fresh data on untrusted media. Degraded
   pages become acceptable only once nothing healthy is claimable
   anywhere. *)
let rec ensure_page_at (ctx : Ctx.t) ~strict ~idx ~kind ~block_words ~fuel =
  if fuel = 0 then raise Out_of_shared_memory;
  let seg_ok s =
    (* Channel sub-heap discipline first (a hard placement rule), then the
       degraded-device steering (a preference [strict] can drop). *)
    Ctx.seg_allowed ctx s
    && ((not strict) || not (Ctx.device_degraded ctx (segment_device ctx s)))
  in
  match current_page ctx idx with
  | Some gid
    when Page.kind ctx ~gid = kind
         && Page.free_head ctx ~gid <> 0
         && seg_ok (fst (Layout.page_of_gid ctx.lay gid)) ->
      gid
  | _ -> (
      let find () =
        if not (Ctx.page_sets_warm ctx) then refill_page_sets ctx;
        find_page ctx ~idx ~kind ~seg_ok
      in
      let found =
        match find () with
        | Some _ as g -> g
        | None ->
            (* Drain deferred frees, which may refill a page. *)
            collect_deferred ctx;
            find ()
      in
      match found with
      | Some gid ->
          set_current_page ctx idx gid;
          gid
      | None -> (
          (* Fresh page in an owned segment, else claim a segment. The
             sets are current: [find] just refilled them if cold. *)
          let fresh =
            find_page ctx ~idx:(ctx.lay.Layout.num_classes + 1)
              ~kind:Config.kind_unused ~seg_ok
          in
          match fresh with
          | Some gid ->
              init_page_for ctx ~idx ~kind ~block_words gid;
              set_current_page ctx idx gid;
              gid
          | None when Ctx.pin_active ctx ->
              (* A pinned allocation never claims new segments: the
                 channel sub-heap is a fixed set, and exhausting it is
                 the caller's out-of-memory, not a license to grow. *)
              if strict then
                ensure_page_at ctx ~strict:false ~idx ~kind ~block_words
                  ~fuel:(fuel - 1)
              else raise Out_of_shared_memory
          | None -> (
              match claim_any_segment ctx with
              | Some s when seg_ok s ->
                  ensure_page_at ctx ~strict ~idx ~kind ~block_words
                    ~fuel:(fuel - 1)
              | Some _ ->
                  (* The ladder spilled onto a degraded device: nothing
                     healthy is claimable, so degraded pages are the last
                     resort after all. *)
                  ensure_page_at ctx ~strict:false ~idx ~kind ~block_words
                    ~fuel:(fuel - 1)
              | None ->
                  if strict then
                    ensure_page_at ctx ~strict:false ~idx ~kind ~block_words
                      ~fuel:(fuel - 1)
                  else raise Out_of_shared_memory)))

let ensure_page (ctx : Ctx.t) ~idx ~kind ~block_words ~fuel =
  ensure_page_at ctx
    ~strict:(Ctx.any_degraded_hint ctx)
    ~idx ~kind ~block_words ~fuel

(* ------------------------------------------------------------------ *)
(* RootRef allocation (§5.1 step 1)                                    *)
(* ------------------------------------------------------------------ *)

let alloc_rootref (ctx : Ctx.t) =
  if ctx.Ctx.service then
    invalid_arg "Alloc.alloc_rootref: the service context cannot allocate";
  Trace.with_span ctx Histogram.Rootref @@ fun () ->
  let cfg = Ctx.cfg ctx in
  let kind = Config.kind_rootref cfg in
  let idx = Layout.(ctx.lay.num_classes) in
  let gid =
    ensure_page ctx ~idx ~kind ~block_words:Config.rootref_words
      ~fuel:(cfg.Config.num_segments + 1)
  in
  let rr = Page.free_head ctx ~gid in
  assert (rr <> 0);
  let next = Ctx.load ctx (rr + 1) in
  (* in_use is set while the block is still the list head; if we die before
     advancing, recovery sees an in_use list head and simply clears it.
     That guard is state-based — it needs no ordering — so epoch mode
     elides the fence (the retirement batch boundary is the path's only
     ordering point). *)
  Rootref.set_state ctx rr ~in_use:true ~cnt:1;
  if not (Ctx.epoch_enabled ctx) then Ctx.fence ctx;
  Page.set_free_head ctx ~gid next;
  Ctx.store ctx (rr + 1) 0;
  Page.incr_used ctx ~gid;
  rr

let free_rootref (ctx : Ctx.t) rr =
  Rootref.set_state ctx rr ~in_use:false ~cnt:0;
  let _, gid = Page.block_of_addr ctx rr in
  let seg = Layout.segment_of_addr ctx.lay rr in
  if Segment.owner ctx seg = Some ctx.cid then
    push_owned ctx ~gid ~rootref:true rr
  else Segment.push_client_free ctx ~seg ~rootref:true rr

(* ------------------------------------------------------------------ *)
(* Huge objects: contiguous segment runs with retry-and-rollback       *)
(* ------------------------------------------------------------------ *)

(* The shortest run whose {!Heap.huge_capacity} holds [data_words]. *)
let segs_needed lay ~data_words =
  let over = data_words - Heap.huge_capacity lay ~span:1 in
  1 + max 0 ((over + lay.Layout.segment_words - 1) / lay.Layout.segment_words)

let claim_huge_run (ctx : Ctx.t) n =
  let num = (Ctx.cfg ctx).Config.num_segments in
  if n > num then None
  else begin
    let starts = num - n + 1 in
    (* Same discipline as [claim_any_segment]: a randomised start keeps
       concurrent huge allocators from colliding at the arena head, and the
       pass order prefers runs on the client's home device and off degraded
       devices before taking anything claimable. (No adopt pass — orphaned
       segments hold live blocks and can never join a fresh run.) *)
    let start = Random.State.int ctx.rng starts in
    let any_degraded = Ctx.degraded_devices ctx <> [] in
    let passes =
      if Cxlshm_shmem.Mem.num_devices ctx.Ctx.mem > 1 then
        if any_degraded then [ `Home_healthy; `Healthy; `Any ]
        else [ `Home; `Any ]
      else [ `Any ]
    in
    let healthy head =
      let rec go k =
        k >= n
        || ((not (Ctx.device_degraded ctx (segment_device ctx (head + k))))
           && go (k + 1))
      in
      go 0
    in
    let run_ok pass head =
      match pass with
      | `Home -> segment_device ctx head = ctx.Ctx.home_dev
      | `Home_healthy ->
          segment_device ctx head = ctx.Ctx.home_dev && healthy head
      | `Healthy -> healthy head
      | `Any -> true
    in
    let try_candidate head =
      let rec grab k =
        if k >= n then n
        else if Segment.claim ctx (head + k) then grab (k + 1)
        else k
      in
      let got = grab 0 in
      got = n
      ||
      begin
        (* rollback the prefix we won *)
        for k = 0 to got - 1 do
          Segment.release ctx (head + k)
        done;
        false
      end
    in
    let try_pass pass =
      let rec go i =
        if i >= starts then None
        else
          let head = (start + i) mod starts in
          if run_ok pass head && try_candidate head then Some head
          else go (i + 1)
      in
      go 0
    in
    List.find_map try_pass passes
  end

let alloc_huge (ctx : Ctx.t) ~data_words ~emb_cnt =
  let total = Config.header_words + data_words in
  let n = segs_needed ctx.Ctx.lay ~data_words in
  match claim_huge_run ctx n with
  | None -> raise Out_of_shared_memory
  | Some head ->
      let lay = ctx.Ctx.lay in
      Segment.set_state ctx head Segment.Huge_head;
      for k = 1 to n - 1 do
        Segment.set_state ctx (head + k) Segment.Huge_cont
      done;
      let pps = (Ctx.cfg ctx).Config.pages_per_segment in
      let kind = Config.kind_huge (Ctx.cfg ctx) in
      for p = 0 to pps - 1 do
        let gid = Layout.page_gid lay ~seg:head ~page:p in
        Ctx.store_pm ctx ~gid ~slot:0 (Layout.page_kind lay ~gid) kind;
        Ctx.store_pm ctx ~gid ~slot:3 (Layout.page_free lay ~gid) 0;
        Ctx.store_pm ctx ~gid ~slot:2 (Layout.page_capacity lay ~gid)
          (if p = 0 then 1 else 0);
        Ctx.store_pm ctx ~gid ~slot:4 (Layout.page_used lay ~gid)
          (if p = 0 then 1 else 0);
        Ctx.store_pm ctx ~gid ~slot:1 (Layout.page_block_words lay ~gid)
          (if p = 0 then total else 0);
        Ctx.store ctx (Layout.page_aux lay ~gid) (if p = 0 then n else 0);
        (* The meta word's data_words field is narrower than a maximal run,
           so the head page records the true length in its second spare
           slot; readers go through [data_words]. *)
        Ctx.store ctx (Layout.page_aux2 lay ~gid) (if p = 0 then data_words else 0)
      done;
      let obj = Heap.huge_obj lay head in
      Ctx.store ctx (Obj_header.meta_of_obj obj)
        (Obj_header.pack_meta ~kind ~emb_cnt
           ~data_words:(min data_words Obj_header.max_meta_data_words));
      for i = 0 to emb_cnt - 1 do
        Ctx.store ctx (Obj_header.emb_slot obj i) 0
      done;
      obj

let seg_class (ctx : Ctx.t) seg state =
  Heap.of_state ctx.lay (Segment.state_to_int state) ~page0_kind:(fun () ->
      Page.kind ctx ~gid:(Layout.page_gid ctx.lay ~seg ~page:0))

let is_huge (ctx : Ctx.t) obj =
  let seg = Layout.segment_of_addr ctx.lay obj in
  not (Heap.is_plain (seg_class ctx seg (Segment.state ctx seg)))

let data_words (ctx : Ctx.t) obj ~meta =
  let dw = Obj_header.meta_data_words meta in
  if dw = Obj_header.max_meta_data_words && is_huge ctx obj then begin
    let head = Layout.segment_of_addr ctx.Ctx.lay obj in
    let gid = Layout.page_gid ctx.Ctx.lay ~seg:head ~page:0 in
    let true_dw = Ctx.load ctx (Layout.page_aux2 ctx.Ctx.lay ~gid) in
    (* 0 is a pre-[page_aux2] image (or a repaired one): the packed field
       is all we have. *)
    if true_dw > 0 then true_dw else dw
  end
  else dw

(* A continuation's page metadata is payload: reset it as pages, whatever
   kind it spells (a quarantine mark included), before the segment leaves
   its run, so a Free segment's pages always read reset. *)
let release_cont (ctx : Ctx.t) seg =
  for p = 0 to (Ctx.cfg ctx).Config.pages_per_segment - 1 do
    let gid = Layout.page_gid ctx.Ctx.lay ~seg ~page:p in
    Ctx.store_pm ctx ~gid ~slot:0 (Layout.page_kind ctx.lay ~gid)
      Config.kind_unused;
    Page.reset ctx ~gid
  done;
  Segment.release ctx seg

let free_huge (ctx : Ctx.t) obj =
  let head = Layout.segment_of_addr ctx.Ctx.lay obj in
  let n = Heap.huge_span ~read:(Ctx.load ctx) ctx.Ctx.lay head in
  (* Tail-first: continuation segments go back to the arena while the head
     metadata (page kind + span) still sizes the run, so a crash anywhere
     in this loop leaves a run that Recovery/Fsck can finish releasing. The
     head — the only segment the rest of the run is discoverable from — is
     wiped and released last. *)
  for k = n - 1 downto 1 do
    release_cont ctx (head + k);
    Ctx.crash_point ctx Fault.Free_huge_mid_release
  done;
  let pps = (Ctx.cfg ctx).Config.pages_per_segment in
  for p = 0 to pps - 1 do
    Page.reset ctx ~gid:(Layout.page_gid ctx.Ctx.lay ~seg:head ~page:p)
  done;
  Ctx.crash_point ctx Fault.Free_huge_after_reset;
  Segment.release ctx head

(* ------------------------------------------------------------------ *)
(* Object allocation (§5.1 steps 2-4)                                  *)
(* ------------------------------------------------------------------ *)

(* The RootRef-line flush and the link/advance fence are elided in epoch
   mode: allocation-crash recovery is state-based (the §5.1 free-pointer
   guard, the in_use-at-free-head check) and the retirement batch boundary
   is the path's single ordering + durability point, argued in
   docs/ALGORITHM.md §9. *)
let link_and_carve (ctx : Ctx.t) rr ~idx ~kind ~block_words ~data_words ~emb_cnt =
  let cfg = Ctx.cfg ctx in
  let gid =
    ensure_page ctx ~idx ~kind ~block_words ~fuel:(cfg.Config.num_segments + 1)
  in
  let blk = Page.free_head ctx ~gid in
  assert (blk <> 0);
  let next = Ctx.load ctx (blk + Config.header_words) in
  (* Step 2: link first — the RootRef must reach the block before the free
     pointer moves, else a crash leaks the block (§5.1). The CLWB of the
     RootRef line is the flush Fig 7 attributes 27-50% of the fast path to. *)
  Ctx.store ctx (Rootref.pptr_slot rr) blk;
  Ctx.flush_unless_elided ctx rr;
  Ctx.crash_point ctx Fault.Alloc_after_link;
  if not (Ctx.epoch_enabled ctx) then Ctx.fence ctx;
  (* Step 3: advance the thread-exclusive free pointer. *)
  Page.set_free_head ctx ~gid next;
  Page.incr_used ctx ~gid;
  Ctx.crash_point ctx Fault.Alloc_after_advance;
  (* Step 4: initialise the object. No CAS: the block is still private. *)
  Ctx.store ctx (Obj_header.meta_of_obj blk)
    (Obj_header.pack_meta ~kind ~emb_cnt ~data_words);
  for i = 0 to emb_cnt - 1 do
    Ctx.store ctx (Obj_header.emb_slot blk i) 0
  done;
  (* lcid/lera stay "never touched": writing the current era here would
     make Condition 1 spuriously true for an uncommitted transaction whose
     redo record happens to target this fresh object. Allocation crashes
     are covered by the §5.1 free-pointer guard instead. *)
  Ctx.store ctx
    (Obj_header.header_of_obj blk)
    (Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = 1 });
  Ctx.crash_point ctx Fault.Alloc_after_header;
  blk

let alloc_obj (ctx : Ctx.t) ~data_words ~emb_cnt =
  if emb_cnt > data_words then
    invalid_arg "Alloc.alloc_obj: emb_cnt exceeds data_words";
  let cfg = Ctx.cfg ctx in
  let cls = Config.class_of_data_words cfg data_words in
  let op =
    match cls with
    | Some _ -> Histogram.Alloc_small
    | None -> Histogram.Alloc_huge
  in
  Trace.with_span ctx op @@ fun () ->
  let rr = alloc_rootref ctx in
  Ctx.crash_point ctx Fault.Alloc_after_rootref;
  match cls with
  | Some c ->
      let obj =
        link_and_carve ctx rr ~idx:c ~kind:(Config.kind_of_class c)
          ~block_words:(Config.class_block_words cfg c)
          ~data_words ~emb_cnt
      in
      (rr, obj)
  | None ->
      if Ctx.pin_active ctx then
        (* Huge objects claim whole segment runs — they can never live
           inside a fixed channel sub-heap. *)
        raise Out_of_shared_memory;
      let obj = alloc_huge ctx ~data_words ~emb_cnt in
      Ctx.store ctx (Rootref.pptr_slot rr) obj;
      Ctx.flush_unless_elided ctx rr;
      Ctx.crash_point ctx Fault.Alloc_after_link;
      if not (Ctx.epoch_enabled ctx) then Ctx.fence ctx;
      Ctx.store ctx
        (Obj_header.header_of_obj obj)
        (Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = 1 });
      Ctx.crash_point ctx Fault.Alloc_after_header;
      (rr, obj)

let free_obj_block (ctx : Ctx.t) obj =
  if is_huge ctx obj then free_huge ctx obj
  else
    match Page.block_of_addr ctx obj with
    | exception Invalid_argument _ ->
        (* The segment was recovered out from under this free: every block
           in it was already count-zero (ours included, the detach landed
           before we got here), so the whole page went back with the
           segment — nothing left to give back. *)
        ()
    | blk, gid ->
    assert (blk = obj);
    let seg = Layout.segment_of_addr ctx.lay blk in
    let ver = Segment.version ctx seg in
    (* Zero the header so scans and reuse observe count 0. *)
    Ctx.store ctx (Obj_header.header_of_obj blk) 0;
    Ctx.store ctx (Obj_header.meta_of_obj blk) 0;
    Ctx.crash_point ctx Fault.Release_mid_reclaim;
    if Segment.version ctx seg <> ver then
      (* Segment recycled between the zeroing and the list push (recovery
         saw all counts at zero): the block died with the old lifetime, and
         pushing it would seed the next lifetime's free list with a stale
         pointer. *)
      ()
    else if Segment.owner ctx seg = Some ctx.cid then
      push_owned ctx ~gid ~rootref:false blk
    else Segment.push_client_free ctx ~seg ~rootref:false blk
