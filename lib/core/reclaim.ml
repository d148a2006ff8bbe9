let mark_leaking_of (ctx : Ctx.t) obj =
  let seg = Layout.segment_of_addr ctx.lay obj in
  Segment.mark_leaking ctx seg

let emb_count (ctx : Ctx.t) obj =
  Obj_header.meta_emb_cnt (Ctx.load ctx (Obj_header.meta_of_obj obj))

let rec teardown_children (ctx : Ctx.t) ~as_cid ~reclaim ~obj =
  let n = emb_count ctx obj in
  let detach = Refc.detach_as ctx ~as_cid in
  for i = 0 to n - 1 do
    let slot = Obj_header.emb_slot obj i in
    let child = Ctx.load ctx slot in
    if child <> 0 then
      release_held ctx ~as_cid ~reclaim ~detach ~ref_addr:slot ~obj:child
  done

(* Release a reference we know is held (count >= 1), as client [as_cid].
   Only the last holder tears down: while another holder remains the
   release just decrements, and {!Refc.detach_as} [~shared:true] declines
   the decrement from 1, so a release that loses the race to the last
   reference lands in the branch below too. There the children are
   detached first, so a crash mid-teardown leaves the object alive and
   fully recoverable from its remaining reference. Once the final detach
   lands the count is zero and nothing reaches the block any more, so the
   segment is leak-marked first: a crash anywhere between the decrement
   and [reclaim] then leaves the block in a POTENTIAL_LEAKING segment for
   the §5.3 scan instead of leaking it in an Active segment no recovery
   path revisits (the redo log cannot cover the tail of this window —
   freeing zeroes the header, which breaks the Condition 1 commit check).
   [detach] performs the top-level decrement only; children always go
   through the redo-logged {!Refc.detach_as}. *)
and release_held (ctx : Ctx.t) ~as_cid ~reclaim ~detach ~ref_addr ~obj =
  if Refc.ref_cnt ctx obj = 1 || detach ~shared:true ~ref_addr ~refed:obj < 0
  then begin
    teardown_children ctx ~as_cid ~reclaim ~obj;
    mark_leaking_of ctx obj;
    let n = detach ~shared:false ~ref_addr ~refed:obj in
    Ctx.crash_point ctx Fault.Release_before_reclaim;
    if n = 0 then reclaim obj
    else
      (* Unreachable under the attach-requires-a-reference invariant. *)
      raise (Refc.Refcount_violation "release: count rose from 1")
  end

let release_as (ctx : Ctx.t) ~as_cid ~reclaim ~ref_addr ~obj =
  release_held ctx ~as_cid ~reclaim ~detach:(Refc.detach_as ctx ~as_cid)
    ~ref_addr ~obj

let release_obj (ctx : Ctx.t) ~ref_addr ~obj =
  release_as ctx ~as_cid:ctx.cid ~reclaim:(Alloc.free_obj_block ctx) ~ref_addr
    ~obj

(* Retire one journaled rootref: [release_held] with the top-level detach
   swapped for the redo-free {!Refc.detach_batched} — the sealed journal
   entry is the recovery record for that window. The detach nulls the
   rootref's pointer, the per-entry completion marker
   [Recovery.recover_journal] keys on; the rootref itself stays allocated
   until {!Epoch} frees it after the batch's journal is cleared. *)
let retire_one (ctx : Ctx.t) rr =
  let obj = Rootref.obj ctx rr in
  if obj <> 0 then
    release_held ctx ~as_cid:ctx.cid ~reclaim:(Alloc.free_obj_block ctx)
      ~detach:(Refc.detach_batched ctx) ~ref_addr:(Rootref.pptr_slot rr) ~obj

let flush_retired (ctx : Ctx.t) =
  Epoch.flush_retired ctx ~retire_one:(retire_one ctx)

let release_rootref (ctx : Ctx.t) rr =
  let cnt = Rootref.local_cnt ctx rr in
  if cnt <= 0 then
    raise (Refc.Refcount_violation "release_rootref: local count already 0");
  (* Local tier of the two-tiered count: plain store, no atomics (§5.2). *)
  Rootref.set_local_cnt ctx rr (cnt - 1);
  if cnt - 1 = 0 then
    if Ctx.epoch_enabled ctx then begin
      (* Park for batched retirement: the rootref stays linked and in_use,
         so a crash before the seal just leaves an allocated rootref for
         the dead-client scan. Then pay this release's share of the
         sealed batch: at most one entry retired, plus the seal when the
         buffer is full. *)
      Epoch.enqueue ctx rr;
      Epoch.step ctx ~retire_one:(retire_one ctx)
    end
    else begin
      let obj = Rootref.obj ctx rr in
      if obj <> 0 then release_obj ctx ~ref_addr:(Rootref.pptr_slot rr) ~obj;
      Alloc.free_rootref ctx rr
    end

(* ------------------------------------------------------------------ *)
(* §5.3 asynchronous segment-local full scan                           *)
(* ------------------------------------------------------------------ *)

let page_all_zero (ctx : Ctx.t) ~gid =
  let cfg = Ctx.cfg ctx in
  let k = Page.kind ctx ~gid in
  if k = Config.kind_unused then true
  else if k = Config.kind_rootref cfg then
    List.for_all (fun rr -> not (Rootref.in_use ctx rr)) (Page.blocks ctx ~gid)
  else
    (* Block positions are computable because pages hold fixed-size blocks
       (§5.3) — no heap walk needed. A dead block parked on a domain shard
       stack pins the segment ({!Shard.pins}): recycling would reformat
       the page under a stealable stack entry. *)
    List.for_all
      (fun b ->
        Obj_header.ref_cnt_of (Ctx.load ctx (Obj_header.header_of_obj b)) = 0
        && not (Shard.pins ctx b))
      (Page.blocks ctx ~gid)

let segment_all_zero (ctx : Ctx.t) seg =
  let pps = (Ctx.cfg ctx).Config.pages_per_segment in
  let rec go p =
    p >= pps
    || (page_all_zero ctx ~gid:(Layout.page_gid ctx.lay ~seg ~page:p)
       && go (p + 1))
  in
  go 0

let segment_unused (ctx : Ctx.t) seg =
  let pps = (Ctx.cfg ctx).Config.pages_per_segment in
  let rec go p =
    p >= pps
    ||
    let gid = Layout.page_gid ctx.lay ~seg ~page:p in
    (Page.kind ctx ~gid = Config.kind_unused || Page.used ctx ~gid = 0)
    && go (p + 1)
  in
  go 0

let recycle_plain_segment (ctx : Ctx.t) seg =
  let pps = (Ctx.cfg ctx).Config.pages_per_segment in
  for p = 0 to pps - 1 do
    Page.reset ctx ~gid:(Layout.page_gid ctx.lay ~seg ~page:p)
  done;
  Segment.release ctx seg

let scan_segment (ctx : Ctx.t) seg =
  let cfg = Ctx.cfg ctx in
  let gid0 = Layout.page_gid ctx.lay ~seg ~page:0 in
  if Page.kind ctx ~gid:gid0 = Config.kind_huge cfg then begin
    (* Huge object: a single computable header decides the whole span. *)
    let obj = Layout.segment_base ctx.lay seg + ctx.lay.Layout.seg_hdr_words in
    if Obj_header.ref_cnt_of (Ctx.load ctx (Obj_header.header_of_obj obj)) = 0
    then begin
      let n = Alloc.huge_span ctx ~head_seg:seg in
      (* Finish (or perform) the tail-first release order of
         [Alloc.free_huge]: if the owner died mid-free, some continuation
         segments are already back in the arena — and may have been
         re-claimed by a live peer — so only segments still [Huge_cont]
         under the run's owner belong to it. Tails first; the head page
         metadata (the only thing that sizes the run) is wiped last, so a
         crash here leaves a rerunnable state. *)
      let owner0 = Segment.owner ctx seg in
      for k = n - 1 downto 1 do
        let s = seg + k in
        if
          s < cfg.Config.num_segments
          && Segment.state ctx s = Segment.Huge_cont
          && Segment.owner ctx s = owner0
        then Segment.release ctx s
      done;
      recycle_plain_segment ctx seg;
      true
    end
    else false
  end
  else if segment_all_zero ctx seg then begin
    recycle_plain_segment ctx seg;
    true
  end
  else false

let scan_all (ctx : Ctx.t) ~is_client_alive =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Recovery_scan @@ fun () ->
  let cfg = Ctx.cfg ctx in
  let recycled = ref 0 in
  for seg = 0 to cfg.Config.num_segments - 1 do
    let owner_live =
      match Segment.owner ctx seg with
      | None -> false
      | Some cid -> is_client_alive cid
    in
    (match Segment.state ctx seg with
    | Segment.Leaking | Segment.Orphaned ->
        if (not owner_live) && scan_segment ctx seg then incr recycled
    | Segment.Free | Segment.Active | Segment.Huge_head | Segment.Huge_cont ->
        ())
  done;
  !recycled
