type report = {
  resumed_txn : bool;
  rootrefs_released : int;
  incomplete_allocs : int;
  worklist_processed : int;
  segments_orphaned : int;
  segments_released : int;
  leak_marked : int;
  journal_replayed : int;
  parked_journaled : int;
}

let empty_report =
  {
    resumed_txn = false;
    rootrefs_released = 0;
    incomplete_allocs = 0;
    worklist_processed = 0;
    segments_orphaned = 0;
    segments_released = 0;
    leak_marked = 0;
    journal_replayed = 0;
    parked_journaled = 0;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "resumed-txn=%b rootrefs=%d incomplete-allocs=%d worklist=%d orphaned=%d \
     released=%d leak-marked=%d journal=%d parked=%d"
    r.resumed_txn r.rootrefs_released r.incomplete_allocs r.worklist_processed
    r.segments_orphaned r.segments_released r.leak_marked r.journal_replayed
    r.parked_journaled

(* ------------------------------------------------------------------ *)
(* Persistent worklist                                                  *)
(* ------------------------------------------------------------------ *)

let wl_push (ctx : Ctx.t) obj =
  let lay = ctx.Ctx.lay in
  let top = Ctx.load ctx (Layout.recovery_wl_top lay) in
  if top >= Layout.recovery_wl_capacity lay then
    (* Bounded worklist: fall back to leak-marking without child teardown;
       the children stay alive until their own references die. *)
    Logs.warn (fun m -> m "recovery worklist overflow; deferring @%d" obj)
  else begin
    Ctx.store ctx (Layout.recovery_wl_slot lay top) obj;
    Ctx.fence ctx;
    Ctx.store ctx (Layout.recovery_wl_top lay) (top + 1)
  end

(* Mark an object dead-for-reclaim: recovery never reclaims the block
   itself (not idempotent); the POTENTIAL_LEAKING scan will (§5.3). *)
let on_zero (ctx : Ctx.t) obj =
  wl_push ctx obj;
  Reclaim.mark_leaking_of ctx obj

(* Detach one embedded child of [obj]; duplicate worklist entries are
   harmless because zeroed slots are skipped and count-nonzero objects are
   not processed. Returns [true] if a child was detached. *)
let detach_one_child (ctx : Ctx.t) ~as_cid obj =
  let emb =
    Obj_header.meta_emb_cnt (Ctx.load ctx (Obj_header.meta_of_obj obj))
  in
  let rec go i =
    if i >= emb then false
    else
      let slot = Obj_header.emb_slot obj i in
      let child = Ctx.load ctx slot in
      if child = 0 then go (i + 1)
      else begin
        let n = Refc.detach_as ctx ~as_cid ~ref_addr:slot ~refed:child in
        if n = 0 then on_zero ctx child;
        true
      end
  in
  go 0

let wl_process (ctx : Ctx.t) ~as_cid =
  let lay = ctx.Ctx.lay in
  let processed = ref 0 in
  let rec loop () =
    let top = Ctx.load ctx (Layout.recovery_wl_top lay) in
    if top > 0 then begin
      let obj = Ctx.load ctx (Layout.recovery_wl_slot lay (top - 1)) in
      if Refc.ref_cnt ctx obj = 0 && detach_one_child ctx ~as_cid obj then
        (* A child was pushed or a slot zeroed; keep digging (LIFO DFS). *)
        loop ()
      else begin
        (* Object fully torn down (or resurrected by a duplicate entry):
           pop. The pop is a plain store; a crash re-processes the entry,
           which is a no-op. *)
        incr processed;
        Ctx.store ctx (Layout.recovery_wl_top lay) (top - 1);
        loop ()
      end
    end
  in
  loop ();
  !processed

(* ------------------------------------------------------------------ *)
(* Phase 1: resume the in-flight transaction                            *)
(* ------------------------------------------------------------------ *)

let mutation_skip_swap_redo = ref false

let resume_txn (ctx : Ctx.t) ~cid =
  match Redo_log.read ctx ~cid with
  | None -> false
  | Some r -> (
      let e_now = Era.self_of ctx ~cid in
      match r.Redo_log.op with
      | Redo_log.Attach | Redo_log.Detach ->
          if
            r.Redo_log.era = e_now
            && Refc.committed ctx ~cid ~obj:r.Redo_log.refed ~era:e_now
          then begin
            (* Commit happened; redo the idempotent ModifyRef. *)
            let is_attach = r.Redo_log.op = Redo_log.Attach in
            Ctx.store ctx r.Redo_log.ref_addr
              (if is_attach then r.Redo_log.refed else 0);
            Ctx.flush ctx r.Redo_log.ref_addr;
            if (not is_attach) && r.Redo_log.saved_cnt - 1 = 0 then
              on_zero ctx r.Redo_log.refed;
            Era.advance_for ctx ~cid;
            true
          end
          else false
      | Redo_log.Swap ->
          (* Count-neutral swap: no CAS decides — the RootRef link is the
             commit. Linked means the counts already moved, so the
             idempotent reference store is redone unless the word moved
             on; unlinked means the swap never happened and both words
             keep their counts. *)
          let rr = r.Redo_log.refed2 and from_obj = r.Redo_log.refed in
          if
            (not !mutation_skip_swap_redo)
            && r.Redo_log.era = e_now
            && Rootref.in_use ctx rr
            && Ctx.load ctx (Rootref.pptr_slot rr) = from_obj
          then begin
            if Ctx.load ctx r.Redo_log.ref_addr = from_obj then begin
              Ctx.store ctx r.Redo_log.ref_addr r.Redo_log.saved_cnt;
              Ctx.flush ctx r.Redo_log.ref_addr
            end;
            Era.advance_for ctx ~cid;
            true
          end
          else false)

(* ------------------------------------------------------------------ *)
(* Phase 1b: salvage an interrupted race-to-zero teardown               *)
(* ------------------------------------------------------------------ *)

(* [Reclaim.release_held]'s race-to-zero branch detaches first and only
   then tears down the children of the object it zeroed, so a crash inside
   that tail strands a count-zero block with live embedded references the
   redo log does not cover (each child detach overwrites the record). The
   record that IS there — even stale, even uncommitted — still names either
   the zeroed object itself ([refed], crash in the Release_before_reclaim
   window) or one of its embedded slots ([ref_addr], crash inside a child
   detach): enough to find the dead block and queue it on the persistent
   worklist, where [wl_process] finishes the teardown as the dead client.
   Acting on a stale record is sound because the push is gated on the block
   being count-zero, unfreed, AND last-CASed by the dead client itself: the
   decrement that zeroed it was this client's, so the teardown obligation
   died with it. A count-zero block whose header names another client is
   that client's teardown — still running if it is alive, its own
   recovery's if not — and queueing it here would detach the same children
   twice. *)
let salvage_teardown (ctx : Ctx.t) ~cid =
  match Redo_log.read ctx ~cid with
  | None -> ()
  | Some r ->
      let cfg = Ctx.cfg ctx in
      let dead_block addr =
        match Page.block_of_addr ctx addr with
        | exception Invalid_argument _ -> None
        | b, gid ->
            let k = Page.kind ctx ~gid in
            if k = Config.kind_rootref cfg || k = Config.kind_huge cfg then
              None
            else
              let hdr = Ctx.load ctx (Obj_header.header_of_obj b) in
              if
                hdr <> 0
                && Obj_header.ref_cnt_of hdr = 0
                && Obj_header.lcid_of hdr = Some cid
              then Some b
              else None
      in
      let salvage ~as_slot addr =
        if addr <> 0 then
          match dead_block addr with
          | None -> ()
          | Some b ->
              let hit =
                if not as_slot then b = addr
                else
                  let emb =
                    Obj_header.meta_emb_cnt
                      (Ctx.load ctx (Obj_header.meta_of_obj b))
                  in
                  emb > 0
                  && addr >= Obj_header.emb_slot b 0
                  && addr <= Obj_header.emb_slot b (emb - 1)
              in
              if hit then on_zero ctx b
      in
      (match r.Redo_log.op with
      | Redo_log.Attach | Redo_log.Detach ->
          salvage ~as_slot:false r.Redo_log.refed;
          salvage ~as_slot:true r.Redo_log.ref_addr
      | Redo_log.Swap -> ())

(* ------------------------------------------------------------------ *)
(* Phase 3: RootRef-page scan                                           *)
(* ------------------------------------------------------------------ *)

(* §5.1 double-free guard: a RootRef whose pointer equals the free pointer
   of the page containing the pointed block was linked before the block was
   actually carved; the allocation never completed, so release is skipped. *)
let allocation_incomplete (ctx : Ctx.t) obj =
  match Page.block_of_addr ctx obj with
  | exception Invalid_argument _ -> false
  | _, gid -> Page.free_head ctx ~gid = obj

let release_one_rootref (ctx : Ctx.t) ~cid rr report =
  let obj = Rootref.obj ctx rr in
  if obj = 0 then begin
    Rootref.set_state ctx rr ~in_use:false ~cnt:0;
    report := { !report with incomplete_allocs = !report.incomplete_allocs + 1 }
  end
  else if allocation_incomplete ctx obj then begin
    Ctx.store ctx (Rootref.pptr_slot rr) 0;
    Rootref.set_state ctx rr ~in_use:false ~cnt:0;
    report := { !report with incomplete_allocs = !report.incomplete_allocs + 1 }
  end
  else if Refc.ref_cnt ctx obj = 0 then begin
    (* Allocation died between advancing the free pointer and initialising
       the header: the block is off-list with count zero; the leak scan
       reclaims its segment. A shard-stolen block that died before its
       header write still carries its stamp — drop it, or it would pin the
       segment against that very scan forever. *)
    Ctx.store ctx (Rootref.pptr_slot rr) 0;
    Rootref.set_state ctx rr ~in_use:false ~cnt:0;
    if Shard.pins ctx obj then Shard.clear_stamp ctx obj;
    Reclaim.mark_leaking_of ctx obj;
    report :=
      {
        !report with
        incomplete_allocs = !report.incomplete_allocs + 1;
        leak_marked = !report.leak_marked + 1;
      }
  end
  else begin
    let n = Refc.detach_as ctx ~as_cid:cid ~ref_addr:(Rootref.pptr_slot rr) ~refed:obj in
    if n = 0 then on_zero ctx obj;
    Rootref.set_state ctx rr ~in_use:false ~cnt:0;
    report := { !report with rootrefs_released = !report.rootrefs_released + 1 }
  end

(* ------------------------------------------------------------------ *)
(* Phase 2: retirement-journal replay                                   *)
(* ------------------------------------------------------------------ *)

(* Finish (or discard) a sealed retirement batch the dead client left
   behind. Entries are processed strictly in slot order and each entry's
   rootref was freed ([in_use] cleared) only once fully retired, so the
   still-[in_use] tail is exactly the unfinished work. Because the
   redo-free [Refc.detach_batched] clears the rootref's pointer right
   after its commit CAS, an [in_use] entry resolves against live state:

   - pointer already null: the detach (and any teardown) committed, only
     the rootref free is missing;
   - object count zero with the pointer intact: the client's own
     race-to-zero CAS landed but the unlink didn't — its era was consumed
     iff the header still carries (cid, now);
   - Conditions 1 & 2 prove the decrement at the client's current era:
     redo the idempotent unlink and consume the era;
   - otherwise the decrement never landed: run the full eager ladder.

   Runs AFTER [resume_txn] (a child detach inside the batch may itself be
   in flight, and its resolution fixes the current era) and BEFORE
   endpoint recovery or the rootref scan — both issue new era-consuming
   transactions for [cid], which would advance the era past the
   unfinished entry's and turn its committed decrement into a replayed
   (double) one. *)
let recover_journal (ctx : Ctx.t) ~cid report =
  match Epoch.read_journal ctx ~cid with
  | None -> ()
  | Some slots ->
      Array.iter
        (fun rr ->
          if Rootref.in_use ctx rr then begin
            let e_now = Era.self_of ctx ~cid in
            let obj = Rootref.obj ctx rr in
            if obj = 0 then Rootref.set_state ctx rr ~in_use:false ~cnt:0
            else if Refc.ref_cnt ctx obj = 0 then begin
              (* Only reachable when the final decrement landed but the
                 unlink store was lost: children are already torn down and
                 the segment leak-marked, so [on_zero] is an idempotent
                 re-mark and the §5.3 scan reclaims the block. *)
              let u =
                Obj_header.unpack (Ctx.load ctx (Obj_header.header_of_obj obj))
              in
              Ctx.store ctx (Rootref.pptr_slot rr) 0;
              Rootref.set_state ctx rr ~in_use:false ~cnt:0;
              on_zero ctx obj;
              if u.Obj_header.lcid = Some cid && u.Obj_header.lera = e_now then
                Era.advance_for ctx ~cid
            end
            else if Refc.committed ctx ~cid ~obj ~era:e_now then begin
              let slot = Rootref.pptr_slot rr in
              Ctx.store ctx slot 0;
              Ctx.flush ctx slot;
              Rootref.set_state ctx rr ~in_use:false ~cnt:0;
              Era.advance_for ctx ~cid
            end
            else release_one_rootref ctx ~cid rr report;
            let n = wl_process ctx ~as_cid:cid in
            report :=
              {
                !report with
                worklist_processed = !report.worklist_processed + n;
                journal_replayed = !report.journal_replayed + 1;
              }
          end)
        slots;
      Epoch.clear_journal ctx ~cid

let scan_rootref_pages (ctx : Ctx.t) ~cid report =
  let cfg = Ctx.cfg ctx in
  let rr_kind = Config.kind_rootref cfg in
  let holds = Limbo.holders ctx in
  List.iter
    (fun seg ->
      for p = 0 to cfg.Config.pages_per_segment - 1 do
        let gid = Layout.page_gid ctx.Ctx.lay ~seg ~page:p in
        if Page.kind ctx ~gid = rr_kind then begin
          (* An in_use block at the head of the free chain is a RootRef
             allocation that died before advancing the free pointer. *)
          let head = Page.free_head ctx ~gid in
          if head <> 0 && Rootref.in_use ctx head then
            Rootref.set_state ctx head ~in_use:false ~cnt:0;
          List.iter
            (fun rr ->
              if Rootref.in_use ctx rr && not (Hashtbl.mem holds rr) then begin
                release_one_rootref ctx ~cid rr report;
                let n = wl_process ctx ~as_cid:cid in
                report :=
                  {
                    !report with
                    worklist_processed = !report.worklist_processed + n;
                  }
              end)
            (Page.blocks ctx ~gid)
        end
      done)
    (Segment.owned_by ctx ~cid)

(* ------------------------------------------------------------------ *)
(* Phase 5: segments                                                    *)
(* ------------------------------------------------------------------ *)

let segment_empty (ctx : Ctx.t) seg =
  let cfg = Ctx.cfg ctx in
  let rec go p =
    if p >= cfg.Config.pages_per_segment then true
    else
      let gid = Layout.page_gid ctx.Ctx.lay ~seg ~page:p in
      let k = Page.kind ctx ~gid in
      (k = Config.kind_unused
      ||
      if k = Config.kind_rootref cfg then
        List.for_all (fun rr -> not (Rootref.in_use ctx rr)) (Page.blocks ctx ~gid)
      else
        (* A dead block parked on a domain shard stack pins the segment
           (same rule as [Reclaim.page_all_zero]): releasing would reset
           the page under a stealable stack entry. *)
        List.for_all
          (fun b ->
            Obj_header.ref_cnt_of (Ctx.load ctx (Obj_header.header_of_obj b)) = 0
            && not (Shard.pins ctx b))
          (Page.blocks ctx ~gid))
      && go (p + 1)
  in
  go 0

let handle_segments (ctx : Ctx.t) ~cid report =
  let cfg = Ctx.cfg ctx in
  let handle_huge_head seg =
    let obj =
      Layout.segment_base ctx.Ctx.lay seg + ctx.Ctx.lay.Layout.seg_hdr_words
    in
    if Refc.ref_cnt ctx obj = 0 then begin
      Segment.mark_leaking ctx seg;
      if Reclaim.scan_segment ctx seg then
        report :=
          { !report with segments_released = !report.segments_released + 1 }
    end
    else begin
      Segment.orphan ctx ~cid seg;
      report :=
        { !report with segments_orphaned = !report.segments_orphaned + 1 }
    end
  in
  let huge_head seg =
    Page.kind ctx ~gid:(Layout.page_gid ctx.Ctx.lay ~seg ~page:0)
    = Config.kind_huge cfg
  in
  List.iter
    (fun seg ->
      match Segment.state ctx seg with
      | Segment.Huge_head -> handle_huge_head seg
      | Segment.Huge_cont ->
          (* Handled alongside its head; ownership follows the head. *)
          ()
      | (Segment.Active | Segment.Leaking | Segment.Orphaned)
        when huge_head seg ->
          (* A leak-marked huge head: the owner died inside [free_huge]
             (the release path leak-marks before freeing). Finish the
             tail-first run release — the plain-segment path below would
             release the head alone and strand the continuations. *)
          handle_huge_head seg
      | Segment.Active | Segment.Leaking | Segment.Orphaned ->
          if
            segment_empty ctx seg
            && not (Transfer.seg_held_by_live_peer ctx ~seg ~dead_cid:cid)
          then begin
            for p = 0 to cfg.Config.pages_per_segment - 1 do
              Page.reset ctx ~gid:(Layout.page_gid ctx.Ctx.lay ~seg ~page:p)
            done;
            Segment.release ctx seg;
            report :=
              { !report with segments_released = !report.segments_released + 1 }
          end
          else begin
            (* Live blocks may still be referenced from other machines:
               keep the segment, make it adoptable. *)
            Segment.orphan ctx ~cid seg;
            report :=
              { !report with segments_orphaned = !report.segments_orphaned + 1 }
          end
      | Segment.Free -> ())
    (Segment.owned_by ctx ~cid)

(* ------------------------------------------------------------------ *)
(* Orchestration                                                       *)
(* ------------------------------------------------------------------ *)

let run_phases (ctx : Ctx.t) ~cid =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Recovery_scan @@ fun () ->
  let report = ref empty_report in
  Client.declare_failed ctx ~cid;
  let resumed = resume_txn ctx ~cid in
  salvage_teardown ctx ~cid;
  let n = wl_process ctx ~as_cid:cid in
  report :=
    {
      !report with
      resumed_txn = resumed;
      worklist_processed = !report.worklist_processed + n;
    };
  recover_journal ctx ~cid report;
  (* Parked records a pinned walker may still read: orphan the limbo rows
     in place, stamps intact — never freed era-blind. *)
  let n = Limbo.orphan_rows ctx ~cid in
  report := { !report with parked_journaled = !report.parked_journaled + n };
  Transfer.recover_endpoints ctx ~failed_cid:cid;
  Named_roots.recover_endpoints ctx ~failed_cid:cid;
  let n = wl_process ctx ~as_cid:cid in
  report := { !report with worklist_processed = !report.worklist_processed + n };
  scan_rootref_pages ctx ~cid report;
  let n = wl_process ctx ~as_cid:cid in
  report := { !report with worklist_processed = !report.worklist_processed + n };
  (* The recovery service itself may die mid-recovery; every phase above is
     idempotent and the recovery lock still names [cid], so the next service
     instance resumes via [resume_interrupted]. *)
  Ctx.crash_point ctx Fault.Recovery_mid_phases;
  handle_segments ctx ~cid report;
  Redo_log.clear_for ctx ~cid;
  Client.mark_recovered ctx ~cid;
  !report

let with_lock (ctx : Ctx.t) ~cid f =
  let lay = ctx.Ctx.lay in
  let lock = Layout.recovery_lock lay in
  let rec acquire () =
    let cur = Ctx.load ctx lock in
    if cur = cid + 1 then () (* re-entrant resume of our own recovery *)
    else if cur <> 0 then begin
      (* Finish the interrupted recovery we found, then retry. *)
      let prev = cur - 1 in
      ignore (run_phases ctx ~cid:prev);
      Ctx.store ctx lock 0;
      acquire ()
    end
    else if not (Ctx.cas ctx lock ~expected:0 ~desired:(cid + 1)) then acquire ()
  in
  acquire ();
  Ctx.store ctx (Layout.recovery_failed lay) (cid + 1);
  let r = f () in
  Ctx.store ctx (Layout.recovery_failed lay) 0;
  Ctx.store ctx lock 0;
  r

let recover (ctx : Ctx.t) ~failed_cid =
  with_lock ctx ~cid:failed_cid (fun () -> run_phases ctx ~cid:failed_cid)

let resume_interrupted (ctx : Ctx.t) =
  let lay = ctx.Ctx.lay in
  let cur = Ctx.load ctx (Layout.recovery_lock lay) in
  if cur = 0 then None
  else begin
    let cid = cur - 1 in
    let r = run_phases ctx ~cid in
    Ctx.store ctx (Layout.recovery_failed lay) 0;
    Ctx.store ctx (Layout.recovery_lock lay) 0;
    Some r
  end
