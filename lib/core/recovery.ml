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
    "resumed-txn=%b rootrefs=%d incomplete-allocs=%d zeroed=%d orphaned=%d \
     released=%d leak-marked=%d journal=%d parked=%d"
    r.resumed_txn r.rootrefs_released r.incomplete_allocs r.worklist_processed
    r.segments_orphaned r.segments_released r.leak_marked r.journal_replayed
    r.parked_journaled

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
(* Phase 3: RootRef-page scan                                           *)
(* ------------------------------------------------------------------ *)

(* §5.1 double-free guard: a RootRef whose pointer equals the free pointer
   of the page containing the pointed block was linked before the block was
   actually carved; the allocation never completed, so release is skipped. *)
let allocation_incomplete (ctx : Ctx.t) obj =
  match Page.block_of_addr ctx obj with
  | exception Invalid_argument _ -> false
  | _, gid -> Page.free_head ctx ~gid = obj

(* Recovery's [reclaim] for {!Reclaim.release_as}: never free (a free
   cannot be redone), just count; the block stays count-zero in its
   leak-marked segment for the segment phase and the §5.3 scan. *)
let count_zeroed report _obj =
  report := { !report with worklist_processed = !report.worklist_processed + 1 }

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
    Reclaim.release_as ctx ~as_cid:cid ~reclaim:(count_zeroed report)
      ~ref_addr:(Rootref.pptr_slot rr) ~obj;
    Rootref.set_state ctx rr ~in_use:false ~cnt:0;
    report := { !report with rootrefs_released = !report.rootrefs_released + 1 }
  end

(* ------------------------------------------------------------------ *)
(* Phase 2: retirement-journal replay                                   *)
(* ------------------------------------------------------------------ *)

(* Finish (or discard) a sealed retirement batch the dead client left
   behind. Entries are processed strictly in slot order, and a sealed
   slot always names the rootref it was sealed with: a retired entry's
   rootref is freed only after the batch's cleared count is durable, so
   no slot can name a rootref the client re-allocated. Because the
   redo-free [Refc.detach_batched] clears the rootref's pointer right
   after its commit CAS, an [in_use] entry resolves against live state:

   - pointer already null: the entry is retired (or its detach committed
     and the rest of its teardown is the leak scan's); only the rootref
     free is missing;
   - object count zero with the pointer intact: the client's own final
     CAS landed but the unlink didn't — its era was consumed iff the
     header still carries (cid, now);
   - Conditions 1 & 2 prove the decrement at the client's current era:
     redo the idempotent unlink and consume the era;
   - otherwise the decrement never landed: run the full eager ladder.

   Runs AFTER [resume_txn] (a child detach inside the batch, or a
   transaction the client ran between two paced entries, may itself be in
   flight, and its resolution fixes the current era) and BEFORE
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
            else begin
              if Refc.ref_cnt ctx obj = 0 then begin
                (* Only reachable when the final decrement landed but the
                   unlink store was lost: only the last holder takes a
                   count to zero, after tearing down the children and
                   leak-marking the segment, so the §5.3 scan reclaims
                   the block. *)
                let u =
                  Obj_header.unpack
                    (Ctx.load ctx (Obj_header.header_of_obj obj))
                in
                Ctx.store ctx (Rootref.pptr_slot rr) 0;
                Rootref.set_state ctx rr ~in_use:false ~cnt:0;
                if u.Obj_header.lcid = Some cid && u.Obj_header.lera = e_now
                then Era.advance_for ctx ~cid
              end
              else if Refc.committed ctx ~cid ~obj ~era:e_now then begin
                let slot = Rootref.pptr_slot rr in
                Ctx.store ctx slot 0;
                Ctx.flush ctx slot;
                Rootref.set_state ctx rr ~in_use:false ~cnt:0;
                Era.advance_for ctx ~cid
              end
              else release_one_rootref ctx ~cid rr report;
              report :=
                { !report with journal_replayed = !report.journal_replayed + 1 }
            end
          end)
        slots;
      Epoch.clear_journal ctx ~cid

let scan_rootref_pages (ctx : Ctx.t) ~cid report =
  let holds = Limbo.holders ctx in
  List.iter
    (fun seg ->
      Heap.iter_rootref_pages ~read:(Ctx.load ctx) ctx.Ctx.lay seg (fun gid ->
          (* An in_use block at the head of the free chain is a RootRef
             allocation that died before advancing the free pointer. *)
          let head = Page.free_head ctx ~gid in
          if head <> 0 && Rootref.in_use ctx head then
            Rootref.set_state ctx head ~in_use:false ~cnt:0;
          List.iter
            (fun rr ->
              if Rootref.in_use ctx rr && not (Hashtbl.mem holds rr) then
                release_one_rootref ctx ~cid rr report)
            (Page.blocks ctx ~gid)))
    (Segment.owned_by ctx ~cid)

(* ------------------------------------------------------------------ *)
(* Phase 5: segments                                                    *)
(* ------------------------------------------------------------------ *)

let handle_segments (ctx : Ctx.t) ~cid report =
  List.iter
    (fun seg ->
      match Heap.classify ~read:(Ctx.load ctx) ctx.Ctx.lay seg with
      | Heap.Huge_head ->
          (* Leak-marked too when the owner died inside [free_huge] (the
             release path leak-marks before freeing): the tail-first run
             release finishes here — the plain-segment path below would
             release the head alone and strand the continuations. *)
          if Refc.ref_cnt ctx (Heap.huge_obj ctx.Ctx.lay seg) = 0 then begin
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
      | Heap.Huge_cont ->
          (* Handled alongside its head; ownership follows the head. *)
          ()
      | Heap.Class_pages ->
          if
            Reclaim.segment_all_zero ctx seg
            && not (Transfer.seg_held_by_live_peer ctx ~seg ~dead_cid:cid)
          then begin
            Reclaim.recycle_plain_segment ctx seg;
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
      | Heap.Free -> ())
    (Segment.owned_by ctx ~cid)

(* ------------------------------------------------------------------ *)
(* Orchestration                                                       *)
(* ------------------------------------------------------------------ *)

let run_phases (ctx : Ctx.t) ~cid =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Recovery_scan @@ fun () ->
  let report = ref empty_report in
  Client.declare_failed ctx ~cid;
  report := { !report with resumed_txn = resume_txn ctx ~cid };
  recover_journal ctx ~cid report;
  (* Parked records a pinned walker may still read: orphan the limbo rows
     in place, stamps intact — never freed era-blind. *)
  let n = Limbo.orphan_rows ctx ~cid in
  report := { !report with parked_journaled = !report.parked_journaled + n };
  Transfer.recover_endpoints ctx ~failed_cid:cid ~reclaim:(count_zeroed report);
  Named_roots.recover_endpoints ctx ~failed_cid:cid
    ~reclaim:(count_zeroed report);
  scan_rootref_pages ctx ~cid report;
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
  let r = f () in
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
    Ctx.store ctx (Layout.recovery_lock lay) 0;
    Some r
  end
