(* Live segment evacuation off degraded devices.

   The unit of work is one live CXLObj: allocate a replacement on a healthy
   device, copy the payload, re-point every reference word from the old
   block to the new one ([repoint]), then let the old block's count fall
   to zero. Every step is guarded so a crash at any point leaves both
   blocks consistent and a later pass converges:

   - a *guard* RootRef is attached to the old object first, so its count
     cannot race to zero (and the object cannot be recycled) while holders
     are being migrated;
   - the replacement is reachable from its own fresh RootRef, so a crash
     before any holder moved just leaks a fully-initialised copy that
     recovery releases normally;
   - each holder moves with one swap through a transient RootRef, so a
     crash mid-holder resumes from the redo log, and a crash between
     holders leaves counts split between old and new — both positive,
     both reachable, both released correctly by the dead evacuator's
     recovery (guard, replacement and transient RootRefs are ordinary
     rootrefs of its slot). *)

module Pptr = Cxlshm_shmem.Pptr
module Word = Cxlshm_shmem.Word

type outcome =
  | Moved of Pptr.t
  | Pinned of string  (** held by a directory the evacuator must not edit *)
  | Dead              (** count raced to zero before the guard attached *)
  | No_space          (** no healthy destination *)
  | Busy              (** another live evacuator holds the sweep claim *)

type report = {
  mutable moved : int;
  mutable pinned : int;
  mutable dead : int;
  mutable no_space : int;
  mutable busy : int;
  mutable moved_rootrefs : int;
  mutable remapped : (Pptr.t * Pptr.t) list;
      (** client-side rootref relocation: (old_rr, new_rr) for handle patching *)
  mutable drained_segments : int;
  mutable recycled_segments : int;
  mutable errors : string list;
}

let empty_report () =
  { moved = 0; pinned = 0; dead = 0; no_space = 0; busy = 0;
    moved_rootrefs = 0; remapped = []; drained_segments = 0;
    recycled_segments = 0; errors = [] }

let pp_report ppf r =
  Format.fprintf ppf
    "moved=%d rootrefs=%d pinned=%d dead=%d no-space=%d busy=%d drained=%d \
     recycled=%d errors=%d"
    r.moved r.moved_rootrefs r.pinned r.dead r.no_space r.busy
    r.drained_segments r.recycled_segments (List.length r.errors)

(* ------------------------------------------------------------------ *)
(* Arena enumeration (attributed loads — this runs online)             *)
(* ------------------------------------------------------------------ *)

let seg_on_degraded (ctx : Ctx.t) seg =
  Ctx.device_degraded ctx (Alloc.segment_device ctx seg)

(* A huge run lives on a degraded device if ANY of its segments does: the
   payload spills through the continuation segments. *)
let huge_run_degraded (ctx : Ctx.t) ~head_seg =
  let n = Heap.huge_span ~read:(Ctx.load ctx) ctx.Ctx.lay head_seg in
  let rec go k = k < n && (seg_on_degraded ctx (head_seg + k) || go (k + 1)) in
  go 0

let live_obj (ctx : Ctx.t) obj =
  Obj_header.ref_cnt_of (Ctx.load ctx (Obj_header.header_of_obj obj)) > 0

(* Every reference word in the arena currently pointing at [obj]: in-use
   RootRef pptr slots and embedded slots of live objects — the holders
   Validate counts, with attributed loads. *)
let holders_of (ctx : Ctx.t) ~obj =
  let read = Ctx.load ctx and lay = ctx.Ctx.lay in
  let acc = ref [] in
  let note holder p =
    if p = obj then
      match holder with
      | Root_set.Rootref rr -> acc := Rootref.pptr_slot rr :: !acc
      | Root_set.Embedded (o, i) -> acc := Obj_header.emb_slot o i :: !acc
      | Root_set.Queue_directory | Root_set.Named_root -> ()
  in
  Root_set.iter_roots ~read lay note;
  Heap.iter_objects ~read lay (fun o ->
      if live_obj ctx o then Root_set.iter_embedded ~read o note);
  !acc

(* Re-point one holder from [obj] to [nobj]: a transient RootRef takes a
   count on [nobj], one swap trades it for the holder's count on [obj],
   and releasing the RootRef drops that count — freeing [obj] if it was
   the last. *)
let repoint (ctx : Ctx.t) ~ref_addr ~obj ~nobj =
  let rr = Alloc.alloc_rootref ctx in
  Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:nobj;
  Refc.swap ctx ~ref_addr ~rr ~from_obj:obj ~to_obj:nobj;
  Reclaim.release_rootref ctx rr;
  Ctx.crash_point ctx Fault.Evac_after_repoint

(* ------------------------------------------------------------------ *)
(* Sweep claim + migration journal                                     *)
(* ------------------------------------------------------------------ *)

(* One evacuation sweep at a time: the claim word serialises the monitor
   leader against clients relocating their own data (and against a second
   monitor replica in the unclosable lease-fencing window). It names the
   holder's slot and the lease grant era of the incarnation that took it.
   A claim is broken only once that incarnation is gone: its slot is free,
   or the slot's era moved on — either way recovery has resolved the
   holder's in-flight re-point swap, and the breaker inherits, and must
   resume, the migration journal. A [Failed] or [Suspected] holder still
   counts as busy. *)
let f_claim_cid = Word.field ~shift:0 ~bits:16
let f_claim_era = Word.field ~shift:16 ~bits:46

let claim_word (ctx : Ctx.t) =
  Word.set f_claim_era
    (Word.set f_claim_cid 0 (ctx.Ctx.cid + 1))
    (Lease.era ctx ~cid:ctx.Ctx.cid)

let rec try_claim (ctx : Ctx.t) =
  let addr = Layout.hdr_evac_claim ctx.Ctx.lay in
  let cur = Ctx.load ctx addr in
  let mine = claim_word ctx in
  if cur = mine then `Held
  else if cur = 0 then
    if Ctx.cas ctx addr ~expected:0 ~desired:mine then `Acquired
    else try_claim ctx
  else
    let holder = Word.get f_claim_cid cur - 1 in
    if
      Client.status ctx ~cid:holder <> Client.Slot_free
      && Word.get f_claim_era cur >= Lease.era ctx ~cid:holder
    then `Busy
    else if Ctx.cas ctx addr ~expected:cur ~desired:mine then `Acquired
    else try_claim ctx

let release_claim (ctx : Ctx.t) =
  let addr = Layout.hdr_evac_claim ctx.Ctx.lay in
  if Ctx.load ctx addr = claim_word ctx then Ctx.store ctx addr 0

(* A dead evacuator can leave the re-point phase half done: some holders
   already reference the copy, the rest still reference the old block.
   Cloning again would fork object identity (two live blocks, holders
   split), so the journal names the copy and the successor re-points the
   remaining holders at exactly it. The dead evacuator's guard rootref
   (journaled too) is the one holder left alone — its owner's recovery
   releases it against the old block, which is what finally lets the old
   count fall. *)
let resume_migration (ctx : Ctx.t) =
  let lay = ctx.Ctx.lay in
  let obj = Ctx.load ctx (Layout.hdr_evac_from lay) in
  if obj <> 0 then begin
    let nobj = Ctx.load ctx (Layout.hdr_evac_to lay) in
    let guard_slot = Ctx.load ctx (Layout.hdr_evac_guard lay) in
    if live_obj ctx nobj then begin
      let emb =
        Obj_header.meta_emb_cnt (Ctx.load ctx (Obj_header.meta_of_obj obj))
      in
      let obj_data = Obj_header.data_of_obj obj in
      let own_slot a = a >= obj_data && a < obj_data + emb in
      List.iter
        (fun ref_addr ->
          (* Once the dead evacuator's guard is gone (its recovery ran
             first), the last re-point frees the old block. *)
          if ref_addr <> guard_slot && not (own_slot ref_addr) then
            repoint ctx ~ref_addr ~obj ~nobj)
        (holders_of ctx ~obj)
    end;
    (* [from] first: a crash here leaves a cleared journal, and whatever
       references remain are count-consistent either way. *)
    Ctx.store ctx (Layout.hdr_evac_from lay) 0;
    Ctx.store ctx (Layout.hdr_evac_guard lay) 0;
    Ctx.store ctx (Layout.hdr_evac_to lay) 0
  end

(* ------------------------------------------------------------------ *)
(* Moving one object                                                   *)
(* ------------------------------------------------------------------ *)

let evacuate_obj_locked (ctx : Ctx.t) ~obj =
  (* 1. Guard: pin the old object so no concurrent release can recycle it
     while holders migrate. The guard is an ordinary rootref of this
     client, so an evacuator crash releases it through standard recovery. *)
  let guard = Alloc.alloc_rootref ctx in
  let guard_slot = Rootref.pptr_slot guard in
  match Refc.attach ctx ~ref_addr:guard_slot ~refed:obj with
  | exception Refc.Refcount_violation _ ->
      (* Count already zero: the block died before we got here. *)
      Alloc.free_rootref ctx guard;
      Dead
  | () ->
      if List.mem obj (Root_set.directory_refs ~read:(Ctx.load ctx) ctx.Ctx.lay)
      then begin
        (* Directory words are owned by their subsystems (queue slots carry
           in-flight transfer protocol state); leave those objects where
           they are. *)
        Reclaim.release_rootref ctx guard;
        Pinned "directory"
      end
      else begin
        let meta = Ctx.load ctx (Obj_header.meta_of_obj obj) in
        let emb = Obj_header.meta_emb_cnt meta in
        let dw = Alloc.data_words ctx obj ~meta in
        match Alloc.alloc_obj ctx ~data_words:dw ~emb_cnt:emb with
        | exception Alloc.Out_of_shared_memory ->
            Reclaim.release_rootref ctx guard;
            No_space
        | nrr, nobj ->
            let dest_seg = Layout.segment_of_addr ctx.Ctx.lay nobj in
            let dest_degraded =
              (* a huge replacement is a run: it must dodge degraded
                 devices with every segment, not just its head *)
              if Alloc.is_huge ctx nobj then
                huge_run_degraded ctx ~head_seg:dest_seg
              else seg_on_degraded ctx dest_seg
            in
            if dest_degraded then begin
              (* The placement ladder spilled back onto a degraded device —
                 nothing healthy is claimable. Moving would churn, not
                 evacuate. *)
              Reclaim.release_rootref ctx nrr;
              Reclaim.release_rootref ctx guard;
              No_space
            end
            else begin
              (* 2. Copy the payload beyond the embedded slots. Huge data
                 runs are contiguous through their continuation segments
                 (the continuation header areas are part of the run), so a
                 plain word loop covers both shapes. *)
              let src = Obj_header.data_of_obj obj in
              let dst = Obj_header.data_of_obj nobj in
              for i = emb to dw - 1 do
                Ctx.store ctx (dst + i) (Ctx.load ctx (src + i))
              done;
              Ctx.crash_point ctx Fault.Evac_after_copy;
              (* 3. Attach the copy to the old object's children, so the
                 old block's teardown (guard release below) nets the child
                 counts to exactly where they started. A self-reference
                 re-points to the copy itself. *)
              for i = 0 to emb - 1 do
                let c = Ctx.load ctx (Obj_header.emb_slot obj i) in
                if c <> 0 then
                  Refc.attach ctx
                    ~ref_addr:(Obj_header.emb_slot nobj i)
                    ~refed:(if c = obj then nobj else c)
              done;
              (* Publish the migration journal before the first re-point:
                 from here on, a successor finishes moving holders to THIS
                 copy instead of cloning another ([resume_migration]). [to]
                 and [guard] land before [from] arms the journal. *)
              let lay = ctx.Ctx.lay in
              Ctx.store ctx (Layout.hdr_evac_to lay) nobj;
              Ctx.store ctx (Layout.hdr_evac_guard lay) guard_slot;
              Ctx.store ctx (Layout.hdr_evac_from lay) obj;
              (* 4. Re-point every holder. The old object's own embedded
                 slots (a self-reference) die with it; the guard slot is
                 released, not moved. *)
              let obj_data = Obj_header.data_of_obj obj in
              let own_slot a = a >= obj_data && a < obj_data + emb in
              List.iter
                (fun ref_addr ->
                  if ref_addr <> guard_slot && not (own_slot ref_addr) then
                    repoint ctx ~ref_addr ~obj ~nobj)
                (holders_of ctx ~obj);
              (* Every holder moved: identity now lives at the copy, so the
                 journal retires before the old block is let go. *)
              Ctx.store ctx (Layout.hdr_evac_from lay) 0;
              Ctx.store ctx (Layout.hdr_evac_guard lay) 0;
              Ctx.store ctx (Layout.hdr_evac_to lay) 0;
              Ctx.crash_point ctx Fault.Evac_before_release;
              (* 5. Drop the guard — the old block's count falls to our
                 guard reference (plus a self-reference, which the
                 sole-holder teardown detaches first), so this release
                 frees it. Then drop the bootstrap reference to the copy:
                 its count settles at exactly the number of holders
                 migrated. *)
              Reclaim.release_rootref ctx guard;
              Reclaim.release_rootref ctx nrr;
              Moved nobj
            end
      end

(* Standalone entry: claims the sweep word for the single move (re-entrant
   under a caller's sweep-wide claim), draining any inherited migration
   journal first. *)
let evacuate_obj (ctx : Ctx.t) ~obj =
  Ctx.refresh_degraded_hint ctx;
  match try_claim ctx with
  | `Busy -> Busy
  | (`Held | `Acquired) as c -> (
      if c = `Acquired then resume_migration ctx;
      match evacuate_obj_locked ctx ~obj with
      | out ->
          if c = `Acquired then release_claim ctx;
          out
      | exception (Fault.Crashed _ as e) ->
          (* Simulated death: a real crash releases nothing — the next
             claimant breaks the claim and resumes the journal. *)
          raise e)

(* ------------------------------------------------------------------ *)
(* Segment-level draining                                              *)
(* ------------------------------------------------------------------ *)

let live_blocks_on (ctx : Ctx.t) seg =
  let read = Ctx.load ctx and lay = ctx.Ctx.lay in
  let n = ref 0 in
  (match Heap.classify ~read lay seg with
  | Heap.Huge_head -> if live_obj ctx (Heap.huge_obj lay seg) then incr n
  | Heap.Huge_cont ->
      (* Alive iff its head is: find the head by walking back. *)
      let rec head s =
        if Heap.classify ~read lay s = Heap.Huge_head then s else head (s - 1)
      in
      let h = head seg in
      if
        Heap.huge_span ~read lay h > seg - h
        && live_obj ctx (Heap.huge_obj lay h)
      then incr n
  | Heap.Free | Heap.Class_pages ->
      Heap.iter_class_blocks ~read lay seg (fun b ->
          if live_obj ctx b then incr n);
      Heap.iter_rootrefs ~read lay seg (fun rr ->
          if Rootref.in_use ctx rr then incr n));
  !n

let live_segments_on (ctx : Ctx.t) ~dev =
  let cfg = Ctx.cfg ctx in
  List.filter
    (fun seg ->
      Alloc.segment_device ctx seg = dev
      && Segment.state ctx seg <> Segment.Free
      && live_blocks_on ctx seg > 0)
    (List.init cfg.Config.num_segments Fun.id)

let record r = function
  | Moved _ -> r.moved <- r.moved + 1
  | Pinned _ -> r.pinned <- r.pinned + 1
  | Dead -> r.dead <- r.dead + 1
  | No_space -> r.no_space <- r.no_space + 1
  | Busy -> r.busy <- r.busy + 1

(* Move every live data block off the degraded devices. [owned_only]
   restricts the sweep to segments owned by [ctx] (the client-side
   relocation path); the monitor-side sweep takes everything except
   in-use RootRefs, which only their owner (alive) or recovery (dead) may
   touch. *)
let drain_data (ctx : Ctx.t) r ~owned_only =
  let cfg = Ctx.cfg ctx in
  let mine seg = Segment.owner ctx seg = Some ctx.Ctx.cid in
  let move obj =
    if live_obj ctx obj then begin
      record r (evacuate_obj ctx ~obj);
      (* Long sweeps must not let the evacuator's own lease lapse. *)
      Client.heartbeat ctx
    end
  in
  for seg = 0 to cfg.Config.num_segments - 1 do
    if (not owned_only) || mine seg then
      match Heap.classify ~read:(Ctx.load ctx) ctx.Ctx.lay seg with
      | Heap.Huge_head ->
          if huge_run_degraded ctx ~head_seg:seg then
            move (Heap.huge_obj ctx.Ctx.lay seg)
      | Heap.Class_pages ->
          if seg_on_degraded ctx seg then
            Heap.iter_class_blocks ~read:(Ctx.load ctx) ctx.Ctx.lay seg move
      | Heap.Free | Heap.Huge_cont -> ()
  done

(* ------------------------------------------------------------------ *)
(* Monitor-side evacuation                                             *)
(* ------------------------------------------------------------------ *)

let run ~mem ~lay =
  let r = empty_report () in
  match Client.register ~mem ~lay () with
  | exception Failure m ->
      r.errors <- ("register: " ^ m) :: r.errors;
      r
  | reg ->
      (* Work through an eager context: evacuation must not park guard
         releases in an epoch buffer — a drained segment has to read empty
         the moment the sweep finishes. *)
      let ctx =
        Ctx.make ~cache:false ~epoch:false ~mem ~lay ~cid:reg.Ctx.cid ()
      in
      let degraded = Ctx.degraded_devices ctx in
      if degraded = [] then begin
        Client.unregister ctx;
        r
      end
      else if try_claim ctx = `Busy then begin
        (* A live evacuator (a client relocating its own data, or a stalled
           ex-leader) holds the sweep; the next monitor pass retries. *)
        r.busy <- r.busy + 1;
        Client.unregister ctx;
        r
      end
      else begin
        resume_migration ctx;
        drain_data ctx r ~owned_only:false;
        (* In-use rootrefs of live owners are their owner's to relocate
           (Cxl_ref handles alias them by address); dead owners' rootrefs
           belong to recovery. Count what is left behind. *)
        Heap.iter_segments ~read:(Ctx.load ctx) lay (fun seg cls ->
            if Heap.is_plain cls && seg_on_degraded ctx seg then
              Heap.iter_rootrefs ~read:(Ctx.load ctx) lay seg (fun rr ->
                  if Rootref.in_use ctx rr then r.pinned <- r.pinned + 1));
        let cfg = Ctx.cfg ctx in
        (* Recycle what is now empty: unowned Orphaned/Leaking segments go
           through the §5.3 full scan; an owned segment is its owner's to
           release. *)
        for seg = 0 to cfg.Config.num_segments - 1 do
          if
            seg_on_degraded ctx seg
            && Segment.state ctx seg <> Segment.Free
            && live_blocks_on ctx seg = 0
          then begin
            r.drained_segments <- r.drained_segments + 1;
            match Segment.owner ctx seg with
            | None ->
                if Reclaim.scan_segment ctx seg then
                  r.recycled_segments <- r.recycled_segments + 1
            | Some o when o = ctx.Ctx.cid ->
                (* The evacuator never allocates on a degraded device; an
                   owned-by-us empty segment here means the ladder had
                   nothing healthy. Give it straight back. *)
                Reclaim.recycle_plain_segment ctx seg;
                r.recycled_segments <- r.recycled_segments + 1
            | Some o ->
                (* Orphaned/Leaking leftovers of a departed owner go through
                   the §5.3 scan; a live owner's segment is theirs. *)
                if
                  (not (Client.is_alive ctx ~cid:o))
                  && (match Segment.state ctx seg with
                     | Segment.Orphaned | Segment.Leaking -> true
                     | _ -> false)
                  && Reclaim.scan_segment ctx seg
                then r.recycled_segments <- r.recycled_segments + 1
          end
        done;
        release_claim ctx;
        Client.unregister ctx;
        r
      end

(* ------------------------------------------------------------------ *)
(* Client-side relocation                                              *)
(* ------------------------------------------------------------------ *)

let reset_degraded_cursors (ctx : Ctx.t) =
  let lay = ctx.Ctx.lay in
  let pps = (Ctx.cfg ctx).Config.pages_per_segment in
  for k = 0 to lay.Layout.num_classes do
    let v = Ctx.load_class_head ctx k in
    if v <> 0 && seg_on_degraded ctx ((v - 1) / pps) then
      Ctx.store_class_head ctx k 0
  done;
  let cur = Ctx.load_cur_segment ctx in
  if cur <> 0 && seg_on_degraded ctx (cur - 1) then Ctx.store_cur_segment ctx 0

let relocate_own (ctx : Ctx.t) =
  let r = empty_report () in
  Ctx.refresh_degraded_hint ctx;
  if Ctx.degraded_devices ctx = [] then r
  else if try_claim ctx = `Busy then begin
    r.busy <- r.busy + 1;
    r.errors <- "another evacuator holds the sweep claim" :: r.errors;
    r
  end
  else begin
    resume_migration ctx;
    (* Anything parked must land first: a parked retirement may hold the
       last count of a block we are about to enumerate. *)
    Reclaim.flush_retired ctx;
    Alloc.collect_deferred ctx;
    (* Stop the allocator from handing out degraded pages mid-relocation:
       fresh claims re-steer through the placement ladder. *)
    reset_degraded_cursors ctx;
    drain_data ctx r ~owned_only:true;
    (* The guard releases above may have parked again under epoch mode. *)
    Reclaim.flush_retired ctx;
    (* Relocate this client's own RootRef blocks: copy the local count,
       move the counted link (count-neutral, redo-covered), free the old
       block. Callers patch their CXLRef handles from [remapped]. *)
    List.iter
      (fun seg ->
        if
          seg_on_degraded ctx seg
          && Heap.is_plain (Heap.classify ~read:(Ctx.load ctx) ctx.Ctx.lay seg)
        then
          Heap.iter_rootrefs ~read:(Ctx.load ctx) ctx.Ctx.lay seg (fun rr1 ->
              if Rootref.in_use ctx rr1 then begin
                let rr2 = Alloc.alloc_rootref ctx in
                if seg_on_degraded ctx (Layout.segment_of_addr ctx.Ctx.lay rr2)
                then begin
                  Alloc.free_rootref ctx rr2;
                  r.errors <-
                    Printf.sprintf "rootref @%d: no healthy destination" rr1
                    :: r.errors
                end
                else begin
                  Rootref.set_local_cnt ctx rr2 (Rootref.local_cnt ctx rr1);
                  let o = Rootref.obj ctx rr1 in
                  if o <> 0 then
                    Refc.swap ctx ~ref_addr:(Rootref.pptr_slot rr1) ~rr:rr2
                      ~from_obj:o ~to_obj:0;
                  Alloc.free_rootref ctx rr1;
                  r.moved_rootrefs <- r.moved_rootrefs + 1;
                  r.remapped <- (rr1, rr2) :: r.remapped
                end
              end))
      (Segment.owned_by ctx ~cid:ctx.Ctx.cid);
    (* Hand back what is now empty. *)
    List.iter
      (fun seg ->
        if seg_on_degraded ctx seg then
          match Segment.state ctx seg with
          | Segment.Active | Segment.Leaking
            when Reclaim.segment_unused ctx seg ->
              Reclaim.recycle_plain_segment ctx seg;
              r.recycled_segments <- r.recycled_segments + 1
          | _ -> ())
      (Segment.owned_by ctx ~cid:ctx.Ctx.cid);
    release_claim ctx;
    r
  end
