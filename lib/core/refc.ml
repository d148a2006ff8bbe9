exception Refcount_violation of string

let violate fmt = Printf.ksprintf (fun s -> raise (Refcount_violation s)) fmt

let ref_cnt (ctx : Ctx.t) obj =
  Obj_header.ref_cnt_of (Ctx.load ctx (Obj_header.header_of_obj obj))

(* The ModifyRefCnt CAS loop of Fig 4 (c) lines 2-10, run under identity
   [as_cid]. Records the redo entry before each CAS attempt and observes the
   header's (lcid, lera) into the era matrix. Returns the new count. *)
let modify_refcnt (ctx : Ctx.t) ~as_cid ~op ~ref_addr ~refed ~refed2 ~delta =
  let hdr = Obj_header.header_of_obj refed in
  let rec loop () =
    let saved = Ctx.load ctx hdr in
    let u = Obj_header.unpack saved in
    (match u.Obj_header.lcid with
    | Some c when c <> as_cid ->
        Era.observe_for ctx ~cid:as_cid ~saw_cid:c ~saw_era:u.Obj_header.lera
    | Some _ | None -> ());
    let cnt = u.Obj_header.ref_cnt in
    if delta < 0 && cnt + delta < 0 then
      violate "detach of object @%d with ref_cnt %d (double free?)" refed cnt;
    if delta > 0 && cnt = 0 then
      violate "attach to object @%d with ref_cnt 0 (wild pointer?)" refed;
    let cur_era = Era.self_of ctx ~cid:as_cid in
    Redo_log.record_for ctx ~cid:as_cid
      { Redo_log.op; era = cur_era; ref_addr; refed; refed2; saved_cnt = cnt };
    Ctx.crash_point ctx Fault.Txn_after_redo;
    let newh = Obj_header.make ~lcid:as_cid ~lera:cur_era ~ref_cnt:(cnt + delta) in
    if Ctx.cas ctx hdr ~expected:saved ~desired:newh then cnt + delta
    else loop ()
  in
  loop ()

let attach_as (ctx : Ctx.t) ~as_cid ~ref_addr ~refed =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Refc_attach ~addr:refed
  @@ fun () ->
  let _ =
    modify_refcnt ctx ~as_cid ~op:Redo_log.Attach ~ref_addr ~refed ~refed2:0
      ~delta:1
  in
  Ctx.crash_point ctx Fault.Txn_after_cas;
  Ctx.store ctx ref_addr refed;
  Ctx.crash_point ctx Fault.Txn_after_modify_ref;
  Era.advance_for ctx ~cid:as_cid

let detach_as (ctx : Ctx.t) ~as_cid ~ref_addr ~refed =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Refc_detach ~addr:refed
  @@ fun () ->
  let n =
    modify_refcnt ctx ~as_cid ~op:Redo_log.Detach ~ref_addr ~refed ~refed2:0
      ~delta:(-1)
  in
  Ctx.crash_point ctx Fault.Txn_after_cas;
  Ctx.store ctx ref_addr 0;
  Ctx.crash_point ctx Fault.Txn_after_modify_ref;
  Era.advance_for ctx ~cid:as_cid;
  n

let attach (ctx : Ctx.t) ~ref_addr ~refed = attach_as ctx ~as_cid:ctx.cid ~ref_addr ~refed

(* Redo-free detach for epoch-batched retirement: the sealed journal entry
   stands in for the per-attempt redo record, so the CAS loop only
   observes and commits. Recovery decides whether the CAS landed with
   Conditions 1 & 2 against the dead client's current era — sound because
   every competing mutator observes the header tag before its own CAS, so
   a landed decrement is either still tagged (cid, era) or was seen by
   another client. No crash points: the whole window between the journal
   seal and the rootref free belongs to the journal. *)
let detach_batched (ctx : Ctx.t) ~ref_addr ~refed =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Refc_detach ~addr:refed
  @@ fun () ->
  let hdr = Obj_header.header_of_obj refed in
  let rec loop () =
    let saved = Ctx.load ctx hdr in
    let u = Obj_header.unpack saved in
    (match u.Obj_header.lcid with
    | Some c when c <> ctx.cid ->
        Era.observe ctx ~saw_cid:c ~saw_era:u.Obj_header.lera
    | Some _ | None -> ());
    let cnt = u.Obj_header.ref_cnt in
    if cnt - 1 < 0 then
      violate "detach of object @%d with ref_cnt %d (double free?)" refed cnt;
    let cur_era = Era.self ctx in
    let newh = Obj_header.make ~lcid:ctx.cid ~lera:cur_era ~ref_cnt:(cnt - 1) in
    if Ctx.cas ctx hdr ~expected:saved ~desired:newh then begin
      Ctx.store ctx ref_addr 0;
      Era.advance ctx;
      cnt - 1
    end
    else loop ()
  in
  loop ()

(* Count-neutral swap: the count [ref_addr] holds on [from_obj] moves to
   RootRef [rr], and the count [rr] holds on [to_obj] (none when null)
   moves to [ref_addr] — two plain stores under one redo record, no
   header CAS. The record's fence also orders everything written before
   it (a fresh record's payload) ahead of the publishing store. Linked
   means redo (replay the reference store), unlinked means discard. *)
let swap (ctx : Ctx.t) ~ref_addr ~rr ~from_obj ~to_obj =
  Redo_log.record ctx
    {
      Redo_log.op = Redo_log.Swap;
      era = Era.self ctx;
      ref_addr;
      refed = from_obj;
      refed2 = rr;
      saved_cnt = to_obj;
    };
  Ctx.crash_point ctx Fault.Txn_after_redo;
  Ctx.store ctx (Rootref.pptr_slot rr) from_obj;
  Ctx.crash_point ctx Fault.Swap_after_link;
  Ctx.store ctx ref_addr to_obj;
  Ctx.crash_point ctx Fault.Swap_after_store;
  Era.advance ctx

let try_attach (ctx : Ctx.t) ~ref_addr ~refed =
  let hdr = Obj_header.header_of_obj refed in
  let rec loop () =
    let saved = Ctx.load ctx hdr in
    let u = Obj_header.unpack saved in
    if u.Obj_header.ref_cnt = 0 then false
    else begin
      (match u.Obj_header.lcid with
      | Some c when c <> ctx.cid ->
          Era.observe ctx ~saw_cid:c ~saw_era:u.Obj_header.lera
      | Some _ | None -> ());
      let cur_era = Era.self ctx in
      Redo_log.record ctx
        {
          Redo_log.op = Redo_log.Attach;
          era = cur_era;
          ref_addr;
          refed;
          refed2 = 0;
          saved_cnt = u.Obj_header.ref_cnt;
        };
      Ctx.crash_point ctx Fault.Txn_after_redo;
      let newh =
        Obj_header.make ~lcid:ctx.cid ~lera:cur_era
          ~ref_cnt:(u.Obj_header.ref_cnt + 1)
      in
      if Ctx.cas ctx hdr ~expected:saved ~desired:newh then begin
        Ctx.crash_point ctx Fault.Txn_after_cas;
        Ctx.store ctx ref_addr refed;
        Ctx.crash_point ctx Fault.Txn_after_modify_ref;
        Era.advance ctx;
        true
      end
      else loop ()
    end
  in
  loop ()
let detach (ctx : Ctx.t) ~ref_addr ~refed = detach_as ctx ~as_cid:ctx.cid ~ref_addr ~refed

(* Second-phase CAS of the §5.4 change: the redo record must stay intact
   (recovery uses the era distance from the recorded era to identify the
   phase), so this loop does not re-record. *)
let increment_no_record (ctx : Ctx.t) ~as_cid obj =
  let hdr = Obj_header.header_of_obj obj in
  let rec loop () =
    let saved = Ctx.load ctx hdr in
    let u = Obj_header.unpack saved in
    (match u.Obj_header.lcid with
    | Some c when c <> as_cid ->
        Era.observe_for ctx ~cid:as_cid ~saw_cid:c ~saw_era:u.Obj_header.lera
    | Some _ | None -> ());
    if u.Obj_header.ref_cnt = 0 then
      violate "change: attach to dead object @%d" obj;
    let cur_era = Era.self_of ctx ~cid:as_cid in
    let newh =
      Obj_header.make ~lcid:as_cid ~lera:cur_era
        ~ref_cnt:(u.Obj_header.ref_cnt + 1)
    in
    if not (Ctx.cas ctx hdr ~expected:saved ~desired:newh) then loop ()
  in
  loop ()

let change (ctx : Ctx.t) ~ref_addr ~from_obj ~to_obj =
  (* Steps 1-2: record both objects, decrement A (commit point of T1). *)
  let n_a =
    modify_refcnt ctx ~as_cid:ctx.cid ~op:Redo_log.Change ~ref_addr
      ~refed:from_obj ~refed2:to_obj ~delta:(-1)
  in
  Ctx.crash_point ctx Fault.Change_after_first_cas;
  (* Step 3: first era bump separates the two non-idempotent CAS. *)
  Era.advance ctx;
  Ctx.crash_point ctx Fault.Change_after_first_era;
  (* Step 4: increment B (commit point of T2). *)
  increment_no_record ctx ~as_cid:ctx.cid to_obj;
  Ctx.crash_point ctx Fault.Change_after_second_cas;
  (* Step 5: the idempotent ModifyRef. *)
  Ctx.store ctx ref_addr to_obj;
  Ctx.crash_point ctx Fault.Change_after_modify_ref;
  (* Step 6: second era bump. *)
  Era.advance ctx;
  n_a

let committed (ctx : Ctx.t) ~cid ~obj ~era =
  (* Condition 1 strictly before Condition 2 (§4.3, fenced). *)
  let hdr = Ctx.load ctx (Obj_header.header_of_obj obj) in
  let u = Obj_header.unpack hdr in
  if u.Obj_header.lcid = Some cid && u.Obj_header.lera = era then true
  else begin
    Ctx.fence ctx;
    Era.max_seen_by_others ctx ~cid >= era
  end
