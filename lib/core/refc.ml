exception Refcount_violation of string

let violate fmt = Printf.ksprintf (fun s -> raise (Refcount_violation s)) fmt

let ref_cnt (ctx : Ctx.t) obj =
  Obj_header.ref_cnt_of (Ctx.load ctx (Obj_header.header_of_obj obj))

(* Test-only: see the mli. *)
let mutation_zero_shared = ref false
let mutation_store_shared = ref false

(* With [~decline], a decrement from 1 by a release that may not hold the
   only reference declines before it writes anything: the count then
   reaches zero only through the last holder, after it has nulled the
   object's embedded slots. *)
let declines ~decline cnt = decline && cnt = 1 && not !mutation_zero_shared

(* The ModifyRefCnt CAS loop of Fig 4 (c) lines 2-10, run under identity
   [as_cid]. Observes the header's (lcid, lera) into the era matrix and,
   with [~redo], records the redo entry before each header write. Returns
   the new count, or -1 when it declines.

   A decrement that reads count 1 comes from the only holder (attach needs
   a counted reference; of two decrements racing from 2 only the loser
   reads 1), so nothing can change the word between the load and the
   write: it installs the [(as_cid, era, 0)] word the CAS would with one
   plain store (docs/ALGORITHM.md §3.1). *)
let modify_refcnt (ctx : Ctx.t) ~as_cid ~op ~redo ~decline ~ref_addr ~refed
    ~delta =
  let hdr = Obj_header.header_of_obj refed in
  let rec loop () =
    let saved = Ctx.load ctx hdr in
    let u = Obj_header.unpack saved in
    let cnt = u.Obj_header.ref_cnt in
    if declines ~decline cnt then -1
    else begin
      (match u.Obj_header.lcid with
      | Some c when c <> as_cid ->
          Era.observe_for ctx ~cid:as_cid ~saw_cid:c ~saw_era:u.Obj_header.lera
      | Some _ | None -> ());
      if delta < 0 && cnt + delta < 0 then
        violate "detach of object @%d with ref_cnt %d (double free?)" refed cnt;
      if delta > 0 && cnt = 0 then
        violate "attach to object @%d with ref_cnt 0 (wild pointer?)" refed;
      let cur_era = Era.self_of ctx ~cid:as_cid in
      if redo then begin
        Redo_log.record_for ctx ~cid:as_cid
          { Redo_log.op; era = cur_era; ref_addr; refed; refed2 = 0; saved_cnt = cnt };
        Ctx.crash_point ctx Fault.Txn_after_redo
      end;
      let newh = Obj_header.make ~lcid:as_cid ~lera:cur_era ~ref_cnt:(cnt + delta) in
      if delta < 0 && (cnt = 1 || !mutation_store_shared) then begin
        Ctx.store ctx hdr newh;
        cnt + delta
      end
      else if Ctx.cas ctx hdr ~expected:saved ~desired:newh then cnt + delta
      else loop ()
    end
  in
  loop ()

(* The redo-logged transaction's tail once its header write committed:
   link or unlink [ref_addr] (idempotent), then consume the era. *)
let modify_ref (ctx : Ctx.t) ~as_cid ~ref_addr v =
  Ctx.crash_point ctx Fault.Txn_after_cas;
  Ctx.store ctx ref_addr v;
  Ctx.crash_point ctx Fault.Txn_after_modify_ref;
  Era.advance_for ctx ~cid:as_cid

let attach_as (ctx : Ctx.t) ~as_cid ~ref_addr ~refed =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Refc_attach ~addr:refed
  @@ fun () ->
  ignore
    (modify_refcnt ctx ~as_cid ~op:Redo_log.Attach ~redo:true ~decline:false
       ~ref_addr ~refed ~delta:1);
  modify_ref ctx ~as_cid ~ref_addr refed

let detach_as (ctx : Ctx.t) ~as_cid ~shared ~ref_addr ~refed =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Refc_detach ~addr:refed
  @@ fun () ->
  let n =
    modify_refcnt ctx ~as_cid ~op:Redo_log.Detach ~redo:true ~decline:shared
      ~ref_addr ~refed ~delta:(-1)
  in
  if n >= 0 then modify_ref ctx ~as_cid ~ref_addr 0;
  n

let attach (ctx : Ctx.t) ~ref_addr ~refed = attach_as ctx ~as_cid:ctx.cid ~ref_addr ~refed

(* Redo-free detach for epoch-batched retirement: the sealed journal entry
   stands in for the per-attempt redo record, so the CAS loop only
   observes and commits. Recovery decides whether the decrement landed with
   Conditions 1 & 2 against the dead client's current era — sound because
   every competing mutator observes the header tag before its own CAS, so
   a landed decrement is either still tagged (cid, era) or was seen by
   another client. No crash points: the whole window between the journal
   seal and the rootref free belongs to the journal. *)
let detach_batched (ctx : Ctx.t) ~shared ~ref_addr ~refed =
  Trace.with_span ctx Cxlshm_shmem.Histogram.Refc_detach ~addr:refed
  @@ fun () ->
  let n =
    modify_refcnt ctx ~as_cid:ctx.cid ~op:Redo_log.Detach ~redo:false
      ~decline:shared ~ref_addr ~refed ~delta:(-1)
  in
  if n >= 0 then begin
    Ctx.store ctx ref_addr 0;
    Era.advance ctx
  end;
  n

(* Count-neutral swap, the one re-point transaction: the count [ref_addr]
   holds on [from_obj] (none when null) moves to RootRef [rr], and the
   count [rr] holds on [to_obj] (none when null) moves to [ref_addr] —
   two plain stores under one redo record, no header CAS. The record's
   fence also orders everything written before it (a fresh record's
   payload) ahead of the publishing store. Linked means redo (replay the
   reference store), unlinked means discard. *)
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

let detach (ctx : Ctx.t) ~ref_addr ~refed =
  detach_as ctx ~as_cid:ctx.cid ~shared:false ~ref_addr ~refed

let committed (ctx : Ctx.t) ~cid ~obj ~era =
  (* Condition 1 strictly before Condition 2 (§4.3, fenced). *)
  let hdr = Ctx.load ctx (Obj_header.header_of_obj obj) in
  let u = Obj_header.unpack hdr in
  if u.Obj_header.lcid = Some cid && u.Obj_header.lera = era then true
  else begin
    Ctx.fence ctx;
    Era.max_seen_by_others ctx ~cid >= era
  end
