module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats

type status = Slot_free | Alive | Failed | Suspected

let status_of_int = function
  | 0 -> Slot_free
  | 1 -> Alive
  | 2 -> Failed
  | 3 -> Suspected
  | n -> invalid_arg (Printf.sprintf "Client.status_of_int: %d" n)

let status_to_int = function
  | Slot_free -> 0
  | Alive -> 1
  | Failed -> 2
  | Suspected -> 3

let init_slot (ctx : Ctx.t) =
  let lay = ctx.Ctx.lay in
  let cid = ctx.Ctx.cid in
  Era.init_row ctx;
  Redo_log.clear_for ctx ~cid;
  for k = 0 to lay.Layout.num_classes do
    Ctx.store ctx (Layout.class_head lay cid k) 0
  done;
  Ctx.store ctx (Layout.retire_count lay cid) 0;
  Ctx.store ctx (Layout.retire_era lay cid) 0;
  (* A previous occupant that died mid-traversal leaves its hazard
     announcement behind; a fresh incarnation starts not-reading, else the
     stale (small) era would pin reclamation forever. *)
  Ctx.store ctx (Layout.client_hazard lay cid) 0;
  (* Lease grant last: the deadline only starts mattering once the slot is
     live. The grant era is monotone across incarnations (never reset), so
     stale suspicion decisions and already-claimed death dumps from a
     previous occupant of this slot cannot apply to the new one. *)
  ignore (Lease.grant ctx ~cid)

let register ~mem ~lay ?cid () =
  (* The bootstrap context borrows cid 0 only to CAS registration flags;
     it must not mirror client 0's private words. *)
  let bootstrap = Ctx.make ~cache:false ~epoch:false ~mem ~lay ~cid:0 () in
  let try_claim c =
    Ctx.cas bootstrap (Layout.client_flags lay c) ~expected:0 ~desired:1
  in
  let claimed =
    match cid with
    | Some c -> if try_claim c then Some c else None
    | None ->
        let m = lay.Layout.cfg.Config.max_clients in
        let rec go c = if c >= m then None else if try_claim c then Some c else go (c + 1) in
        go 0
  in
  match claimed with
  | None -> failwith "Client.register: no free client slot"
  | Some c ->
      let ctx = Ctx.make ~mem ~lay ~cid:c () in
      init_slot ctx;
      ctx

let status (ctx : Ctx.t) ~cid =
  status_of_int (Ctx.load ctx (Layout.client_flags ctx.lay cid))

(* A Suspected client is still alive for every safety purpose (hazards,
   reachability, leak scans): suspicion is a liveness hint that the owner
   can cancel; only Failed fences it out. Total, so a damaged flags word
   reads as not alive. *)
let alive_flags f = f = status_to_int Alive || f = status_to_int Suspected

let is_alive (ctx : Ctx.t) ~cid =
  alive_flags (Ctx.load ctx (Layout.client_flags ctx.lay cid))

let heartbeat (ctx : Ctx.t) =
  Ctx.refresh_degraded_hint ctx;
  Lease.renew ctx ~cid:ctx.cid;
  (* Cancel a false-positive suspicion. If it fails because the slot is
     already Failed the client is fenced — the renewed deadline is
     harmless (recovery ends in Slot_free and clears it) and the caller
     discovers the condemnation via [status]/its next operation. *)
  ignore (Lease.self_heal ctx ~cid:ctx.cid)

let set_status (ctx : Ctx.t) ~cid s =
  Ctx.store ctx (Layout.client_flags ctx.lay cid) (status_to_int s)

let declare_failed ctx ~cid = set_status ctx ~cid Failed

let mark_recovered ctx ~cid =
  Lease.release ctx ~cid;
  set_status ctx ~cid Slot_free

let unregister (ctx : Ctx.t) =
  (* Retirements parked in the volatile buffer must land before the slot
     is surrendered — nothing replays them for a cleanly-departed client. *)
  Reclaim.flush_retired ctx;
  Alloc.collect_deferred ctx;
  List.iter
    (fun seg ->
      match Segment.state ctx seg with
      (* An empty POTENTIAL_LEAKING segment is releasable here: [used] only
         reaches 0 once every carved block is back on a free list, and any
         release still in flight (ours completed before leave; a peer's
         keeps its block off-list) holds [used] above 0. *)
      | (Segment.Active | Segment.Leaking) when Reclaim.segment_unused ctx seg
        ->
          Reclaim.recycle_plain_segment ctx seg
      | Segment.Active | Segment.Leaking -> Segment.orphan ctx ~cid:ctx.cid seg
      | Segment.Huge_head | Segment.Huge_cont ->
          (* Live huge object: leave owned; remote holders keep it alive and
             the leak scan recycles it once its count drops to zero. *)
          ()
      | Segment.Free | Segment.Orphaned -> ())
    (Segment.owned_by ctx ~cid:ctx.cid);
  (* Drop the lease before the slot: once the deadline is 0 a recycled slot
     cannot be instantly re-suspected off this incarnation's stale
     deadline, and the flags store below also clears a pending Suspected. *)
  Lease.release ctx ~cid:ctx.cid;
  set_status ctx ~cid:ctx.cid Slot_free
