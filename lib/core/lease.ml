(* Client and monitor-leader leases over the shared logical lease clock.
   Status-word values are raw ints here (kept in sync with
   [Client.status_to_int]) so [Client] can depend on this module. *)

let st_alive = 1
let st_failed = 2
let st_suspected = 3
let now (ctx : Ctx.t) = Ctx.load ctx (Layout.hdr_lease_clock ctx.Ctx.lay)
let tick (ctx : Ctx.t) = Ctx.fetch_add ctx (Layout.hdr_lease_clock ctx.Ctx.lay) 1 + 1
let ttl ctx = (Ctx.cfg ctx).Config.lease_ttl

let deadline (ctx : Ctx.t) ~cid =
  Ctx.load ctx (Layout.client_lease_deadline ctx.Ctx.lay cid)

let era (ctx : Ctx.t) ~cid = Ctx.load ctx (Layout.client_lease_era ctx.Ctx.lay cid)

let renew (ctx : Ctx.t) ~cid =
  Ctx.store ctx (Layout.client_lease_deadline ctx.Ctx.lay cid) (now ctx + ttl ctx)

let grant (ctx : Ctx.t) ~cid =
  let e = Ctx.fetch_add ctx (Layout.client_lease_era ctx.Ctx.lay cid) 1 + 1 in
  renew ctx ~cid;
  e

let release (ctx : Ctx.t) ~cid =
  Ctx.store ctx (Layout.client_lease_deadline ctx.Ctx.lay cid) 0

let expired ctx ~cid =
  let d = deadline ctx ~cid in
  d <> 0 && now ctx > d

let try_suspect (ctx : Ctx.t) ~cid =
  expired ctx ~cid
  && Ctx.cas ctx
       (Layout.client_flags ctx.Ctx.lay cid)
       ~expected:st_alive ~desired:st_suspected

let try_condemn (ctx : Ctx.t) ~cid =
  (* Grace period: a suspected client keeps its (stale) deadline, so
     condemnation waits a second full TTL past it — one TTL of silence made
     it Suspected, another makes it Failed. The CAS itself fences against
     every rescue path: a heartbeat self-heal (3 → 1), a clean unregister
     (3 → 0) or a slot recycle all change the flags word first. *)
  let d = deadline ctx ~cid in
  d <> 0
  && now ctx > d + ttl ctx
  && Ctx.cas ctx
       (Layout.client_flags ctx.Ctx.lay cid)
       ~expected:st_suspected ~desired:st_failed

(* The caller renewed its deadline first, so a suspicion that lands after
   the load is healed by the next heartbeat, inside the TTL condemnation
   waits: only a word that reads Suspected pays the CAS. *)
let self_heal (ctx : Ctx.t) ~cid =
  let flags = Layout.client_flags ctx.Ctx.lay cid in
  Ctx.load ctx flags = st_suspected
  && Ctx.cas ctx flags ~expected:st_suspected ~desired:st_alive

(* Monitor leader lease, packed in one word so election, renewal and
   deposition are each a single CAS on [Layout.hdr_leader]. *)

type lead = Follower | Leader | Took_over

let leader (ctx : Ctx.t) =
  Layout.leader_unpack (Ctx.load ctx (Layout.hdr_leader ctx.Ctx.lay))

let try_lead (ctx : Ctx.t) ~id =
  let addr = Layout.hdr_leader ctx.Ctx.lay in
  let w = Ctx.load ctx addr in
  let desired = Layout.leader_pack ~id ~deadline:(now ctx + ttl ctx) in
  let swing () = Ctx.cas ctx addr ~expected:w ~desired in
  match Layout.leader_unpack w with
  | None ->
      if swing () then begin
        Ctx.crash_point ctx Fault.Lead_after_acquire;
        Leader
      end
      else Follower
  | Some (lid, _) when lid = id ->
      (* Renewal must CAS, not store: a concurrent deposition may have
         already taken the word, and overwriting it would fork leadership. *)
      if swing () then Leader else Follower
  | Some (_, dl) when now ctx > dl ->
      if swing () then begin
        Ctx.crash_point ctx Fault.Lead_after_acquire;
        Took_over
      end
      else Follower
  | Some _ -> Follower

let abdicate (ctx : Ctx.t) ~id =
  let addr = Layout.hdr_leader ctx.Ctx.lay in
  let w = Ctx.load ctx addr in
  match Layout.leader_unpack w with
  | Some (lid, _) when lid = id -> ignore (Ctx.cas ctx addr ~expected:w ~desired:0)
  | _ -> ()
