(* Per-run plumbing shared by the workloads: timing calls on the calling
   client, charging them to the queue model, heartbeats, monitor passes
   and crash bookkeeping. *)

open Cxlshm
module Stats = Cxlshm_shmem.Stats
module Latency = Cxlshm_shmem.Latency
module Q = Qmodel

let hb_every = 100
let monitor_every = 250

type 'role t = {
  model : Latency.t;
  q : Q.t;
  tracer : Tracer.t option;
  arena : Shm.arena;
  mon : Monitor.t;
  mon_srv : int;
  by_cid : (int, 'role * Run.crash) Hashtbl.t;  (** crashed, not yet recovered *)
  mutable crashes : Run.crash list;  (** newest first *)
  mutable last_ready : int;
  mutable soft_until : int;  (** op index ending a leave/join window *)
  recovery : int array;  (** rootrefs, worklist, parked, adopted *)
  mutable tick : int;  (** last tail tick used, <= 0 *)
}

let create ~rate ~seed ~ops ~tracer ~servers arena mon =
  let q =
    Q.create ~rate ~seed ~tick_every:monitor_every ~ops ~items_hint:(ops + (ops / 12))
  in
  List.iter (fun r -> ignore (Q.add_server q r)) servers;
  {
    model = Latency.of_tier Latency.Cxl;
    q;
    tracer;
    arena;
    mon;
    mon_srv = Q.add_server q Q.Monitor;
    by_cid = Hashtbl.create 8;
    crashes = [];
    last_ready = -1;
    soft_until = -1;
    recovery = Array.make 4 0;
    tick = 0;
  }

let timed s name f = match s.tracer with None -> f () | Some t -> Tracer.call t name f

let begin_item s (st : Stats.t) before =
  match s.tracer with Some t -> Tracer.begin_item t st before | None -> ()

let item_calls s id = match s.tracer with Some t -> Tracer.item_calls t s.q id | None -> []

(* Run [f] as one item of client [ctx] on server [srv]; returns f's result
   and the item id. *)
let item s (ctx : Ctx.t) ~srv ~at ?dep ?op ?last f =
  let st = ctx.Ctx.st in
  let before = Stats.probe st in
  begin_item s st before;
  let r = f () in
  (r, Q.charge s.q ~srv ~at ?dep ?op ?last (Stats.probe_ns s.model st ~since:before))

(* An item whose client joins in it: the fresh client's whole history. *)
let join_item s arena ?cid ~srv ~at ?dep f =
  let ctx = Shm.join arena ?cid () in
  begin_item s ctx.Ctx.st Tracer.zero_probe;
  (match s.tracer with Some t -> Tracer.joined t | None -> ());
  let r = f ctx in
  let id =
    Q.charge s.q ~srv ~at ?dep (Stats.probe_ns s.model ctx.Ctx.st ~since:Tracer.zero_probe)
  in
  (ctx, r, id)

let request_item s id = match s.tracer with Some t -> Tracer.request_item t s.q id | None -> ()

let end_request s op name =
  match s.tracer with
  | Some t -> Tracer.end_request t s.q ~op ~name:("request." ^ name)
  | None -> ()

let heartbeat s at (ctx : Ctx.t) srv =
  let (), id = item s ctx ~srv ~at (fun () -> timed s "core.heartbeat" (fun () -> Client.heartbeat ctx)) in
  ignore (item_calls s id)

let start_recording s =
  match s.tracer with Some t -> t.Tracer.recording <- true | None -> ()

let in_churn s op =
  Hashtbl.length s.by_cid > 0 || Q.arrival s.q op <= s.last_ready || op <= s.soft_until

let crashed s ~name ~at ~cid role =
  let c = Run.new_crash ~name ~id:(-(List.length s.crashes + 1)) ~at:(Q.live_time s.q at) in
  s.crashes <- c :: s.crashes;
  Hashtbl.replace s.by_cid cid (role, c)

(* Record the item that made a crashed client's replacement ready. *)
let ready s (c : Run.crash) id =
  c.c_spans <- c.c_spans @ item_calls s id;
  let t = Q.item_fin s.q id in
  c.c_ready <- t;
  if t > s.last_ready then s.last_ready <- t

(* One monitor pass, as the monitor's own loop runs it: tick the leases,
   recover every condemned client and let [replace] bring up its successor
   (depending on this pass), then, as leader, scan for leaking segments. *)
let monitor_pass s at ~replace =
  let mctx = Monitor.ctx s.mon in
  let st = mctx.Ctx.st in
  let before = Stats.probe st in
  begin_item s st before;
  let condemned = timed s "core.check_once" (fun () -> Monitor.check_once s.mon) in
  let check_off = Q.ps_of_ns (Stats.probe_ns s.model st ~since:before) in
  let recovered = timed s "core.recover_suspects" (fun () -> Monitor.recover_suspects s.mon) in
  let mid = Q.charge s.q ~srv:s.mon_srv ~at (Stats.probe_ns s.model st ~since:before) in
  let calls = item_calls s mid in
  let named n = List.filter (fun (m, _, _) -> m = n) calls in
  List.iter
    (fun cid ->
      match Hashtbl.find_opt s.by_cid cid with
      | Some (_, c) ->
          c.c_condemned <- Q.item_start s.q mid + check_off;
          c.c_spans <- c.c_spans @ named "core.check_once"
      | None -> ())
    condemned;
  List.iter
    (fun (cid, (rep : Recovery.report)) ->
      let r = s.recovery in
      r.(0) <- r.(0) + rep.Recovery.rootrefs_released;
      r.(1) <- r.(1) + rep.Recovery.worklist_processed;
      r.(2) <- r.(2) + rep.Recovery.parked_journaled;
      match Hashtbl.find_opt s.by_cid cid with
      | None -> ()
      | Some (role, c) ->
          Hashtbl.remove s.by_cid cid;
          c.c_spans <- c.c_spans @ named "core.recover_suspects";
          replace role ~cid ~at ~dep:mid c)
    recovered;
  if Monitor.is_leader s.mon then begin
    let (), id =
      item s (Shm.service_ctx s.arena) ~srv:s.mon_srv ~at (fun () ->
          timed s "core.scan_leaking" (fun () -> ignore (Shm.scan_leaking s.arena)))
    in
    ignore (item_calls s id)
  end

let drill_crashes = 9

(* After the last op the monitor keeps ticking, every [monitor_every]
   arrivals of the still-running generator, with no requests. *)
let tail_pass s ~heartbeat_all ~replace =
  s.tick <- s.tick - 1;
  heartbeat_all s.tick;
  monitor_pass s s.tick ~replace

let drain s ~heartbeat_all ~replace =
  let limit = (64 * (Ctx.cfg (Monitor.ctx s.mon)).Config.lease_ttl) - s.tick in
  while Hashtbl.length s.by_cid > 0 && - s.tick < limit do
    tail_pass s ~heartbeat_all ~replace
  done

(* Crash a client [drill_crashes] times with no load ([crash_one]) and
   recover it each time, then emit the churn spans. *)
let drill s ~heartbeat_all ~replace ~crash_one =
  for _ = 1 to drill_crashes do
    tail_pass s ~heartbeat_all ~replace;
    crash_one (s.tick - 1);
    drain s ~heartbeat_all ~replace
  done;
  match s.tracer with
  | Some t ->
      List.iter
        (fun (c : Run.crash) ->
          Tracer.add_churn t ~req:c.c_id ~name:("churn." ^ c.c_name) ~t0:c.c_at
            ~t1:(max c.c_at c.c_ready) c.c_spans)
        (List.rev s.crashes)
  | None -> ()

let recovery_counts s =
  let r = s.recovery in
  [ ("rootrefs_released", r.(0)); ("worklist_processed", r.(1));
    ("parked_journaled", r.(2)); ("adopted_records", r.(3)) ]

let unrecovered s = List.length (List.filter (fun (c : Run.crash) -> c.c_ready < 0) s.crashes)

let validate_errors arena =
  let v = Shm.validate arena in
  if Validate.is_clean v then 0 else max 1 (List.length v.Validate.errors)

let segments_used arena =
  (Shm.config arena).Config.num_segments - Shm.free_segments arena

let segment_bytes arena = (Shm.layout arena).Layout.segment_words * 8
