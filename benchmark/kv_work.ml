(* Open-loop KV serving over Cxl_kv: sharded writers, round-robin readers,
   a lease monitor and scripted churn, all simulated clients on one OS
   thread. *)

open Cxlshm
module Kv = Cxlshm_kv.Cxl_kv
module Ycsb = Cxlshm_kv.Ycsb
module Op = Cxlshm_kv.Kv_intf
module Q = Qmodel

type action = Crash_writer | Crash_reader | Leave_writer | Join_reader

type spec = {
  keys : int;
  readers : int;
  ops : int;
  rate : float;  (** offered Mops *)
  mix : Ycsb.mix;
  churn : (int * action) list;  (** by op index, ascending *)
}

let writers = 4
let value_words = 2
let theta = 0.99
let quiesce_every = 256

(* p99 limit for the SLO rate: 20 us *)
let slo_p99_ps = 20_000_000

let class_names = [| "read"; "update"; "insert"; "rmw" |]
let write_class = [| false; true; true; true |]

let class_of = function
  | Op.Read _ -> 0
  | Op.Update _ | Op.Delete _ -> 1
  | Op.Insert _ -> 2
  | Op.Rmw _ -> 3

(* Small segments keep the footprint metric fine-grained. The slack covers
   COW versions parked while a crashed reader pins reclamation, and every
   writer crash orphans the dead writer's partly filled segments (about
   0.7 on average), so each scheduled one gets two more. *)
let config spec =
  let buckets = max 64 (min (1 lsl 20) spec.keys) in
  let page_words = 4096 and pages_per_segment = 8 in
  let max_keys = spec.keys + int_of_float (float_of_int spec.ops *. spec.mix.insert) in
  let data_words = (max_keys * 8 * 14 / 10) + buckets + 65_536 in
  let writer_crashes =
    Sim.drill_crashes + List.length (List.filter (fun (_, a) -> a = Crash_writer) spec.churn)
  in
  ( {
      Config.default with
      Config.max_clients = writers + spec.readers + 8;
      num_segments = (data_words / (page_words * pages_per_segment)) + 48 + (2 * writer_crashes);
      pages_per_segment;
      page_words;
      backend = Cxlshm_shmem.Mem.Counting_fast;
    },
    buckets )

type wslot = {
  widx : int;  (** also its server id *)
  mutable wctx : Ctx.t;
  mutable wh : Kv.handle;
  mutable wst : [ `Alive | `Crashed | `Left ];
  mutable wops : int;
  mutable pending : (int * Op.op) list;  (** newest first *)
}

type rslot = {
  rsrv : int;
  mutable rctx : Ctx.t;
  mutable rh : Kv.handle;
  mutable rst : [ `Alive | `Crashed ];
}

type setup = {
  arena : Shm.arena;
  store : Kv.store;
  ws : wslot array;
  rs : rslot list;
  mon : Monitor.t;
  gen : Ycsb.t;
}

(* Arena creation and preload: the work [setup_s] times. *)
let setup spec ~seed =
  let cfg, buckets = config spec in
  let arena = Shm.create ~cfg () in
  let creator = Shm.join arena () in
  let store, h0 = Kv.create creator ~buckets ~partitions:writers ~value_words in
  let ws =
    Array.init writers (fun i ->
        let ctx = if i = 0 then creator else Shm.join arena () in
        let h = if i = 0 then h0 else Kv.open_store ctx store in
        if not (Kv.claim_partition h i) then failwith "kv: partition claim failed";
        { widx = i; wctx = ctx; wh = h; wst = `Alive; wops = 0; pending = [] })
  in
  let rs =
    List.init spec.readers (fun i ->
        let ctx = Shm.join arena () in
        { rsrv = writers + i; rctx = ctx; rh = Kv.open_store ctx store; rst = `Alive })
  in
  let gen = Ycsb.create_mix ~keys:spec.keys ~mix:spec.mix ~dist:Ycsb.Zipfian ~theta ~seed in
  Ycsb.load_iter gen (function
    | Op.Insert (k, v) -> Kv.put ws.(Kv.partition_of_key store k).wh ~key:k ~value:v
    | _ -> ());
  { arena; store; ws; rs; mon = Shm.monitor arena (); gen }

(* Expected value of every key, in execution order. A key written by the
   update a writer died in may hold either value until it is read. *)
module Shadow = struct
  let absent = min_int

  type t = { mutable v : int array; uncertain : (int, int) Hashtbl.t }

  (* the preload writes value k under key k *)
  let create keys = { v = Array.init keys Fun.id; uncertain = Hashtbl.create 64 }
  let get s k = if k < Array.length s.v then s.v.(k) else absent

  let set s k x =
    if k >= Array.length s.v then begin
      let b = Array.make (max (k + 1) (2 * Array.length s.v)) absent in
      Array.blit s.v 0 b 0 (Array.length s.v);
      s.v <- b
    end;
    s.v.(k) <- x;
    Hashtbl.remove s.uncertain k

  let check s k observed =
    match observed with
    | Some v when v = get s k ->
        Hashtbl.remove s.uncertain k;
        true
    | Some v when Hashtbl.find_opt s.uncertain k = Some v ->
        set s k v;
        true
    | None -> get s k = absent
    | Some _ -> false
end

let run spec ~seed ~tracer (su : setup) =
  let s =
    Sim.create ~rate:spec.rate ~seed ~ops:spec.ops ~tracer
      ~servers:(List.init writers (fun _ -> Q.Writer) @ List.init spec.readers (fun _ -> Q.Reader))
      su.arena su.mon
  in
  let q = s.Sim.q in
  let ws = su.ws and store = su.store in
  let part_owner = Array.init writers Fun.id in
  let readers = ref (Array.of_list su.rs) in
  let shadow = Shadow.create spec.keys in
  let cls = Bytes.make spec.ops '\000' and churn = Bytes.make spec.ops '\000' in
  let warmup = spec.ops / 20 in
  let mismatches = ref 0 and failed = ref 0 and reader_rr = ref 0 in
  let check key v = if not (Shadow.check shadow key v) then incr mismatches in

  let exec_read r op key =
    let (), id =
      Sim.item s r.rctx ~srv:r.rsrv ~at:op ~op ~last:true (fun () ->
          check key (Sim.timed s "kv.get" (fun () -> Kv.get r.rh ~key)))
    in
    Sim.request_item s id;
    Sim.end_request s op "read"
  in
  let exec_write w op o =
    let (), id =
      Sim.item s w.wctx ~srv:w.widx ~at:op ~op ~last:true (fun () ->
          w.wops <- w.wops + 1;
          if w.wops mod quiesce_every = 0 then
            Sim.timed s "kv.quiesce" (fun () -> Kv.quiesce w.wh);
          match o with
          | Op.Update (key, value) ->
              Sim.timed s "kv.put_cow" (fun () -> Kv.put_cow w.wh ~key ~value);
              Shadow.set shadow key value
          | Op.Insert (key, value) ->
              Sim.timed s "kv.put" (fun () -> Kv.put w.wh ~key ~value);
              Shadow.set shadow key value
          | Op.Rmw (key, delta) ->
              let old = Sim.timed s "kv.rmw" (fun () -> Kv.rmw w.wh ~key ~delta) in
              check key old;
              Shadow.set shadow key (Option.value old ~default:0 + delta)
          | Op.Read key -> check key (Sim.timed s "kv.get" (fun () -> Kv.get w.wh ~key))
          | Op.Delete _ -> invalid_arg "kv: no workload deletes")
    in
    Sim.request_item s id;
    Sim.end_request s op class_names.(class_of o)
  in

  let alive_writers () = List.filter (fun w -> w.wst = `Alive) (Array.to_list ws) in
  let pick_reader () =
    let arr = !readers in
    let n = Array.length arr in
    let rec go k =
      if k >= n then None
      else
        let i = (!reader_rr + k) mod n in
        if arr.(i).rst = `Alive then begin
          reader_rr := (i + 1) mod n;
          Some i
        end
        else go (k + 1)
    in
    go 0
  in
  let heartbeat_all at =
    Array.iter (fun w -> if w.wst = `Alive then Sim.heartbeat s at w.wctx w.widx) ws;
    Array.iter (fun r -> if r.rst = `Alive then Sim.heartbeat s at r.rctx r.rsrv) !readers
  in

  (* A successor rejoins in the dead client's slot, takes over a dead
     writer's partitions and adopts its parked records; requests queued
     for it run once it is ready. *)
  let replace role ~cid ~at ~dep c =
    match role with
    | `W idx ->
        let w = ws.(idx) in
        let ctx, h, id =
          Sim.join_item s su.arena ~cid ~srv:idx ~at ~dep (fun ctx ->
              let h = Sim.timed s "kv.open_store" (fun () -> Kv.open_store ctx store) in
              Array.iteri
                (fun p owner ->
                  if owner = idx then
                    ignore
                      (Sim.timed s "kv.takeover_partition" (fun () ->
                           Kv.takeover_partition h p)))
                part_owner;
              let n = Sim.timed s "kv.adopt_recovered" (fun () -> Kv.adopt_recovered h) in
              s.Sim.recovery.(3) <- s.Sim.recovery.(3) + n;
              h)
        in
        Sim.ready s c id;
        w.wctx <- ctx;
        w.wh <- h;
        w.wst <- `Alive;
        let pend = List.rev w.pending in
        w.pending <- [];
        List.iter (fun (op, o) -> exec_write w op o) pend
    | `R idx ->
        let r = !readers.(idx) in
        let ctx, h, id =
          Sim.join_item s su.arena ~cid ~srv:r.rsrv ~at ~dep (fun ctx ->
              Sim.timed s "kv.open_store" (fun () -> Kv.open_store ctx store))
        in
        Sim.ready s c id;
        r.rctx <- ctx;
        r.rh <- h;
        r.rst <- `Alive
  in

  (* Die inside a COW update of a key the victim owns: the fault fires at
     the first crash point the update reaches. *)
  let crash_writer at =
    match List.rev (alive_writers ()) with
    | [] -> ()
    | w :: _ -> (
        let key =
          let rec find p = if part_owner.(p) = w.widx then p else find (p + 1) in
          find 0
        in
        let n = List.length s.Sim.crashes + 1 in
        let value = 0x7C0FE000 + n in
        w.wctx.Ctx.fault <- Fault.random ~seed:(seed + (31 * n)) ~probability:1.0;
        match Kv.put_cow w.wh ~key ~value with
        | () ->
            w.wctx.Ctx.fault <- Fault.none;
            Shadow.set shadow key value
        | exception Fault.Crashed _ ->
            w.wst <- `Crashed;
            Hashtbl.replace shadow.Shadow.uncertain key value;
            Sim.crashed s ~name:"crash-writer" ~at ~cid:w.wctx.Ctx.cid (`W w.widx))
  in
  (* Die mid-traversal: the era announcement pins reclamation until the
     monitor condemns the slot. *)
  let crash_reader at =
    match pick_reader () with
    | None -> ()
    | Some i ->
        let r = !readers.(i) in
        Hazard.enter r.rctx;
        r.rst <- `Crashed;
        Sim.crashed s ~name:"crash-reader" ~at ~cid:r.rctx.Ctx.cid (`R i)
  in
  (* Planned departure: ship parked records to a successor over a transfer
     queue, move partition ownership, leave cleanly. *)
  let leave_writer op =
    match alive_writers () with
    | a :: b :: _ ->
        let d, su_w = if a.widx > b.widx then (a, b) else (b, a) in
        let link, did =
          Sim.item s d.wctx ~srv:d.widx ~at:op (fun () ->
              let parked = Kv.deferred_count d.wh in
              if parked = 0 then None
              else
                let tq =
                  Transfer.connect d.wctx ~receiver:su_w.wctx.Ctx.cid ~capacity:(parked + 1)
                in
                Some (tq, Sim.timed s "kv.handoff_deferred" (fun () -> Kv.handoff_deferred d.wh tq)))
        in
        let (), sid =
          Sim.item s su_w.wctx ~srv:su_w.widx ~at:op ~dep:did (fun () ->
              (match link with
              | Some (_, sent) -> (
                  match Transfer.open_from su_w.wctx ~sender:d.wctx.Ctx.cid with
                  | Some qr ->
                      let n = Kv.adopt_deferred su_w.wh qr ~max:sent in
                      s.Sim.recovery.(3) <- s.Sim.recovery.(3) + n;
                      Transfer.close qr
                  | None -> ())
              | None -> ());
              Array.iteri
                (fun p owner ->
                  if owner = d.widx then begin
                    ignore
                      (Sim.timed s "kv.takeover_partition" (fun () ->
                           Kv.takeover_partition su_w.wh p));
                    part_owner.(p) <- su_w.widx
                  end)
                part_owner)
        in
        (* the departing client's teardown, after the successor took over *)
        let (), tid =
          Sim.item s d.wctx ~srv:d.widx ~at:op ~dep:sid (fun () ->
              Option.iter (fun (tq, _) -> Transfer.close tq) link;
              Kv.close d.wh;
              Shm.leave d.wctx)
        in
        d.wst <- `Left;
        (match s.Sim.tracer with
        | Some t ->
            let span n id = (n, Q.item_start q id, Q.item_fin q id) in
            Tracer.add_churn t ~req:(-100_000 - op) ~name:"churn.leave-writer"
              ~t0:(Q.arrival q op) ~t1:(Q.item_fin q tid)
              [ span "leave.handoff" did; span "leave.successor" sid; span "leave.teardown" tid ]
        | None -> ());
        s.Sim.soft_until <- op + Sim.monitor_every
    | _ -> ()
  in
  let join_reader op =
    let srv = Q.add_server q Q.Reader in
    let ctx, h, id =
      Sim.join_item s su.arena ~srv ~at:op (fun ctx ->
          Sim.timed s "kv.open_store" (fun () -> Kv.open_store ctx store))
    in
    let calls = Sim.item_calls s id in
    (match s.Sim.tracer with
    | Some t ->
        Tracer.add_churn t ~req:(-200_000 - op) ~name:"churn.join-reader"
          ~t0:(Q.arrival q op) ~t1:(Q.item_fin q id) calls
    | None -> ());
    readers := Array.append !readers [| { rsrv = srv; rctx = ctx; rh = h; rst = `Alive } |];
    s.Sim.soft_until <- op + Sim.monitor_every
  in

  let churn_q = ref spec.churn in
  let t0 = Unix.gettimeofday () in
  for i = 0 to spec.ops - 1 do
    let op = Q.arrive q in
    if op = warmup then Sim.start_recording s;
    let rec fire () =
      match !churn_q with
      | (at, a) :: rest when at <= op ->
          churn_q := rest;
          (match a with
          | Crash_writer -> crash_writer op
          | Crash_reader -> crash_reader op
          | Leave_writer -> leave_writer op
          | Join_reader -> join_reader op);
          fire ()
      | _ -> ()
    in
    fire ();
    if i mod Sim.hb_every = 0 then heartbeat_all op;
    if i mod Sim.monitor_every = 0 then Sim.monitor_pass s op ~replace;
    if Sim.in_churn s op then Bytes.set churn op '\001';
    let o = Ycsb.next su.gen in
    Bytes.set cls op (Char.chr (class_of o));
    match o with
    | Op.Read key -> (
        match pick_reader () with
        | Some r -> exec_read !readers.(r) op key
        | None -> (
            match alive_writers () with w :: _ -> exec_write w op o | [] -> incr failed))
    | Op.Update (key, _) | Op.Insert (key, _) | Op.Rmw (key, _) | Op.Delete key -> (
        let w = ws.(part_owner.(Kv.partition_of_key store key)) in
        match w.wst with
        | `Alive -> exec_write w op o
        | `Crashed -> w.pending <- (op, o) :: w.pending
        | `Left -> incr failed)
  done;
  let stream_wall_s = Unix.gettimeofday () -. t0 in
  Sim.drain s ~heartbeat_all ~replace;

  (* Footprint after a last quiesce, before the drill; then every key is
     read back through a fresh reader (value word i of a record holding x
     reads x + i). *)
  Array.iter (fun w -> if w.wst = `Alive then Kv.quiesce w.wh) ws;
  let segments_used = Sim.segments_used su.arena in
  let mem_bytes = segments_used * Sim.segment_bytes su.arena in
  Sim.drill s ~heartbeat_all ~replace ~crash_one:crash_writer;
  let checker = Shm.join su.arena () in
  let ch = Kv.open_store checker store in
  let live = ref 0 and lost = ref 0 in
  Array.iteri
    (fun k x ->
      if x <> Shadow.absent then begin
        incr live;
        let words = Kv.get_all_words ch ~key:k in
        let holds x =
          match words with
          | Some a -> Array.for_all Fun.id (Array.mapi (fun i y -> y = x + i) a)
          | None -> false
        in
        let alt = Hashtbl.find_opt shadow.Shadow.uncertain k in
        if not (holds x || Option.fold ~none:false ~some:holds alt) then incr lost
      end)
    shadow.Shadow.v;
  Kv.close ch;
  Shm.leave checker;
  {
    Run.workload = "";
    seed;
    q;
    cls;
    class_names;
    write_class;
    churn;
    warmup;
    slo_p99_ps;
    crashes = List.rev s.Sim.crashes;
    recovery = Sim.recovery_counts s;
    segments_used;
    mem_bytes;
    space_amp = float_of_int mem_bytes /. float_of_int (max 1 (!live * value_words * 8));
    checks =
      [ ("read_mismatches", !mismatches); ("lost_writes", !lost);
        ("validate_errors", Sim.validate_errors su.arena); ("unrecovered", Sim.unrecovered s) ];
    attempted = spec.ops;
    failed = !failed;
    stream_wall_s;
    tracer;
  }
