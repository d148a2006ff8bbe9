(* Open-loop RPC fan-in over Cxl_rpc: [clients] callers, each with its own
   isolated channel and one outstanding call, into one server. A call is
   three items: the client allocates and fills its arguments and sends,
   the server validates and runs it, the client collects the output. *)

open Cxlshm
module Rpc = Cxlshm_rpc.Cxl_rpc
module Message = Cxlshm_rpc.Message
module Q = Qmodel

type spec = { calls : int; rate : float }

let clients = 8
let capacity = 2
let small_words = 8  (* one 64 B argument *)
let bulk_words = 128  (* three 1 KiB arguments *)
let bulk_args = 3

(* Every tenth call of each client is bulk, staggered so that clients take
   turns. A random mix would also decide which argument blocks alias in the
   line filter, and that swings whole runs between cache regimes; this way
   the seed drives the arrivals. *)
let is_bulk call = ((call / clients) + (call mod clients)) mod 10 = 9

(* p99 limit for the SLO rate: 50 us. A bulk call streams 48 cold lines
   of arguments on each side, over 20 us of service before any queueing. *)
let slo_p99_ps = 50_000_000

let class_names = [| "small"; "bulk" |]
let write_class = [| false; true |]

let config =
  {
    Config.default with
    Config.max_clients = clients + 8;
    num_segments = 64;
    pages_per_segment = 8;
    page_words = 4096;
    backend = Cxlshm_shmem.Mem.Counting_fast;
  }

type cslot = {
  csrv : int;  (** its server id; the shared server is [clients] *)
  mutable cctx : Ctx.t;
  mutable chan : Rpc.client;
  mutable ep : Rpc.server;  (** the server's endpoint for this channel *)
  mutable cst : [ `Alive | `Crashed ];
}

type setup = { arena : Shm.arena; server : Ctx.t; cs : cslot array; mon : Monitor.t }

let connect arena server =
  let ctx = Shm.join arena () in
  let ep = Rpc.accept server ~client_cid:ctx.Ctx.cid ~capacity in
  (ctx, ep, Rpc.connect ctx ~server_cid:server.Ctx.cid ~capacity)

(* Arena creation and channel connects: the work [setup_s] times. *)
let setup () =
  let arena = Shm.create ~cfg:config () in
  let server = Shm.join arena () in
  let cs =
    Array.init clients (fun i ->
        let cctx, ep, chan = connect arena server in
        { csrv = i; cctx; chan; ep; cst = `Alive })
  in
  { arena; server; cs; mon = Shm.monitor arena () }

(* Argument word j of argument a of call i, and the checksum the server
   returns over every argument word in order. *)
let payload i a j = (i lsl 20) lxor (a lsl 12) lxor j
let mix acc w = ((acc * 31) + w) land 0x3FFF_FFFF_FFFF

let expected i ~nargs ~words =
  let acc = ref 0 in
  for a = 0 to nargs - 1 do
    for j = 0 to words - 1 do
      acc := mix !acc (payload i a j)
    done
  done;
  !acc

let handler ~func:_ ~args ~output =
  let words = if List.length args = 1 then small_words else bulk_words in
  let acc = ref 0 in
  List.iter
    (fun v ->
      for j = 0 to words - 1 do
        acc := mix !acc (Message.read_word v j)
      done)
    args;
  Message.write_word output 0 !acc

let run spec ~seed ~tracer (su : setup) =
  let s =
    Sim.create ~rate:spec.rate ~seed ~ops:spec.calls ~tracer
      ~servers:(List.init clients (fun _ -> Q.Rpc_client) @ [ Q.Rpc_server ])
      su.arena su.mon
  in
  let q = s.Sim.q in
  let server_srv = clients in
  let cls = Bytes.make spec.calls '\000' and churn = Bytes.make spec.calls '\000' in
  let warmup = spec.calls / 20 in
  let mismatches = ref 0 and failed = ref 0 and rejected = ref 0 in

  let call c op ~bulk =
    let nargs, words = if bulk then (bulk_args, bulk_words) else (1, small_words) in
    let (args, p), id1 =
      Sim.item s c.cctx ~srv:c.csrv ~at:op ~op (fun () ->
          let args =
            List.init nargs (fun a ->
                let r =
                  Sim.timed s "rpc.alloc_arg" (fun () ->
                      Rpc.alloc_arg c.chan ~size_bytes:(words * 8) ())
                in
                for j = 0 to words - 1 do
                  Cxl_ref.write_word r j (payload op a j)
                done;
                r)
          in
          (args, Sim.timed s "rpc.call_async" (fun () ->
                     Rpc.call_async c.chan ~func:1 ~args ~output_bytes:8)))
    in
    Sim.request_item s id1;
    let served, id2 =
      Sim.item s su.server ~srv:server_srv ~at:op ~dep:id1 ~op (fun () ->
          Sim.timed s "rpc.serve_one" (fun () -> Rpc.serve_one c.ep ~handler))
    in
    Sim.request_item s id2;
    let (), id3 =
      Sim.item s c.cctx ~srv:c.csrv ~at:op ~dep:id2 ~op ~last:true (fun () ->
          (match Sim.timed s "rpc.finish" (fun () -> Rpc.finish p) with
          | out ->
              if Cxl_ref.read_word out 0 <> expected op ~nargs ~words then incr mismatches;
              Cxl_ref.drop out
          | exception Rpc.Call_rejected _ -> incr failed);
          List.iter Cxl_ref.drop args)
    in
    if not served then incr failed;
    Sim.request_item s id3;
    Sim.end_request s op class_names.(if bulk then 1 else 0)
  in

  let heartbeat_all at =
    Array.iter (fun c -> if c.cst = `Alive then Sim.heartbeat s at c.cctx c.csrv) su.cs;
    Sim.heartbeat s at su.server server_srv
  in
  (* The server revokes the dead caller's channel and accepts its
     successor, which then connects. *)
  let replace idx ~cid ~at ~dep crash =
    let c = su.cs.(idx) in
    let ctx = Shm.join su.arena ~cid () in
    let ep, sid =
      Sim.item s su.server ~srv:server_srv ~at ~dep (fun () ->
          rejected := !rejected + Rpc.rejected_calls c.ep;
          Sim.timed s "rpc.close_server" (fun () -> Rpc.close_server c.ep);
          Rpc.accept su.server ~client_cid:ctx.Ctx.cid ~capacity)
    in
    crash.Run.c_spans <- crash.Run.c_spans @ Sim.item_calls s sid;
    Sim.begin_item s ctx.Ctx.st Tracer.zero_probe;
    (match s.Sim.tracer with Some t -> Tracer.joined t | None -> ());
    let chan =
      Sim.timed s "rpc.connect" (fun () ->
          Rpc.connect ctx ~server_cid:su.server.Ctx.cid ~capacity)
    in
    let cid =
      Q.charge q ~srv:c.csrv ~at ~dep:sid
        (Cxlshm_shmem.Stats.probe_ns s.Sim.model ctx.Ctx.st ~since:Tracer.zero_probe)
    in
    Sim.ready s crash cid;
    c.cctx <- ctx;
    c.chan <- chan;
    c.ep <- ep;
    c.cst <- `Alive
  in
  (* A caller dies inside a call: the fault fires at the first crash point
     its allocation or send reaches. *)
  let crash_client at =
    let c = su.cs.(clients - 1) in
    let n = List.length s.Sim.crashes + 1 in
    c.cctx.Ctx.fault <- Fault.random ~seed:(seed + (31 * n)) ~probability:1.0;
    match
      let a = Rpc.alloc_arg c.chan ~size_bytes:(small_words * 8) () in
      Rpc.call_async c.chan ~func:1 ~args:[ a ] ~output_bytes:8
    with
    | _ -> failwith "rpc: the injected client crash did not fire"
    | exception Fault.Crashed _ ->
        c.cst <- `Crashed;
        Sim.crashed s ~name:"crash-client" ~at ~cid:c.cctx.Ctx.cid (clients - 1)
  in

  let t0 = Unix.gettimeofday () in
  for i = 0 to spec.calls - 1 do
    let op = Q.arrive q in
    if op = warmup then Sim.start_recording s;
    if i mod Sim.hb_every = 0 then heartbeat_all op;
    if i mod Sim.monitor_every = 0 then Sim.monitor_pass s op ~replace;
    if Sim.in_churn s op then Bytes.set churn op '\001';
    let bulk = is_bulk i in
    Bytes.set cls op (if bulk then '\001' else '\000');
    call su.cs.(i mod clients) op ~bulk
  done;
  let stream_wall_s = Unix.gettimeofday () -. t0 in
  Sim.drain s ~heartbeat_all ~replace;
  let segments_used = Sim.segments_used su.arena in
  Sim.drill s ~heartbeat_all ~replace ~crash_one:crash_client;
  Array.iter (fun c -> rejected := !rejected + Rpc.rejected_calls c.ep) su.cs;
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
    mem_bytes = segments_used * Sim.segment_bytes su.arena;
    space_amp = 0.0;
    checks =
      [ ("output_mismatches", !mismatches); ("rejected_calls", !rejected);
        ("validate_errors", Sim.validate_errors su.arena); ("unrecovered", Sim.unrecovered s) ];
    attempted = spec.calls;
    failed = !failed;
    stream_wall_s;
    tracer;
  }
