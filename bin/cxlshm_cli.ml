(* cxlshm — command-line driver for poking at a simulated CXL-SHM arena.

   Subcommands:
     demo      allocate / share / crash / recover walk-through
     drill     run the §6.2.2 crash-window drill for one or all points
     stats     print arena geometry for a given configuration
     validate  build a randomized workload and validate the arena
     fsck      verify (and optionally repair) a saved pool image
     soak      crash-point x device-fault sweep with a JSON report
     trace     replay a client's event ring from a saved image
     top       per-op latency summary over every ring in a saved image
     serve     open-loop KV serving run with churn and an SLO report *)

open Cxlshm
open Cmdliner
module Debug = Cxlshm_check.Debug
module Soak = Cxlshm_check.Soak

let geometry segments pages page_words clients backend =
  {
    Config.default with
    Config.num_segments = segments;
    pages_per_segment = pages;
    page_words;
    max_clients = clients;
    backend;
  }

let seg_arg =
  Arg.(value & opt int 64 & info [ "segments" ] ~doc:"Number of segments.")

let pages_arg =
  Arg.(value & opt int 16 & info [ "pages" ] ~doc:"Pages per segment.")

let pw_arg =
  Arg.(value & opt int 1024 & info [ "page-words" ] ~doc:"Words per page.")

let clients_arg =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Maximum clients (M).")

(* ---- memory backend selection ---- *)

let backend_kind_arg =
  Arg.(
    value
    & opt (enum [ ("flat", `Flat); ("striped", `Striped); ("counting", `Counting) ]) `Flat
    & info [ "backend" ]
        ~doc:
          "Memory backend: $(b,flat) (one device), $(b,striped) (sharded \
           multi-device pool) or $(b,counting) (fast non-atomic, \
           single-domain only).")

let devices_arg =
  Arg.(
    value & opt int 4
    & info [ "devices" ] ~doc:"Devices in the striped pool.")

let stripe_arg =
  Arg.(
    value & opt int 0
    & info [ "stripe-words" ]
        ~doc:"Stripe granularity in words (0 = one segment per stripe).")

let tier_enum =
  [
    ("local", Cxlshm_shmem.Latency.Local_numa);
    ("remote", Cxlshm_shmem.Latency.Remote_numa);
    ("cxl", Cxlshm_shmem.Latency.Cxl);
  ]

let tiers_arg =
  Arg.(
    value
    & opt (list (enum tier_enum)) []
    & info [ "device-tiers" ]
        ~doc:
          "Comma-separated per-device tiers (local|remote|cxl), one per \
           device; empty = every device at the pool tier.")

let backend_spec kind devices stripe tiers =
  match kind with
  | `Flat -> Cxlshm_shmem.Mem.Flat
  | `Counting -> Cxlshm_shmem.Mem.Counting_fast
  | `Striped ->
      Cxlshm_shmem.Mem.Striped
        { devices; stripe_words = stripe; tiers = Array.of_list tiers }

let backend_term =
  Term.(const backend_spec $ backend_kind_arg $ devices_arg $ stripe_arg $ tiers_arg)

(* ---- stats ---- *)

let stats segments pages page_words clients backend =
  let cfg = geometry segments pages page_words clients backend in
  let lay = Layout.make cfg in
  Printf.printf "arena geometry\n";
  Printf.printf "  total words        %d (%d MiB simulated)\n"
    lay.Layout.total_words
    (lay.Layout.total_words * 8 / 1024 / 1024);
  Printf.printf "  segments           %d x %d words\n" cfg.Config.num_segments
    lay.Layout.segment_words;
  Printf.printf "  segment header     %d words\n" lay.Layout.seg_hdr_words;
  Printf.printf "  size classes       %d (%d..%d words/block)\n"
    (Config.num_classes cfg)
    (Config.class_block_words cfg 0)
    (Config.class_block_words cfg (Config.num_classes cfg - 1));
  Printf.printf "  client state       %d words each\n" lay.Layout.client_state_words;
  Printf.printf "  era matrix         %dx%d\n" cfg.Config.max_clients
    cfg.Config.max_clients;
  Printf.printf "  queue directory    %d slots\n" cfg.Config.queue_slots;
  let arena = Shm.create ~cfg () in
  let mem = Shm.mem arena in
  let module Mem = Cxlshm_shmem.Mem in
  Printf.printf "  backend            %s\n" (Mem.backend_name mem);
  let ndev = Mem.num_devices mem in
  if ndev > 1 then begin
    (* how segments land on devices under the resolved stripe granularity *)
    let per_dev = Array.make ndev 0 in
    for s = 0 to cfg.Config.num_segments - 1 do
      let d = Mem.device_of mem (Layout.segment_base lay s) in
      per_dev.(d) <- per_dev.(d) + 1
    done;
    Array.iteri
      (fun d n ->
        Printf.printf "  device %-2d          %-6s %d segments\n" d
          (Cxlshm_shmem.Latency.tier_name (Mem.device_tier mem d))
          n)
      per_dev
  end;
  0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the arena layout for a configuration.")
    Term.(const stats $ seg_arg $ pages_arg $ pw_arg $ clients_arg $ backend_term)

(* ---- demo ---- *)

let demo objects backend =
  let arena = Shm.create ~cfg:{ Config.default with Config.backend } () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  Printf.printf "joined clients %d and %d\n" a.Ctx.cid b.Ctx.cid;
  let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:16 in
  let qb = ref None in
  let received = ref 0 in
  for i = 1 to objects do
    let r = Shm.cxl_malloc a ~size_bytes:32 () in
    Cxl_ref.write_word r 0 (i * 11);
    (match Transfer.send q r with
    | Transfer.Sent -> ()
    | Transfer.Full | Transfer.Closed -> failwith "send failed");
    Cxl_ref.drop r;
    if !qb = None then qb := Transfer.open_from b ~sender:a.Ctx.cid;
    match !qb with
    | Some queue -> (
        match Transfer.receive queue with
        | Transfer.Received rb ->
            incr received;
            Cxl_ref.drop rb
        | Transfer.Empty | Transfer.Drained -> ())
    | None -> ()
  done;
  Printf.printf "sent %d objects, received %d\n" objects !received;
  Printf.printf "client A crashes with the queue open...\n";
  Client.declare_failed (Shm.service_ctx arena) ~cid:a.Ctx.cid;
  let rep = Shm.recover arena ~failed_cid:a.Ctx.cid in
  Format.printf "recovery: %a@." Recovery.pp_report rep;
  (match !qb with Some queue -> Transfer.close queue | None -> ());
  Shm.leave b;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Format.printf "validation: %a@." Validate.pp v;
  if Validate.is_clean v then 0 else 1

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Allocate/share/crash/recover walk-through.")
    Term.(
      const demo
      $ Arg.(value & opt int 100 & info [ "objects" ] ~doc:"Objects to pass.")
      $ backend_term)

(* ---- drill ---- *)

let drill_one backend point =
  let arena = Shm.create ~cfg:{ Config.small with Config.backend } () in
  let a = Shm.join arena () in
  a.Ctx.fault <- Fault.at point ~nth:1;
  (try
     let p = Shm.cxl_malloc a ~size_bytes:16 ~emb_cnt:1 () in
     let c = Shm.cxl_malloc a ~size_bytes:16 () in
     Cxl_ref.set_emb p 0 c;
     Cxl_ref.clear_emb p 0;
     Cxl_ref.drop c;
     Cxl_ref.drop p
   with Fault.Crashed _ -> ());
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:a.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
  ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
  let v = Shm.validate arena in
  Printf.printf "%-32s %s\n" (Fault.point_name point)
    (if Validate.is_clean v then "clean" else "VIOLATION");
  Validate.is_clean v

let drill point_name backend =
  let points =
    match point_name with
    | None -> Fault.all_points
    | Some n -> (
        match
          List.find_opt (fun p -> Fault.point_name p = n) Fault.all_points
        with
        | Some p -> [ p ]
        | None ->
            Printf.eprintf "unknown crash point %s\n" n;
            exit 2)
  in
  if List.for_all (drill_one backend) points then 0 else 1

let drill_cmd =
  Cmd.v
    (Cmd.info "drill" ~doc:"Run crash-window drills (all points by default).")
    Term.(
      const drill
      $ Arg.(
          value
          & opt (some string) None
          & info [ "point" ] ~doc:"Single crash point name.")
      $ backend_term)

(* ---- rpc ---- *)

(* Endpoint-death drill for the zero-copy RPC channel: run a healthy call,
   then kill one endpoint and check the survivor's path — a client blocked
   in [finish] must get [Peer_failed] (never hang), a dead client's
   sub-heap must come back to the arena through the server's revocation —
   and the arena must audit clean afterwards. *)
let rpc_run kill_server kill_client backend =
  let module Rpc = Cxlshm_rpc.Cxl_rpc in
  let module Message = Cxlshm_rpc.Message in
  let arena = Shm.create ~cfg:{ Config.small with Config.backend } () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Rpc.accept s ~client_cid:c.Ctx.cid ~capacity:4 in
  let client = Rpc.connect c ~server_cid:s.Ctx.cid ~capacity:4 in
  Printf.printf "channel sub-heap: segments %s\n"
    (String.concat ","
       (List.map string_of_int (Rpc.channel_segments client)));
  let handler ~func ~args ~output =
    let v = match args with a :: _ -> Message.read_word a 0 | [] -> 0 in
    Message.write_word output 0 (v + func)
  in
  let failed = ref [] in
  let check name ok = if not ok then failed := name :: !failed in
  (* healthy round trip *)
  let arg = Rpc.alloc_arg client ~size_bytes:8 () in
  Cxl_ref.write_word arg 0 41;
  let p = Rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
  while not (Rpc.serve_one server ~handler) do () done;
  let out = Rpc.finish p in
  let ok = Cxl_ref.read_word out 0 = 42 in
  Cxl_ref.drop out;
  Printf.printf "healthy call: %s\n" (if ok then "ok" else "WRONG OUTPUT");
  check "healthy call" ok;
  let svc = Shm.service_ctx arena in
  let kill ctx =
    Client.declare_failed svc ~cid:ctx.Ctx.cid;
    let rep = Shm.recover arena ~failed_cid:ctx.Ctx.cid in
    Format.printf "recovery of client %d: %a@." ctx.Ctx.cid
      Recovery.pp_report rep
  in
  if kill_server then begin
    (* fire a call the server will never answer, then kill it: the client's
       bounded wait must surface Peer_failed, not spin *)
    let p = Rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
    kill s;
    (match Rpc.finish p with
    | _ ->
        Printf.printf "kill-server: finish returned?!\n";
        check "kill-server finish" false
    | exception Rpc.Peer_failed _ ->
        Printf.printf "kill-server: finish raised Peer_failed (bounded)\n";
        Rpc.discard p);
    Cxl_ref.drop arg;
    Rpc.close_client client
  end
  else if kill_client then begin
    (* a call in flight when the client dies: recovery parks the sub-heap
       (orphaned, never recycled under the live server); the server's
       teardown reaps the message and returns the segments *)
    let _p = Rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
    kill c;
    Rpc.close_server server;
    let all_free =
      List.for_all
        (fun seg -> Segment.owner svc seg = None)
        (Rpc.channel_segments client)
    in
    Printf.printf "kill-client: sub-heap %s\n"
      (if all_free then "revoked and returned" else "NOT RETURNED");
    check "kill-client revocation" all_free
  end
  else begin
    Cxl_ref.drop arg;
    Rpc.close_client client;
    Rpc.close_server server
  end;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Format.printf "validation: %a@." Validate.pp v;
  check "validation" (Validate.is_clean v);
  match !failed with
  | [] -> 0
  | fs ->
      Printf.eprintf "FAILED: %s\n" (String.concat ", " (List.rev fs));
      1

let rpc_cmd =
  Cmd.v
    (Cmd.info "rpc"
       ~doc:
         "Zero-copy RPC endpoint-death drill: healthy call, then kill one \
          endpoint and verify the survivor unblocks (client) or revokes \
          the channel sub-heap (server), with a clean audit.")
    Term.(
      const rpc_run
      $ Arg.(
          value & flag
          & info [ "kill-server" ]
              ~doc:"Kill the server under an in-flight call.")
      $ Arg.(
          value & flag
          & info [ "kill-client" ]
              ~doc:"Kill the client under an in-flight call.")
      $ backend_term)

(* ---- validate ---- *)

let validate_run seed steps backend trace crash_point crash_nth out_image =
  let arena =
    Shm.create ~cfg:{ Config.small with Config.backend; trace } ()
  in
  let a = Shm.join arena () in
  (match crash_point with
  | None -> ()
  | Some n -> (
      match
        List.find_opt (fun p -> Fault.point_name p = n) Fault.all_points
      with
      | Some p -> a.Ctx.fault <- Fault.at p ~nth:crash_nth
      | None ->
          Printf.eprintf "unknown crash point %s\n" n;
          exit 2));
  let rng = Random.State.make [| seed |] in
  let held = ref [] in
  let crashed =
    try
      for _ = 1 to steps do
        match Random.State.int rng 3 with
        | 0 ->
            held :=
              Shm.cxl_malloc a ~size_bytes:(8 + Random.State.int rng 64) ()
              :: !held
        | 1 -> (
            match !held with
            | r :: rest ->
                held := rest;
                Cxl_ref.drop r
            | [] -> ())
        | _ -> (
            match !held with
            | r :: _ -> Cxl_ref.write_word r 0 (Random.State.int rng 1000)
            | [] -> ())
      done;
      List.iter Cxl_ref.drop !held;
      false
    with Fault.Crashed msg ->
      Printf.printf "client %d crashed at %s\n" a.Ctx.cid msg;
      true
  in
  (* Save before recovery so the image holds the crash-time ring. *)
  (match out_image with
  | None -> ()
  | Some path ->
      Shm.save arena path;
      Printf.printf "image saved to %s\n" path);
  if crashed then begin
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    ignore (Shm.recover arena ~failed_cid:a.Ctx.cid);
    ignore (Shm.scan_leaking arena)
  end;
  let v = Shm.validate arena in
  Format.printf "validation: %a@." Validate.pp v;
  if Validate.is_clean v then 0 else 1

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Random workload + whole-arena validation; optionally kill the \
          client at a crash point and save the pre-recovery image.")
    Term.(
      const validate_run
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")
      $ Arg.(value & opt int 1000 & info [ "steps" ] ~doc:"Workload steps.")
      $ backend_term
      $ Arg.(
          value & flag
          & info [ "trace" ] ~doc:"Enable the observability layer.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "crash-point" ]
              ~doc:"Kill the client at this crash point (see $(b,drill)).")
      $ Arg.(
          value & opt int 1
          & info [ "crash-nth" ]
              ~doc:"Crash at the n-th occurrence of the point (1-based).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out-image" ]
              ~doc:
                "Save the arena here before recovery runs (feed it to \
                 $(b,trace)/$(b,top)/$(b,fsck))."))

(* ---- trace / top ---- *)

let trace_view image cid last =
  let arena = Shm.load_raw image in
  let mem = Shm.mem arena and lay = Shm.layout arena in
  if cid < 0 || cid >= lay.Layout.cfg.Config.max_clients then begin
    Printf.eprintf "cid %d out of range\n" cid;
    exit 2
  end;
  let events = Trace.dump mem lay ~cid ?last () in
  if events = [] then begin
    Printf.printf "client %d: no trace events (tracing off?)\n" cid;
    0
  end
  else begin
    Printf.printf "client %d: %d events\n" cid (List.length events);
    List.iter (fun e -> Format.printf "%a@." Trace.pp_event e) events;
    0
  end

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a client's shared-memory event ring from a saved image \
          (works on crashed, unrecovered images).")
    Term.(
      const trace_view
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"IMAGE" ~doc:"Pool image from $(b,save).")
      $ Arg.(value & opt int 0 & info [ "cid" ] ~doc:"Client id.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "last" ] ~doc:"Only the most recent K events."))

let top image =
  let module Histogram = Cxlshm_shmem.Histogram in
  let arena = Shm.load_raw image in
  let mem = Shm.mem arena and lay = Shm.layout arena in
  let cfg = lay.Layout.cfg in
  let hists = Histogram.create_set () in
  let total = ref 0 in
  for cid = 0 to cfg.Config.max_clients - 1 do
    let events = Trace.dump mem lay ~cid () in
    if events <> [] then begin
      total := !total + List.length events;
      Printf.printf "client %-3d %d events\n" cid (List.length events);
      List.iter
        (fun e ->
          match e.Trace.phase with
          | Trace.End ->
              Histogram.record
                hists.(Histogram.op_index e.Trace.op)
                (float_of_int e.Trace.dur_ns)
          | Trace.Begin | Trace.Err -> ())
        events
    end
  done;
  if !total = 0 then begin
    Printf.printf "no trace events in %s (tracing off?)\n" image;
    0
  end
  else begin
    Printf.printf "%-14s %8s %10s %10s %10s %10s %10s\n" "op" "count"
      "mean ns" "p50 ns" "p95 ns" "p99 ns" "max ns";
    List.iter
      (fun op ->
        let h = hists.(Histogram.op_index op) in
        if Histogram.count h > 0 then
          Printf.printf "%-14s %8d %10.0f %10.0f %10.0f %10.0f %10.0f\n"
            (Histogram.op_name op) (Histogram.count h) (Histogram.mean_ns h)
            (Histogram.p50 h) (Histogram.p95 h) (Histogram.p99 h)
            (Histogram.max_ns h))
      Histogram.all_ops;
    0
  end

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Aggregate every client's event ring in a saved image into per-op \
          latency summaries (completed spans only).")
    Term.(
      const top
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"IMAGE" ~doc:"Pool image from $(b,save)."))

(* ---- dump ---- *)

let dump seed steps backend =
  let arena = Shm.create ~cfg:{ Config.small with Config.backend } () in
  let a = Shm.join arena () in
  let b = Shm.join arena () in
  let rng = Random.State.make [| seed |] in
  let held = ref [] in
  for _ = 1 to steps do
    match Random.State.int rng 3 with
    | 0 -> held := Shm.cxl_malloc a ~size_bytes:(8 + Random.State.int rng 64) () :: !held
    | 1 -> (
        match !held with
        | r :: rest ->
            held := rest;
            Cxl_ref.drop r
        | [] -> ())
    | _ -> Client.heartbeat b
  done;
  Format.printf "%a@." Debug.pp_arena (Shm.mem arena, Shm.layout arena);
  print_endline (Debug.summary (Shm.mem arena) (Shm.layout arena));
  0

let dump_cmd =
  Cmd.v
    (Cmd.info "dump" ~doc:"Run a small workload and dump the arena state.")
    Term.(
      const dump
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")
      $ Arg.(value & opt int 200 & info [ "steps" ] ~doc:"Workload steps.")
      $ backend_term)

(* ---- fsck ---- *)

let fsck image repair out =
  let arena = Shm.load_raw image in
  let v = Shm.validate arena in
  if Validate.is_clean v then begin
    Printf.printf "%s: clean\n" image;
    0
  end
  else begin
    Format.printf "%s: DIRTY@.%a@." image Validate.pp v;
    if not repair then 1
    else begin
      let report = Shm.fsck arena in
      Format.printf "repair: %a@." Fsck.pp report;
      let dest = Option.value out ~default:image in
      Shm.save arena dest;
      Printf.printf "repaired image written to %s\n" dest;
      if Fsck.clean report then 0 else 1
    end
  end

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify a saved pool image; with $(b,--repair), restore its \
          structural invariants and write the result back.")
    Term.(
      const fsck
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"IMAGE" ~doc:"Pool image from $(b,save).")
      $ Arg.(value & flag & info [ "repair" ] ~doc:"Repair, not just verify.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ]
              ~doc:"Write the repaired image here instead of in place."))

(* ---- bench-gate ---- *)

let bench_gate fresh baseline =
  let module Record = Cxlshm_bench_util.Record in
  match
    Record.gate ?baseline:(Option.map Record.read baseline) (Record.read fresh)
  with
  | exception (Failure msg | Sys_error msg) ->
      prerr_endline msg;
      1
  | [] ->
      Printf.printf "%s: no record carries a budget or a bound\n" fresh;
      1
  | checks ->
      List.iter (fun c -> print_endline c.Record.line) checks;
      let failed = List.filter (fun c -> not c.Record.ok) checks in
      Printf.printf "%s: %d checked, %d failed\n" fresh (List.length checks)
        (List.length failed);
      if failed = [] then 0 else 1

let bench_gate_cmd =
  Cmd.v
    (Cmd.info "bench-gate"
       ~doc:
         "Gate a bench file: fail any record past its absolute bound, past \
          its budget against the baseline file, or (with a baseline) \
          missing from the fresh file.")
    Term.(
      const bench_gate
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"FRESH" ~doc:"Bench file from this run.")
      $ Arg.(
          value
          & pos 1 (some file) None
          & info [] ~docv:"BASELINE" ~doc:"Committed bench file to compare with."))

(* ---- soak ---- *)

let soak seed steps points schedules backends out =
  let points =
    match points with
    | "all" -> None :: List.map Option.some Fault.all_points
    | "none" -> [ None ]
    | names ->
        String.split_on_char ',' names
        |> List.map (fun n ->
               if n = "none" then None
               else
                 match
                   List.find_opt
                     (fun p -> Fault.point_name p = n)
                     Fault.all_points
                 with
                 | Some p -> Some p
                 | None ->
                     Printf.eprintf "unknown crash point %s\n" n;
                     exit 2)
  in
  let schedules =
    match schedules with
    | "all" -> Soak.default_schedules
    | names ->
        String.split_on_char ',' names
        |> List.map (fun n ->
               match
                 List.find_opt
                   (fun s -> s.Soak.sname = n)
                   Soak.default_schedules
               with
               | Some s -> s
               | None ->
                   Printf.eprintf "unknown schedule %s\n" n;
                   exit 2)
  in
  let backends =
    match backends with
    | "all" -> Soak.default_backends
    | names ->
        String.split_on_char ',' names
        |> List.map (fun n ->
               match
                 List.find_opt
                   (fun (bn, _) -> bn = n)
                   Soak.default_backends
               with
               | Some b -> b
               | None ->
                   Printf.eprintf "unknown backend %s\n" n;
                   exit 2)
  in
  let indexed l = List.mapi (fun i x -> (i, x)) l in
  let runs =
    List.concat_map
      (fun (bi, backend) ->
        List.concat_map
          (fun (si, schedule) ->
            List.map
              (fun (pi, point) ->
                let r =
                  Soak.run_one ~backend ~schedule ~point
                    ~seed:(Soak.mix_seed ~base:seed ~bi ~si ~pi)
                    ~steps
                in
                Format.eprintf "%a@." Soak.pp_run r;
                r)
              (indexed points))
          (indexed schedules))
      (indexed backends)
  in
  let json = Soak.matrix_to_json ~seed runs in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_char oc '\n';
      close_out oc
  | None -> print_endline json);
  let fails = Soak.failures runs in
  Printf.eprintf "soak: %d runs, %d failures\n" (List.length runs)
    (List.length fails);
  if fails = [] then 0 else 1

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Sweep crash points x device-fault schedules x backends; recover \
          and fsck after each run and emit a JSON report.")
    Term.(
      const soak
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.")
      $ Arg.(
          value & opt int 400
          & info [ "steps" ] ~doc:"Workload steps per run.")
      $ Arg.(
          value & opt string "all"
          & info [ "points" ]
              ~doc:
                "Crash points: $(b,all), $(b,none), or a comma-separated \
                 list of point names.")
      $ Arg.(
          value & opt string "all"
          & info [ "schedules" ]
              ~doc:
                "Fault schedules: $(b,all) or a comma-separated subset of \
                 quiet, transient, stuck, offline.")
      $ Arg.(
          value & opt string "all"
          & info [ "backends" ]
              ~doc:
                "Backends: $(b,all) or a comma-separated subset of flat, \
                 striped4.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~doc:"Write the JSON report to this file."))

(* ---- monitor: replicated failure-monitor demo ---- *)

let monitor_demo replicas seconds interval kill_leader kill_writer seed =
  if replicas < 1 then begin
    Printf.eprintf "need at least one replica\n";
    2
  end
  else if kill_writer then begin
    (* Deterministic KV failover: writer killed mid-quiesce, its limbo
       rows orphaned by recovery and adopted by a successor. *)
    let k = Cxlshm_kv.Kv_soak.writer_kill_adopt ~seed () in
    Format.printf "writer-kill adoption: %a@." Cxlshm_kv.Kv_soak.pp_report k;
    if
      k.Cxlshm_kv.Kv_soak.ka_writer_crashed
      && k.ka_orphaned > 0 && k.ka_adopted = k.ka_orphaned
      && k.ka_pinned_freed = 0 && k.ka_clean
    then begin
      Printf.printf
        "monitor orphaned the dead writer's limbo rows and the successor \
         adopted them era-gated\n";
      0
    end
    else 1
  end
  else if kill_leader then begin
    (* Deterministic control-plane failover: hung client, leader killed
       mid-recovery, follower takeover. *)
    let f = Soak.monitor_kill ~seed () in
    Format.printf "monitor-kill failover: %a@." Soak.pp_failover f;
    if f.Soak.leader_crashed && f.Soak.follower_finished && f.Soak.fo_clean
    then begin
      Printf.printf
        "follower deposed the dead leader and finished its recovery\n";
      0
    end
    else 1
  end
  else begin
    (* Live replicas in their own domains racing to reap a silent client. *)
    let cfg =
      {
        Config.small with
        Config.backend =
          Cxlshm_shmem.Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] };
      }
    in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    let _graph = List.init 5 (fun _ -> Shm.cxl_malloc a ~size_bytes:16 ()) in
    Printf.printf "clients %d (going silent) and %d (heartbeating), %d replica(s)\n"
      a.Ctx.cid b.Ctx.cid replicas;
    let mons = List.init replicas (fun i -> Shm.monitor arena ~id:i ()) in
    let handles = List.map (fun m -> Monitor.run_in_domain m ~interval) mons in
    let svc = Shm.service_ctx arena in
    let deadline = Unix.gettimeofday () +. seconds in
    let rec wait () =
      if Client.status svc ~cid:a.Ctx.cid = Client.Slot_free then true
      else if Unix.gettimeofday () > deadline then false
      else begin
        Client.heartbeat b;
        Unix.sleepf (interval /. 2.);
        wait ()
      end
    in
    let recovered = wait () in
    List.iter2 (fun h m -> ignore (Monitor.stop_and_join h m)) handles mons;
    List.iter
      (fun m ->
        Printf.printf
          "replica %d: leader=%b death-dumps=%d loop-errors=%d\n"
          (Monitor.id m) (Monitor.is_leader m)
          (List.length (Monitor.death_dumps m))
          (Monitor.error_count m))
      mons;
    Shm.leave b;
    ignore (Shm.scan_leaking arena);
    let v = Shm.validate arena in
    Printf.printf "silent client %s; validation %s\n"
      (if recovered then "recovered" else "NOT recovered")
      (if Validate.is_clean v then "clean" else "DIRTY");
    if recovered && Validate.is_clean v then 0 else 1
  end

let monitor_cmd =
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Run replicated failure monitors over a demo arena. By default \
          spawns $(b,--replicas) live replica loops that race to reap a \
          silent client. With $(b,--kill-leader), runs the deterministic \
          failover story instead: a hung client under load, the leader \
          replica killed mid-recovery, the follower deposing it and \
          finishing the recovery. With \
          $(b,--kill-writer), runs the KV adoption drill: a writer killed \
          mid-quiesce, its limbo rows orphaned in place by recovery and \
          adopted era-gated by a successor.")
    Term.(
      const monitor_demo
      $ Arg.(
          value & opt int 2
          & info [ "replicas" ] ~doc:"Monitor replicas to run.")
      $ Arg.(
          value & opt float 5.0
          & info [ "seconds" ] ~doc:"Detection deadline (live mode).")
      $ Arg.(
          value & opt float 0.01
          & info [ "interval" ] ~doc:"Replica pass interval in seconds.")
      $ Arg.(
          value & flag
          & info [ "kill-leader" ]
              ~doc:"Deterministic leader-kill failover scenario.")
      $ Arg.(
          value & flag
          & info [ "kill-writer" ]
              ~doc:
                "Deterministic KV writer-kill adoption scenario (crash \
                 mid-quiesce, limbo rows orphaned, successor adopts).")
      $ Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Failover workload seed."))

(* ---- explore: model-checking schedule exploration ---- *)

module Check_explore = Cxlshm_check.Explore
module Check_scenarios = Cxlshm_check.Scenarios
module Check_schedule = Cxlshm_check.Schedule

let model_names =
  List.map (fun m -> m.Check_explore.name) (Check_scenarios.all ())

let explore_model_of_name ~capacity ~values ~rounds name =
  match name with
  | "spsc" -> Check_scenarios.spsc ?capacity ?values ()
  | "transfer" -> Check_scenarios.transfer ?capacity ?values ()
  | "transfer-batch" ->
      Check_scenarios.transfer ?capacity ?values ~batched:true ()
  | "refc" -> Check_scenarios.refc ?rounds ()
  | "huge" -> Check_scenarios.huge ?rounds ()
  | "epoch-retire" -> Check_scenarios.epoch_retire ?rounds ()
  | "lease" -> Check_scenarios.lease ?passes:rounds ()
  | "dual-monitor" -> Check_scenarios.dual_monitor ?passes:rounds ()
  | "kv-serve" -> Check_scenarios.kv_serve ()
  | "kv-serve-park" -> Check_scenarios.kv_serve ~park_release:true ()
  | "kv-serve-move" -> Check_scenarios.kv_serve ~move:true ()
  | "kv-serve-recover" -> Check_scenarios.kv_serve_recover ()
  | "rpc-isolate" -> Check_scenarios.rpc_isolate ()
  | n ->
      Printf.eprintf "unknown model %s (have: %s)\n" n
        (String.concat ", " model_names);
      exit 2

let set_mutation = function
  | "none" -> ()
  | "spsc-pop" -> Cxlshm_spsc.Spsc_queue.mutation_unfenced_pop := true
  | "transfer-head" -> Cxlshm.Transfer.mutation_unfenced_advance := true
  | "refc-zero-shared" -> Cxlshm.Refc.mutation_zero_shared := true
  | "refc-store-shared" -> Cxlshm.Refc.mutation_store_shared := true
  | "kv-quiesce" -> Cxlshm.Limbo.mutation_unconditional_quiesce := true
  | "kv-crash-reap" -> Cxlshm.Limbo.mutation_crash_reap := true
  | "kv-swap-skip-redo" -> Cxlshm.Recovery.mutation_skip_swap_redo := true
  | "kv-move-unparked" -> Cxlshm_kv.Cxl_kv.mutation_release_moved := true
  | "volatile-park" -> Cxlshm.Limbo.mutation_volatile_park := true
  | "rpc-skip-validate" -> Cxlshm_rpc.Cxl_rpc.mutation_skip_validate := true
  | "rpc-unfenced-status" ->
      Cxlshm_rpc.Cxl_rpc.mutation_unfenced_status := true
  | "rpc-early-advance" -> Cxlshm_rpc.Cxl_rpc.mutation_early_advance := true
  | m ->
      Printf.eprintf
        "unknown mutation %s (have: none, spsc-pop, transfer-head, \
         refc-zero-shared, refc-store-shared, kv-quiesce, kv-crash-reap, \
         kv-swap-skip-redo, \
         kv-move-unparked, volatile-park, \
         rpc-skip-validate, rpc-unfenced-status, rpc-early-advance)\n"
        m;
      exit 2

let explore models mode seed schedules preemptions no_crash max_steps capacity
    values rounds mutate replay log =
  let crash = not no_crash in
  set_mutation mutate;
  let log_oc =
    Option.map
      (fun f -> open_out_gen [ Open_append; Open_creat ] 0o644 f)
      log
  in
  let emit line =
    print_endline line;
    Option.iter
      (fun oc ->
        output_string oc line;
        output_char oc '\n')
      log_oc
  in
  let code =
    match replay with
    | Some sched_str ->
        let s = Check_schedule.of_string sched_str in
        let m =
          explore_model_of_name ~capacity ~values ~rounds s.Check_schedule.model
        in
        let r = Check_explore.replay m ~max_steps s in
        let replayed =
          Check_schedule.to_string
            { Check_schedule.model = m.Check_explore.name;
              decisions = r.Check_explore.decisions }
        in
        (match r.Check_explore.outcome with
        | Check_explore.Pass ->
            emit (Printf.sprintf "replay PASS (%d steps): %s"
                    r.Check_explore.steps replayed);
            0
        | Check_explore.Diverged ->
            emit (Printf.sprintf "replay DIVERGED (fuel %d): %s" max_steps
                    replayed);
            0
        | Check_explore.Fail reason ->
            emit (Printf.sprintf "replay FAIL: %s" reason);
            emit (Printf.sprintf "schedule: %s" replayed);
            1)
    | None ->
        let names = String.split_on_char ',' models in
        let failures = ref [] in
        List.iter
          (fun name ->
            let m = explore_model_of_name ~capacity ~values ~rounds name in
            let report =
              match mode with
              | "random" ->
                  Check_explore.random ~seed ~schedules ~crash ~max_steps m
              | "pct" -> Check_explore.pct ~seed ~schedules ~crash ~max_steps m
              | "exhaustive" ->
                  Check_explore.exhaustive ~preemptions ~crash ~max_steps m
              | other ->
                  Printf.eprintf
                    "unknown mode %s (have: random, pct, exhaustive)\n" other;
                  exit 2
            in
            emit (Format.asprintf "%a" Check_explore.pp_report report);
            Option.iter
              (fun f ->
                failures :=
                  Check_schedule.to_string f.Check_explore.schedule
                  :: !failures)
              report.Check_explore.failure)
          names;
        (match !failures with
        | [] -> 0
        | fs ->
            List.iter
              (fun f ->
                emit
                  (Printf.sprintf
                     "reproduce with: cxlshm explore --replay '%s'" f))
              (List.rev fs);
            1)
  in
  Option.iter close_out log_oc;
  code

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check the concurrent protocols: run the built-in models \
          (by default all of them; see $(b,--model)) under a controlled \
          cooperative scheduler with seeded-random, PCT, or \
          bounded-preemption exhaustive exploration and optional crash \
          injection at any yield point. \
          Every failure prints a schedule string that $(b,--replay) \
          reproduces deterministically.")
    Term.(
      const explore
      $ Arg.(
          value
          & opt string (String.concat "," model_names)
          & info [ "model" ] ~doc:"Comma-separated models to explore.")
      $ Arg.(
          value & opt string "random"
          & info [ "mode" ]
              ~doc:"Exploration mode: random, pct, or exhaustive.")
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed.")
      $ Arg.(
          value & opt int 500
          & info [ "schedules" ]
              ~doc:"Schedules to sample (random/pct modes).")
      $ Arg.(
          value & opt int 3
          & info [ "preemptions" ]
              ~doc:"Preemption bound (exhaustive mode).")
      $ Arg.(
          value & flag
          & info [ "no-crash" ] ~doc:"Disable crash injection at yields.")
      $ Arg.(
          value & opt int 20_000
          & info [ "max-steps" ]
              ~doc:"Yield-point fuel per run; beyond it a run is Diverged.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "capacity" ] ~doc:"Queue capacity override (spsc/transfer).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "values" ] ~doc:"Messages per run override (spsc/transfer).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "rounds" ] ~doc:"Alloc/free rounds override (refc).")
      $ Arg.(
          value & opt string "none"
          & info [ "mutate" ]
              ~doc:
                "Re-introduce a historical ordering bug before exploring: \
                 $(b,spsc-pop), $(b,transfer-head), $(b,refc-zero-shared), \
                 $(b,refc-store-shared), $(b,kv-quiesce), \
                 $(b,kv-crash-reap), $(b,kv-swap-skip-redo), \
                 $(b,kv-move-unparked), $(b,volatile-park), \
                 $(b,rpc-skip-validate), $(b,rpc-unfenced-status) or \
                 $(b,rpc-early-advance) (self-check).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "replay" ]
              ~doc:"Replay one schedule string exactly and report its outcome.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "log" ] ~doc:"Append the report lines to this file."))

let () =
  let info = Cmd.info "cxlshm" ~doc:"CXL-SHM simulated-arena driver." in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            demo_cmd;
            drill_cmd;
            stats_cmd;
            validate_cmd;
            dump_cmd;
            fsck_cmd;
            soak_cmd;
            monitor_cmd;
            trace_cmd;
            top_cmd;
            rpc_cmd;
            explore_cmd;
            bench_gate_cmd;
          ]))
