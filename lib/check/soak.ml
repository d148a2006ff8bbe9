(* Crash × device-fault soak harness.

   One soak run = the §6.2.2 randomized multi-client workload under a
   crash-point plan AND a device-fault schedule, followed by the full
   resilience pipeline: disarm injection (the devices get "serviced"),
   crash-recover every client, validate, fsck-repair, validate again. The
   run passes iff the post-fsck arena is clean.

   Everything is deterministic in (backend, schedule, point, seed): the
   workload RNG, the crash plan and the device-fault RNG all derive from
   the run's seed, so a failing run replays exactly from the JSON record
   the sweep emits. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Bf = Cxlshm_shmem.Backend_faulty

(* ------------------------------------------------------------------ *)
(* Device-fault schedules                                              *)
(* ------------------------------------------------------------------ *)

type schedule = {
  sname : string;
  read_poison : float;
  torn_write : float;
  stuck_word : float;
  offline : (int * int * int) list;
}

let quiet_schedule =
  { sname = "quiet"; read_poison = 0.; torn_write = 0.; stuck_word = 0.; offline = [] }

let default_schedules =
  [
    quiet_schedule;
    (* transient-only: retries should absorb nearly everything *)
    { sname = "transient"; read_poison = 0.002; torn_write = 0.001;
      stuck_word = 0.; offline = [] };
    (* persistent damage: stuck media + tears that a dying client leaves *)
    { sname = "stuck"; read_poison = 0.0005; torn_write = 0.001;
      stuck_word = 0.0008; offline = [] };
    (* device outage windows over the op counter *)
    { sname = "offline"; read_poison = 0.0005; torn_write = 0.;
      stuck_word = 0.; offline = [ (0, 4_000, 4_800); (1, 9_000, 10_000) ] };
  ]

let is_quiet s =
  s.read_poison = 0. && s.torn_write = 0. && s.stuck_word = 0. && s.offline = []

let fault_spec_of s ~seed =
  {
    Bf.seed;
    read_poison = s.read_poison;
    torn_write = s.torn_write;
    stuck_word = s.stuck_word;
    offline = s.offline;
  }

let default_backends =
  [
    ("flat", Mem.Flat);
    ("striped4", Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] });
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

type run = {
  backend : string;
  schedule : string;
  point : string;  (** crash-point name, or "none" *)
  seed : int;
  steps : int;
  crashes : (int * string) list;  (** (cid, cause) in crash order *)
  dev_faults : int;
  retries : int;
  backoff_ns : float;
  escalations : int;
  injected : (string * int) list;  (** per fault class, from the backend *)
  degraded : int list;  (** devices left degraded before servicing *)
  sweep_errors : int;  (** recovery attempts that raised, pre-fsck *)
  pre_clean : bool;  (** validation verdict after recovery, before fsck *)
  fsck : Fsck.report;
  clean : bool;  (** the run's verdict: post-fsck validation *)
}

let n_clients = 3

let run_one ~backend:(bname, bspec) ~schedule ~point ~seed ~steps =
  let backend =
    if is_quiet schedule then bspec
    else Mem.Faulty { base = bspec; fault_spec = fault_spec_of schedule ~seed }
  in
  let cfg = { Config.small with Config.backend } in
  let arena = Shm.create ~cfg () in
  let clients = Array.init n_clients (fun _ -> Shm.join arena ()) in
  (match point with
  | Some p -> clients.(0).Ctx.fault <- Fault.at p ~nth:1
  | None -> ());
  (* setup done on healthy devices; the fault campaign starts here *)
  Shm.set_fault_injection arena true;
  let rng = Random.State.make [| 0x50ac; seed |] in
  let held = Array.make n_clients [] in
  (* acyclic object graph: embedded links only old -> new (see
     test_fault_injection for the rationale — refcounting keeps cycles) *)
  let birth : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let birth_counter = ref 0 in
  let stamp obj = try Hashtbl.find birth obj with Not_found -> max_int in
  let send_queues : (int * int, Transfer.t) Hashtbl.t = Hashtbl.create 8 in
  let recv_queues : (int * int, Transfer.t) Hashtbl.t = Hashtbl.create 8 in
  let crashed = Array.make n_clients None in
  let note_crash who cause =
    if crashed.(who) = None then crashed.(who) <- Some cause
  in
  let step who =
    let c = clients.(who) in
    match Random.State.int rng 8 with
    | 0 | 1 ->
        let emb = Random.State.int rng 3 in
        let r =
          Shm.cxl_malloc c ~size_bytes:(8 + Random.State.int rng 56)
            ~emb_cnt:emb ()
        in
        incr birth_counter;
        Hashtbl.replace birth (Cxl_ref.obj r) !birth_counter;
        held.(who) <- r :: held.(who)
    | 2 -> (
        match held.(who) with
        | r :: _ -> held.(who) <- Cxl_ref.clone r :: held.(who)
        | [] -> ())
    | 3 -> (
        match held.(who) with
        | r :: rest ->
            held.(who) <- rest;
            Cxl_ref.drop r
        | [] -> ())
    | 4 -> (
        match held.(who) with
        | p :: ch :: _
          when Cxl_ref.emb_cnt p > 0
               && stamp (Cxl_ref.obj p) < stamp (Cxl_ref.obj ch) ->
            let i = Random.State.int rng (Cxl_ref.emb_cnt p) in
            if Cxl_ref.get_emb p i = 0 then Cxl_ref.set_emb p i ch
            else if stamp (Cxl_ref.get_emb p i) < stamp (Cxl_ref.obj ch) then
              Cxl_ref.change_emb p i ch
        | _ -> ())
    | 5 -> (
        match held.(who) with
        | p :: _ when Cxl_ref.emb_cnt p > 0 ->
            Cxl_ref.clear_emb p (Random.State.int rng (Cxl_ref.emb_cnt p))
        | _ -> ())
    | 6 -> (
        let peer = (who + 1 + Random.State.int rng (n_clients - 1)) mod n_clients in
        match held.(who) with
        | r :: _ ->
            let q =
              match Hashtbl.find_opt send_queues (who, peer) with
              | Some q -> q
              | None ->
                  let q =
                    Transfer.connect c ~receiver:clients.(peer).Ctx.cid
                      ~capacity:4
                  in
                  Hashtbl.replace send_queues (who, peer) q;
                  q
            in
            ignore (Transfer.send q r)
        | [] -> ())
    | 7 -> (
        let peer = (who + 1 + Random.State.int rng (n_clients - 1)) mod n_clients in
        match Hashtbl.find_opt recv_queues (peer, who) with
        | Some q -> (
            match Transfer.receive q with
            | Transfer.Received r -> held.(who) <- r :: held.(who)
            | Transfer.Empty | Transfer.Drained -> ())
        | None -> (
            match Transfer.open_from c ~sender:clients.(peer).Ctx.cid with
            | Some q -> Hashtbl.replace recv_queues (peer, who) q
            | None -> ()))
    | _ -> ()
  in
  (* Fail-stop model: whatever a step raises — an injected crash point, an
     escalated device fault, or a violation tripped by corrupted shared
     state — kills the stepping client. Its local refs are abandoned and it
     never touches the pool again. *)
  let s = ref 0 in
  while !s < steps && Array.exists (fun c -> c = None) crashed do
    let who = !s mod n_clients in
    if crashed.(who) = None then begin
      try step who with
      | Stack_overflow | Out_of_memory -> raise Out_of_memory
      | Fault.Crashed p -> note_crash who ("crash:" ^ p)
      | Mem.Device_error { fault; dev; _ } ->
          note_crash who
            (Printf.sprintf "device:%s@dev%d" (Mem.fault_class_name fault) dev)
      | Refc.Refcount_violation m -> note_crash who ("refcount:" ^ m)
      | Mem.Wild_pointer _ -> note_crash who "wild-pointer"
      | Alloc.Out_of_shared_memory -> note_crash who "out-of-shared-memory"
      | e -> note_crash who ("exn:" ^ Printexc.to_string e)
    end;
    incr s
  done;
  (* Sum per-client fault counters before recovery adds its own traffic. *)
  let dev_faults = ref 0 and retries = ref 0 and escal = ref 0 in
  let backoff = ref 0. in
  Array.iter
    (fun c ->
      dev_faults := !dev_faults + c.Ctx.st.Stats.dev_faults;
      retries := !retries + c.Ctx.st.Stats.retries;
      backoff := !backoff +. c.Ctx.st.Stats.backoff_ns;
      escal := !escal + c.Ctx.st.Stats.fault_escalations)
    clients;
  let injected = Mem.injected_faults (Shm.mem arena) in
  let degraded = Ctx.degraded_devices clients.(0) in
  (* Devices get serviced before recovery runs: no new faults, stuck media
     replaced. The corruption already in the pool stays. *)
  Shm.set_fault_injection arena false;
  let svc = Shm.service_ctx arena in
  let sweep_errors = ref 0 in
  let recover_cid cid =
    Client.declare_failed svc ~cid;
    try ignore (Recovery.recover svc ~failed_cid:cid)
    with _ -> incr sweep_errors
  in
  Array.iteri
    (fun i c -> if crashed.(i) <> None then recover_cid c.Ctx.cid)
    clients;
  (* Survivors drop what they hold and leave; shared state damaged by the
     faults can make even a drop raise — that survivor then counts as
     crashed at exit and is recovered like the others. *)
  Array.iteri
    (fun i c ->
      if crashed.(i) = None then begin
        c.Ctx.fault <- Fault.none;
        (try
           List.iter
             (fun r -> if Cxl_ref.is_live r then Cxl_ref.drop r)
             held.(i)
         with _ -> note_crash i "exit-drop-failed");
        recover_cid c.Ctx.cid
      end)
    clients;
  (try ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false))
   with _ -> incr sweep_errors);
  let pre = Validate.run (Shm.mem arena) (Shm.layout arena) in
  let fsck = Fsck.repair svc in
  {
    backend = bname;
    schedule = schedule.sname;
    point = (match point with Some p -> Fault.point_name p | None -> "none");
    seed;
    steps;
    crashes =
      Array.to_list crashed
      |> List.mapi (fun i c -> (i, c))
      |> List.filter_map (fun (i, c) -> Option.map (fun c -> (i, c)) c);
    dev_faults = !dev_faults;
    retries = !retries;
    backoff_ns = !backoff;
    escalations = !escal;
    injected =
      List.map (fun (c, n) -> (Mem.fault_class_name c, n)) injected;
    degraded;
    sweep_errors = !sweep_errors;
    pre_clean = Validate.is_clean pre;
    fsck;
    clean = Fsck.clean fsck;
  }

(* ------------------------------------------------------------------ *)
(* Monitor-kill failover schedule                                      *)
(* ------------------------------------------------------------------ *)

type failover = {
  fo_seed : int;
  fo_steps : int;
  hung_cid : int;  (** the client that went silent under load *)
  leader_crashed : bool;  (** replica 0 died inside the recovery it led *)
  follower_finished : bool;  (** replica 1 freed the hung client's slot *)
  fo_clean : bool;  (** final post-fsck validation *)
}

let pp_failover ppf f =
  Format.fprintf ppf
    "seed=%-6d steps=%-5d hung=cid%d leader-crashed=%b follower-finished=%b %s"
    f.fo_seed f.fo_steps f.hung_cid f.leader_crashed f.follower_finished
    (if f.fo_clean then "clean" else "** DIRTY **")

(* The control-plane soak: a linked workload, one client hangs (alive but
   silent), the leader monitor is killed inside the recovery it started,
   and the follower must depose it and finish that recovery mid-flight.
   Deterministic in [seed] — no domains, the monitors interleave
   synchronously. *)
let monitor_kill ?(steps = 300) ~seed () =
  let cfg =
    {
      Config.small with
      Config.backend = Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] };
      lease_ttl = 2;
    }
  in
  let arena = Shm.create ~cfg () in
  let n = 3 in
  let clients = Array.init n (fun _ -> Shm.join arena ()) in
  let rng = Random.State.make [| 0x4d6f6e; seed |] in
  let held = Array.make n [] in
  (* Parent links only point at older objects (held is newest-first), so
     the graph stays acyclic under refcounting. *)
  for s = 0 to steps - 1 do
    let who = s mod n in
    let c = clients.(who) in
    (match Random.State.int rng 4 with
    | 0 | 1 ->
        let r =
          Shm.cxl_malloc c
            ~size_bytes:(8 + Random.State.int rng 40)
            ~emb_cnt:(Random.State.int rng 2)
            ()
        in
        held.(who) <- r :: held.(who)
    | 2 -> (
        match held.(who) with
        | p :: ch :: _ when Cxl_ref.emb_cnt p > 0 && Cxl_ref.get_emb p 0 = 0 ->
            Cxl_ref.set_emb p 0 ch
        | _ -> ())
    | _ -> (
        match held.(who) with
        | r :: rest ->
            held.(who) <- rest;
            Cxl_ref.drop r
        | [] -> ()));
    Client.heartbeat c
  done;
  (* Client 0 hangs: the process is alive and still holds everything, but
     it stops renewing its lease. *)
  let hung = clients.(0) in
  let svc = Shm.service_ctx arena in
  let mon0 = Monitor.create ~mem:(Shm.mem arena) ~lay:(Shm.layout arena) () in
  let mon1 =
    Monitor.create ~mem:(Shm.mem arena) ~lay:(Shm.layout arena) ~id:1 ()
  in
  let survivors_beat () =
    for i = 1 to n - 1 do
      Client.heartbeat clients.(i)
    done
  in
  let budget = 10 * (cfg.Config.lease_ttl + 2) in
  let condemned = ref false in
  let guard = ref 0 in
  while (not !condemned) && !guard < budget do
    survivors_beat ();
    if List.mem hung.Ctx.cid (Monitor.check_once mon0) then condemned := true;
    incr guard
  done;
  (* The leader dies inside the recovery it just started. *)
  (Monitor.ctx mon0).Ctx.fault <- Fault.at Fault.Recovery_mid_phases ~nth:1;
  let leader_crashed =
    match Monitor.recover_suspects mon0 with
    | _ -> false
    | exception Fault.Crashed _ -> true
  in
  (* The follower's own passes tick the shared clock past the dead
     leader's lease; its takeover resumes the interrupted recovery before
     sweeping the Failed list. *)
  let finished () = Client.status svc ~cid:hung.Ctx.cid = Client.Slot_free in
  let guard = ref 0 in
  while (not (finished ())) && !guard < budget do
    survivors_beat ();
    ignore (Monitor.check_once mon1);
    ignore (Monitor.recover_suspects mon1);
    incr guard
  done;
  let follower_finished = finished () in
  (* Wind down and judge the arena. *)
  Array.iteri
    (fun i c ->
      if i > 0 then begin
        List.iter (fun r -> if Cxl_ref.is_live r then Cxl_ref.drop r) held.(i);
        Shm.leave c
      end)
    clients;
  ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
  let fsck = Fsck.repair svc in
  {
    fo_seed = seed;
    fo_steps = steps;
    hung_cid = hung.Ctx.cid;
    leader_crashed;
    follower_finished;
    fo_clean = Fsck.clean fsck;
  }

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

let mix_seed ~base ~bi ~si ~pi = base + (1_000_003 * bi) + (10_007 * si) + (101 * pi)

let run_matrix ?(backends = default_backends) ?(schedules = default_schedules)
    ?(points = None :: List.map Option.some Fault.all_points) ~seed ~steps () =
  List.concat_map
    (fun (bi, backend) ->
      List.concat_map
        (fun (si, schedule) ->
          List.map
            (fun (pi, point) ->
              run_one ~backend ~schedule ~point
                ~seed:(mix_seed ~base:seed ~bi ~si ~pi)
                ~steps)
            (List.mapi (fun i p -> (i, p)) points))
        (List.mapi (fun i s -> (i, s)) schedules))
    (List.mapi (fun i b -> (i, b)) backends)

let failures runs = List.filter (fun r -> not r.clean) runs

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_run ppf r =
  Format.fprintf ppf
    "%-8s %-9s %-28s seed=%-10d crashes=%d faults=%d retries=%d esc=%d %s%s"
    r.backend r.schedule r.point r.seed (List.length r.crashes) r.dev_faults
    r.retries r.escalations
    (if r.pre_clean then "pre-clean" else "pre-DIRTY")
    (if r.clean then "" else "  ** FAIL **")

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let run_to_json r =
  let crash_json (cid, cause) =
    Printf.sprintf "{\"cid\":%d,\"cause\":\"%s\"}" cid (json_escape cause)
  in
  let inj_json (name, n) = Printf.sprintf "\"%s\":%d" name n in
  let f = r.fsck in
  Printf.sprintf
    "{\"backend\":\"%s\",\"schedule\":\"%s\",\"point\":\"%s\",\"seed\":%d,\
     \"steps\":%d,\"crashes\":[%s],\"dev_faults\":%d,\"retries\":%d,\
     \"backoff_ns\":%.0f,\"escalations\":%d,\"injected\":{%s},\
     \"degraded_devices\":[%s],\"sweep_errors\":%d,\"pre_clean\":%b,\
     \"fsck\":{\"quarantined\":%d,\"torn_cleared\":%d,\"wild_cleared\":%d,\
     \"unreachable_freed\":%d,\"counts_fixed\":%d,\"chains_rebuilt\":%d},\
     \"clean\":%b}"
    (json_escape r.backend) (json_escape r.schedule) (json_escape r.point)
    r.seed r.steps
    (String.concat "," (List.map crash_json r.crashes))
    r.dev_faults r.retries r.backoff_ns r.escalations
    (String.concat "," (List.map inj_json r.injected))
    (String.concat "," (List.map string_of_int r.degraded))
    r.sweep_errors r.pre_clean f.Fsck.pages_quarantined
    f.Fsck.torn_headers_cleared f.Fsck.wild_refs_cleared
    f.Fsck.unreachable_freed f.Fsck.counts_fixed f.Fsck.chains_rebuilt r.clean

let matrix_to_json ~seed runs =
  let fails = failures runs in
  Printf.sprintf
    "{\"base_seed\":%d,\"total\":%d,\"failures\":%d,\"failing_runs\":[%s],\
     \"runs\":[\n%s\n]}"
    seed (List.length runs) (List.length fails)
    (String.concat ","
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"backend\":\"%s\",\"schedule\":\"%s\",\"point\":\"%s\",\"seed\":%d}"
              (json_escape r.backend) (json_escape r.schedule)
              (json_escape r.point) r.seed)
          fails))
    (String.concat ",\n" (List.map run_to_json runs))
