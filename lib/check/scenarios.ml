(* The built-in models: small concurrent protocols whose every interleaving
   (and every crash point) the explorer can enumerate, each paired with the
   oracle that must hold afterwards.

   Model sizing is deliberate: exhaustive search cost is roughly
   C(branch points, preemptions) x clients^preemptions x crash positions,
   so the defaults keep the branch-point count small — the SPSC model
   branches at every word access of a tiny ring, the arena models branch at
   labeled crash points and explicit poll yields (the paper's critical
   windows), which is where the protocols' ordering decisions live. *)

open Cxlshm
module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Spsc = Cxlshm_spsc.Spsc_queue

let fail fmt = Printf.ksprintf failwith fmt

(* [1; 2; ...; m] consecutive-prefix oracle: FIFO queues may lose a suffix
   to a crash but must never reorder, duplicate, or skip. *)
let check_prefix ~what ~complete ~total got =
  List.iteri
    (fun i v ->
      if v <> i + 1 then
        fail "%s: position %d holds %d, want %d (reorder/dup/loss)" what i v
          (i + 1))
    got;
  if complete && List.length got <> total then
    fail "%s: received %d of %d with no crash" what (List.length got) total

(* ---- spsc: the raw ring, every access a branch point ---- *)

let spsc ?(capacity = 2) ?(values = 3) () : Explore.model =
  let make () =
    let words = Spsc.words_needed ~capacity + 8 in
    let mem = Mem.create ~backend:(Mem.Sched Mem.Flat) ~words () in
    let st_setup = Stats.create () in
    let q = Spsc.create mem ~st:st_setup ~base:0 ~capacity in
    let popped = ref [] in
    let producer_alive = ref true and consumer_alive = ref true in
    let producer () =
      Fun.protect ~finally:(fun () -> producer_alive := false) @@ fun () ->
      let st = Stats.create () in
      try
        for v = 1 to values do
          while not (Spsc.try_push q ~st v) do
            Sched.yield "push-full";
            if not !consumer_alive then raise Exit
          done
        done
      with Exit -> ()
    in
    let consumer () =
      Fun.protect ~finally:(fun () -> consumer_alive := false) @@ fun () ->
      let st = Stats.create () in
      let got = ref 0 in
      let looping = ref true in
      while !looping do
        match Spsc.try_pop q ~st with
        | Some v ->
            popped := v :: !popped;
            incr got;
            if !got = values then looping := false
        | None ->
            if (not !producer_alive) && Spsc.length q ~st = 0 then
              looping := false
            else Sched.yield "pop-empty"
      done
    in
    let check ~crashed =
      let got = List.rev !popped in
      check_prefix ~what:"spsc" ~complete:(crashed = []) ~total:values got;
      let head = Mem.unsafe_peek mem 2 and tail = Mem.unsafe_peek mem 3 in
      if head > tail then fail "spsc: head %d ahead of tail %d" head tail;
      if tail - head > capacity then
        fail "spsc: %d in flight exceeds capacity %d" (tail - head) capacity;
      (* head only advances on pops; a consumer crash can consume without
         recording, so the recorded list is a lower bound *)
      if head < List.length got then
        fail "spsc: popped %d values but head is %d" (List.length got) head
    in
    { Explore.clients = [| producer; consumer |]; check }
  in
  { Explore.name = "spsc"; make; branch = (fun _ -> true) }

(* ---- shared bits of the arena models ---- *)

let arena_cfg = { Config.small with backend = Mem.Sched Mem.Flat }

(* Shared oracle tail: a leak-free, count-consistent, fsck-clean pool and a
   causally-sane era matrix. *)
let arena_audit arena ~cids =
  let svc = Shm.service_ctx arena in
  ignore (Shm.scan_leaking arena);
  (* Era causality: nobody can have observed an era a client never reached. *)
  let everyone = 0 :: Array.to_list cids in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          let seen = Era.read svc ~i ~j and self = Era.self_of svc ~cid:j in
          if seen > self then
            fail "era: Era[%d][%d]=%d exceeds Era[%d][%d]=%d" i j seen j j self)
        everyone)
    everyone;
  let detail v =
    Format.asprintf "%a%s" Validate.pp v
      (match v.Validate.errors with
      | [] -> ""
      | es -> " [" ^ String.concat "; " es ^ "]")
  in
  let v = Shm.validate arena in
  if not (Validate.is_clean v) then fail "validate: %s" (detail v)

(* Post-run oracle for full-arena models: recover every crashed client the
   way the monitor would, then audit. *)
let arena_check arena ~cids ~crashed =
  let svc = Shm.service_ctx arena in
  List.iter
    (fun idx ->
      let cid = cids.(idx) in
      Client.declare_failed svc ~cid;
      ignore (Shm.recover arena ~failed_cid:cid))
    crashed;
  arena_audit arena ~cids

let arena_branch = function
  | Sched.Crash_point _ | Sched.Label _ -> true
  | Sched.Access _ -> false

(* ---- transfer: exactly-once reference handoff through the ring ---- *)

let transfer ?(capacity = 1) ?(values = 2) ?(batched = false) () :
    Explore.model =
  let name = if batched then "transfer-batch" else "transfer" in
  let make () =
    let arena = Shm.create ~cfg:arena_cfg () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    (* endpoint setup is part of the environment, not the explored race *)
    let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity in
    let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
    let received = ref [] in
    let a_alive = ref true and b_alive = ref true in
    let sender_single () =
      try
        for v = 1 to values do
          let r = Shm.cxl_malloc a ~size_bytes:8 () in
          Cxl_ref.write_word r 0 v;
          let rec go () =
            match Transfer.send q r with
            | Transfer.Sent -> ()
            | Transfer.Full ->
                if !b_alive then begin
                  Sched.yield "send-full";
                  go ()
                end
                else raise Exit
            | Transfer.Closed -> raise Exit
          in
          let sent = (try go (); true with Exit -> Cxl_ref.drop r; false) in
          if not sent then raise Exit;
          Cxl_ref.drop r
        done
      with Exit -> ()
    in
    (* Batched variant: the whole run is published through [send_batch],
       retrying the unsent suffix when the ring is full — exercising every
       crash window of the single-commit-point batch publish. *)
    let sender_batched () =
      let refs =
        List.init values (fun i ->
            let r = Shm.cxl_malloc a ~size_bytes:8 () in
            Cxl_ref.write_word r 0 (i + 1);
            r)
      in
      let rec go rest =
        match rest with
        | [] -> ()
        | _ -> (
            let n, res = Transfer.send_batch q rest in
            let rest = List.filteri (fun i _ -> i >= n) rest in
            match res with
            | Transfer.Sent -> go rest
            | Transfer.Full ->
                if !b_alive then begin
                  Sched.yield "send-full";
                  go rest
                end
                else raise Exit
            | Transfer.Closed -> raise Exit)
      in
      let ok = (try go refs; true with Exit -> false) in
      List.iter Cxl_ref.drop refs;
      ignore ok
    in
    let sender () =
      Fun.protect ~finally:(fun () -> a_alive := false) @@ fun () ->
      if batched then sender_batched () else sender_single ()
    in
    let record r =
      received := Cxl_ref.read_word r 0 :: !received;
      Cxl_ref.drop r
    in
    let receiver () =
      Fun.protect ~finally:(fun () -> b_alive := false) @@ fun () ->
      try
        let got = ref 0 in
        while !got < values do
          if batched then
            match Transfer.receive_batch qb ~max:values with
            | Transfer.Received_batch rs ->
                got := !got + List.length rs;
                List.iter record rs
            | Transfer.Batch_empty ->
                if !a_alive then Sched.yield "recv-empty" else raise Exit
            | Transfer.Batch_drained -> raise Exit
          else
            match Transfer.receive qb with
            | Transfer.Received r ->
                incr got;
                record r
            | Transfer.Empty ->
                if !a_alive then Sched.yield "recv-empty" else raise Exit
            | Transfer.Drained -> raise Exit
        done
      with Exit -> ()
    in
    let check ~crashed =
      check_prefix ~what:name ~complete:(crashed = []) ~total:values
        (List.rev !received);
      arena_check arena ~cids:[| a.Ctx.cid; b.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| sender; receiver |]; check }
  in
  { Explore.name = name; make; branch = arena_branch }

(* ---- refc: era refcount transactions + allocator contention ---- *)

let refc ?(rounds = 2) () : Explore.model =
  let make () =
    let arena = Shm.create ~cfg:arena_cfg () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    (* Set-up: one shared parent with one embedded child, held by both
       clients. Each drops it after its churn, so the two releases race
       from count 2: whichever CAS loses retries on 1 and must decline,
       then tear the child down as the last holder. *)
    let shared_a = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
    let shared_child = Shm.cxl_malloc a ~size_bytes:8 () in
    Cxl_ref.set_emb shared_a 0 shared_child;
    Cxl_ref.drop shared_child;
    let shared_b =
      let rr = Alloc.alloc_rootref b in
      Refc.attach b ~ref_addr:(Rootref.pptr_slot rr) ~refed:(Cxl_ref.obj shared_a);
      Cxl_ref.of_rootref b rr
    in
    (* Each client churns its own two-object graph: allocate a parent with
       an embedded slot, link a child (era attach), unlink it (era detach +
       reclaim), release both. Both clients hammer the shared allocator
       (segment/page claims) and advance eras concurrently; a crash lands in
       any labeled window of alloc / txn / release / reclaim. *)
    let client ctx shared () =
      for _ = 1 to rounds do
        let parent = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
        let child = Shm.cxl_malloc ctx ~size_bytes:8 () in
        Cxl_ref.write_word child 0 7;
        Cxl_ref.set_emb parent 0 child;
        Cxl_ref.drop child;
        Cxl_ref.clear_emb parent 0;
        Cxl_ref.drop parent
      done;
      Cxl_ref.drop shared
    in
    let check ~crashed =
      arena_check arena ~cids:[| a.Ctx.cid; b.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| client a shared_a; client b shared_b |]; check }
  in
  { Explore.name = "refc"; make; branch = arena_branch }

(* ---- huge: multi-segment object lifecycle under crashes ---- *)

let huge ?(rounds = 1) () : Explore.model =
  let make () =
    let arena = Shm.create ~cfg:arena_cfg () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    (* Each object spans two segments (data_words = segment_words always
       overflows the head segment's capacity), so every free walks the
       tail-first release protocol through its [Free_huge_mid_release] /
       [Free_huge_after_reset] crash windows while the peer races claims
       on the same small segment pool. *)
    let span_words = (Shm.layout arena).Layout.segment_words in
    let client ctx () =
      for i = 1 to rounds do
        let r = Shm.cxl_malloc_words ctx ~data_words:span_words () in
        Cxl_ref.write_word r 0 i;
        Cxl_ref.write_word r (span_words - 1) (i * 7);
        if Cxl_ref.read_word r 0 <> i then fail "huge: head word corrupted";
        Cxl_ref.drop r
      done
    in
    let check ~crashed =
      arena_check arena ~cids:[| a.Ctx.cid; b.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| client a; client b |]; check }
  in
  { Explore.name = "huge"; make; branch = arena_branch }

(* ---- epoch-retire: batched rootref retirement through the journal ---- *)

let epoch_retire ?(rounds = 2) () : Explore.model =
  let make () =
    (* Batch of 2: every round parks exactly two retirements (child drop +
       parent drop), so the parent drop seals a batch and the next round's
       two drops retire it one entry each, interleaved with that round's
       allocations and embedded-slot transactions. Every round branches
       at [Retire_after_seal]; from the second round on the explorer also
       branches at [Retire_mid_batch] / [Retire_after_batch], and a crash
       leaves a sealed journal for [Recovery.recover_journal] to finish
       against the current era. *)
    let cfg = { arena_cfg with Config.epoch_batch = 2 } in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    let client ctx () =
      for _ = 1 to rounds do
        let parent = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
        let child = Shm.cxl_malloc ctx ~size_bytes:8 () in
        Cxl_ref.write_word child 0 7;
        Cxl_ref.set_emb parent 0 child;
        Cxl_ref.drop child;
        Cxl_ref.clear_emb parent 0;
        Cxl_ref.drop parent
      done
    in
    let check ~crashed =
      arena_check arena ~cids:[| a.Ctx.cid; b.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| client a; client b |]; check }
  in
  { Explore.name = "epoch-retire"; make; branch = arena_branch }

(* ---- sharded-alloc: domain free stacks under cross-client frees ---- *)

let sharded_alloc ?(values = 2) () : Explore.model =
  let make () =
    (* Three clients, two domains (cids 1,2,3 -> domains 1,0,1): [a] sends
       its blocks to [b], whose drop is a non-owner free that parks them on
       domain 0's shard stack; [b]'s own fresh allocations pop the local
       domain, while [c] (domain 1, empty) must CAS-steal from domain 0.
       Crashes land between push, pop, and the header write that unpins the
       stolen block — the stamp must keep the donor segment unrecycled
       throughout. *)
    let cfg = { arena_cfg with Config.num_domains = 2 } in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    let c = Shm.join arena () in
    let q = Transfer.connect a ~receiver:b.Ctx.cid ~capacity:1 in
    let qb = Option.get (Transfer.open_from b ~sender:a.Ctx.cid) in
    let received = ref [] in
    let a_alive = ref true and b_alive = ref true in
    let sender () =
      Fun.protect ~finally:(fun () -> a_alive := false) @@ fun () ->
      try
        for v = 1 to values do
          let r = Shm.cxl_malloc a ~size_bytes:8 () in
          Cxl_ref.write_word r 0 v;
          let rec go () =
            match Transfer.send q r with
            | Transfer.Sent -> ()
            | Transfer.Full ->
                if !b_alive then begin
                  Sched.yield "send-full";
                  go ()
                end
                else raise Exit
            | Transfer.Closed -> raise Exit
          in
          let sent = (try go (); true with Exit -> Cxl_ref.drop r; false) in
          if not sent then raise Exit;
          Cxl_ref.drop r
        done
      with Exit -> ()
    in
    let receiver () =
      Fun.protect ~finally:(fun () -> b_alive := false) @@ fun () ->
      try
        let got = ref 0 in
        while !got < values do
          match Transfer.receive qb with
          | Transfer.Received r ->
              incr got;
              received := Cxl_ref.read_word r 0 :: !received;
              (* Non-owner free: parks the block on domain 0's stack. *)
              Cxl_ref.drop r;
              (* Local-domain pop: may reclaim the block just parked. *)
              let own = Shm.cxl_malloc b ~size_bytes:8 () in
              Cxl_ref.write_word own 0 (- !got);
              Cxl_ref.drop own
          | Transfer.Empty ->
              if !a_alive then Sched.yield "recv-empty" else raise Exit
          | Transfer.Drained -> raise Exit
        done
      with Exit -> ()
    in
    let stealer () =
      for i = 1 to values do
        Sched.yield "steal-wait";
        let r = Shm.cxl_malloc c ~size_bytes:8 () in
        Cxl_ref.write_word r 0 (100 + i);
        Cxl_ref.drop r
      done
    in
    let check ~crashed =
      check_prefix ~what:"sharded-alloc" ~complete:(crashed = [])
        ~total:values
        (List.rev !received);
      arena_check arena ~cids:[| a.Ctx.cid; b.Ctx.cid; c.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| sender; receiver; stealer |]; check }
  in
  { Explore.name = "sharded-alloc"; make; branch = arena_branch }

(* ---- control-plane models: leases, replicated monitors, evacuation ---- *)

(* Drive a fresh monitor replica until every client slot outside [keep] has
   been reaped through the lease machinery (tick -> suspect -> condemn ->
   recover). This is the oracle's stand-in for "some replica survives the
   run": whatever mess the explored schedule left behind — a hung client, a
   leader dead mid-recovery, a crashed evacuator with its guard still
   attached — must be fully absorbed within a bounded number of passes,
   with no client ever declared failed by hand. Returns the settle replica
   (its death dumps count toward the exactly-once oracle). *)
let lease_settle arena ~keep =
  let mon = Shm.monitor arena ~id:7 () in
  let svc = Shm.service_ctx arena in
  let cfg = Shm.config arena in
  let keep_cids = List.map (fun (ctx : Ctx.t) -> ctx.Ctx.cid) keep in
  let stable () =
    let ok = ref true in
    for cid = 0 to cfg.Config.max_clients - 1 do
      if
        (not (List.mem cid keep_cids))
        && Client.status svc ~cid <> Client.Slot_free
      then ok := false
    done;
    !ok
  in
  let budget = 6 * (cfg.Config.lease_ttl + 2) in
  let rec go n =
    if not (stable ()) then begin
      if n = 0 then fail "settle: client slots still occupied after %d passes" budget;
      List.iter Client.heartbeat keep;
      ignore (Monitor.check_once mon);
      ignore (Monitor.recover_suspects mon);
      go (n - 1)
    end
  in
  go budget;
  mon

(* ---- lease: detection races renewal, a hung client is reaped ---- *)

let lease ?(passes = 4) () : Explore.model =
  let make () =
    (* ttl 2 with one monitor and [passes] ticks keeps in-run condemnation
       out of reach (needs 2*ttl+1 = 5 ticks past the last renewal), so the
       worker's own operations can never race its recovery; suspicion and
       heartbeat self-heal stay reachable from tick ttl+1 = 3 on. *)
    let cfg = { arena_cfg with Config.lease_ttl = 2 } in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let m = Shm.monitor arena () in
    let worker () =
      let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
      let child = Shm.cxl_malloc a ~size_bytes:8 () in
      Cxl_ref.write_word child 0 7;
      Cxl_ref.set_emb parent 0 child;
      Client.heartbeat a;
      Sched.yield "w-work";
      Cxl_ref.drop child;
      Cxl_ref.clear_emb parent 0;
      Client.heartbeat a;
      Cxl_ref.drop parent
      (* ... and goes silent without unregistering: only lease expiry can
         free the slot. *)
    in
    let monitor () =
      for _ = 1 to passes do
        ignore (Monitor.check_once m);
        ignore (Monitor.recover_suspects m);
        Sched.yield "mon-pass"
      done
    in
    let check ~crashed:_ =
      (* No declare_failed anywhere: crashed or hung, the worker must fall
         to the lease machinery alone. *)
      ignore (lease_settle arena ~keep:[]);
      arena_audit arena ~cids:[| a.Ctx.cid |]
    in
    { Explore.clients = [| worker; monitor |]; check }
  in
  { Explore.name = "lease"; make; branch = arena_branch }

(* ---- dual-monitor: leader failover with crashes inside the handoff ---- *)

let dual_monitor ?(passes = 3) () : Explore.model =
  let make () =
    let cfg = { arena_cfg with Config.lease_ttl = 1 } in
    let arena = Shm.create ~cfg () in
    let w = Shm.join arena () in
    (* Environment: the worker leaks a parent/child graph before the run;
       in-run it only heartbeats (guarded, branch-point-free, hence atomic
       to the explorer) and then goes silent, so its in-run condemnation —
       ttl 1 makes that reachable from tick 3 — never races its own
       recovery. Crashes land in the monitors instead: inside election
       ([Lead_after_acquire]), takeover ([Lead_after_depose]) and the
       recovery instruction stream, which the surviving replica (or the
       settle replica) must resume mid-flight. *)
    let parent = Shm.cxl_malloc w ~size_bytes:8 ~emb_cnt:1 () in
    let child = Shm.cxl_malloc w ~size_bytes:8 () in
    Cxl_ref.write_word child 0 7;
    Cxl_ref.set_emb parent 0 child;
    Cxl_ref.drop child;
    let m0 = Shm.monitor arena () in
    let m1 = Shm.monitor arena ~id:1 () in
    let worker () =
      for _ = 1 to 2 do
        if Client.is_alive w ~cid:w.Ctx.cid then Client.heartbeat w;
        Sched.yield "w-heartbeat"
      done
    in
    (* m1 activates only once m0 is finished or crashed. A *live* leader
       stalled mid-recovery past its whole lease is indistinguishable from
       a dead one (the unclosable lease-fencing window, see FAULTS.md), so
       the model keeps replicas sequentially active — what it proves is
       takeover from a leader that crashed anywhere, including inside
       election, deposition, and the recovery instruction stream. *)
    let m0_running = ref true in
    let mon0 () =
      Fun.protect ~finally:(fun () -> m0_running := false) @@ fun () ->
      for _ = 1 to passes do
        ignore (Monitor.check_once m0);
        ignore (Monitor.recover_suspects m0);
        Sched.yield "mon-pass"
      done
    in
    let mon1 () =
      while !m0_running do
        Sched.yield "m1-wait"
      done;
      for _ = 1 to passes do
        ignore (Monitor.check_once m1);
        ignore (Monitor.recover_suspects m1);
        Sched.yield "mon-pass"
      done
    in
    let check ~crashed:_ =
      let smon = lease_settle arena ~keep:[] in
      (* Exactly one death dump for the worker's single failure incident,
         no matter which replica condemned it or how many saw it Failed. *)
      let dumps =
        List.fold_left
          (fun n m -> n + List.length (Monitor.death_dumps m))
          0 [ m0; m1; smon ]
      in
      if dumps <> 1 then
        fail "dual-monitor: %d death dumps for one failure incident" dumps;
      arena_audit arena ~cids:[| w.Ctx.cid |]
    in
    { Explore.clients = [| worker; mon0; mon1 |]; check }
  in
  { Explore.name = "dual-monitor"; make; branch = arena_branch }

(* ---- evacuate: live data drains off a degraded device ---- *)

let evacuate ?(rounds = 2) () : Explore.model =
  let make () =
    let cfg =
      { Config.small with
        backend =
          Mem.Sched (Mem.Striped { devices = 2; stripe_words = 0; tiers = [||] });
        lease_ttl = 1 }
    in
    let arena = Shm.create ~cfg () in
    let svc = Shm.service_ctx arena in
    let lay = Shm.layout arena in
    (* Environment: client [a] (home device 0) allocates a child that
       client [b] (home device 1) links into its own parent; [a] then
       leaves cleanly, stranding the still-referenced child in an orphaned
       segment — and device 0 goes degraded. *)
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    let child = Shm.cxl_malloc a ~size_bytes:16 () in
    Cxl_ref.write_word child 0 48879;
    let parent = Shm.cxl_malloc b ~size_bytes:8 ~emb_cnt:1 () in
    Cxl_ref.set_emb parent 0 child;
    let child_obj = Cxl_ref.obj child in
    Cxl_ref.drop child;
    Shm.leave a;
    let dev = Alloc.segment_device svc (Layout.segment_of_addr lay child_obj) in
    let seg_of r = Layout.segment_of_addr lay r in
    if
      Alloc.segment_device svc (seg_of (Cxl_ref.obj parent)) = dev
      || Alloc.segment_device svc (seg_of (Cxl_ref.rootref parent)) = dev
    then fail "evacuate: holder landed on the to-be-degraded device";
    Ctx.mark_degraded svc dev;
    (* In-run: [b] keeps allocating (and heartbeating) while the evacuation
       sweep runs — crashes land at the [Evac_*] windows (after copy, after
       each re-point, before release) and anywhere in the sweep's
       allocator/refcount traffic. *)
    let b_traffic () =
      for i = 1 to rounds do
        Client.heartbeat b;
        let r = Shm.cxl_malloc b ~size_bytes:8 () in
        Cxl_ref.write_word r 0 i;
        Cxl_ref.drop r;
        Sched.yield "b-work"
      done
    in
    let evacuator () = ignore (Shm.evacuate arena) in
    let check ~crashed =
      let b_alive = not (List.mem 0 crashed) in
      ignore (lease_settle arena ~keep:(if b_alive then [ b ] else []));
      (* Convergence: one clean sweep after recovery must finish whatever
         the crashed one left half-moved. *)
      ignore (Shm.evacuate arena);
      (match Evacuate.live_segments_on svc ~dev with
      | [] -> ()
      | segs ->
          fail "evacuate: %d live segments left on degraded device %d"
            (List.length segs) dev);
      if b_alive then begin
        let c = Cxl_ref.get_emb parent 0 in
        if c = 0 then fail "evacuate: parent lost its child reference";
        if Mem.unsafe_peek (Shm.mem arena) (Obj_header.data_of_obj c) <> 48879
        then fail "evacuate: child payload lost in the move"
      end;
      arena_audit arena ~cids:[| a.Ctx.cid; b.Ctx.cid |]
    in
    { Explore.clients = [| b_traffic; evacuator |]; check }
  in
  { Explore.name = "evacuate"; make; branch = arena_branch }

(* ---- kv-serve: COW retirement racing a concurrent reader walk ---- *)

(* With [~park_release:true] (model [kv-serve-park]) the set-up parks one
   record short of a limbo row, so the writer's one in-run [put_cow] is the
   park that runs the bounded release, and no explicit quiesce follows. *)
let kv_serve ?(park_release = false) () : Explore.model =
  let module Kv = Cxlshm_kv.Cxl_kv in
  let name = if park_release then "kv-serve-park" else "kv-serve" in
  let make () =
    let arena = Shm.create ~cfg:arena_cfg () in
    let w = Shm.join arena () in
    let r = Shm.join arena () in
    let store, hw = Kv.create w ~buckets:1 ~partitions:1 ~value_words:1 in
    if not (Kv.claim_partition hw 0) then fail "%s: claim failed" name;
    (* environment: two keys in the one bucket so the walk has depth *)
    Kv.put hw ~key:0 ~value:100;
    Kv.put hw ~key:1 ~value:101;
    (* passed parks of key 0's tail record: the bounded release frees
       these, and must still defer the in-run park the reader pins *)
    if park_release then
      for _ = 2 to Layout.limbo_row_entries do
        Kv.put_cow hw ~key:0 ~value:100
      done;
    let hr = Kv.open_store r store in
    (* every record visited during the run becomes a schedule point, so
       the reader can pause mid-chain across the writer's whole
       retire/quiesce/reuse sequence *)
    Kv.walk_hook := (fun () -> Sched.yield "kv-walk");
    let observed = ref None in
    let writer () =
      (* COW-update key 1: the displaced record is parked behind a
         counted ref, stamped with the retire epoch *)
      Kv.put_cow hw ~key:1 ~value:201;
      (* reclamation pass: must defer the parked record while the
         reader's era announcement pins it *)
      if not park_release then Kv.quiesce hw;
      (* decoy from the record's size class: if quiesce freed the parked
         record under the reader, this reuses its block and plants a
         poisoned key/value exactly where the reader is standing *)
      let d = Shm.cxl_malloc_words w ~data_words:3 ~emb_cnt:1 () in
      Cxl_ref.write_word d 1 1;
      Cxl_ref.write_word d 2 0xDEAD;
      Cxl_ref.drop d
    in
    let reader () = observed := Some (Kv.get hr ~key:1) in
    let check ~crashed =
      Kv.walk_hook := (fun () -> ());
      (match !observed with
      | Some (Some v) when v <> 101 && v <> 201 ->
          fail "%s: reader observed 0x%x (read of a freed record)" name v
      | Some None -> fail "%s: reader lost key 1 mid-walk" name
      | Some (Some _) | None -> ());
      if not (List.mem 0 crashed) then begin
        Kv.quiesce hw;
        Kv.close hw
      end;
      if not (List.mem 1 crashed) then Kv.close hr;
      arena_check arena ~cids:[| w.Ctx.cid; r.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| writer; reader |]; check }
  in
  { Explore.name = name; make; branch = arena_branch }

(* ---- kv-serve-recover: writer crash, adoption racing the pinned walk ---- *)

let kv_serve_recover () : Explore.model =
  let module Kv = Cxlshm_kv.Cxl_kv in
  let make () =
    (* One shard domain: a non-owner free of the dead writer's record block
       (exactly what the era-blind reap mutation performs) parks it on the
       shared domain stack, and the recoverer's next same-class allocation
       pops that very block — so the decoy below provably lands in the
       freed record if, and only if, recovery freed it under the reader. *)
    let cfg = { arena_cfg with Config.num_domains = 1 } in
    let arena = Shm.create ~cfg () in
    let w = Shm.join arena () in
    let r = Shm.join arena () in
    let s = Shm.join arena () in
    let store, hw = Kv.create w ~buckets:1 ~partitions:1 ~value_words:1 in
    if not (Kv.claim_partition hw 0) then
      fail "kv-serve-recover: claim failed";
    Kv.put hw ~key:0 ~value:100;
    Kv.put hw ~key:1 ~value:101;
    let hr = Kv.open_store r store in
    let hs = Kv.open_store s store in
    Kv.walk_hook := (fun () -> Sched.yield "kv-walk");
    let observed = ref None in
    let w_done = ref false and w_clean = ref false in
    let w_recovered = ref false in
    let writer () =
      Fun.protect ~finally:(fun () -> w_done := true) @@ fun () ->
      Kv.put_cow hw ~key:1 ~value:201;
      Kv.quiesce hw;
      w_clean := true
    in
    let reader () = observed := Some (Kv.get hr ~key:1) in
    (* The successor plays the monitor: once the writer is done (or dead)
       it recovers the crash, takes over the partition, adopts the rows
       recovery orphaned — original retire stamps intact — and then
       allocates from the record's size class. Recovery and adoption run
       interleaved with the reader's paused walk; under the [kv-crash-reap]
       mutation the era-blind reap frees the parked record, this decoy
       reuses its block, and the pinned reader observes 0xDEAD. *)
    let decoys = ref [] in
    let recoverer () =
      while not !w_done do
        Sched.yield "rec-wait"
      done;
      if not !w_clean then begin
        let svc = Shm.service_ctx arena in
        Client.declare_failed svc ~cid:w.Ctx.cid;
        (* Recovery runs under the successor's own identity: a monitor is
           never the owner of the dead writer's segment, so the mutated
           era-blind free must take the cross-client shard path — the one
           the decoy allocation below pops from. *)
        ignore (Recovery.recover s ~failed_cid:w.Ctx.cid);
        w_recovered := true
      end;
      ignore (Kv.takeover_partition hs 0);
      ignore (Kv.adopt_recovered hs);
      (* Two decoys, dropped only in the check (a drop would overwrite the
         poison with allocator metadata before the paused reader resumes):
         an era-blind reap can cascade — the parked record's teardown frees
         its chain tail too — and only the *second* pop reaches the block
         the reader is standing on. *)
      for _ = 1 to 2 do
        let d = Shm.cxl_malloc_words s ~data_words:3 ~emb_cnt:1 () in
        decoys := d :: !decoys;
        Cxl_ref.write_word d 1 1;
        Cxl_ref.write_word d 2 0xDEAD
      done
    in
    let check ~crashed =
      Kv.walk_hook := (fun () -> ());
      (match !observed with
      | Some (Some v) when v <> 101 && v <> 201 ->
          fail "kv-serve-recover: reader observed 0x%x (read of a freed \
                record)" v
      | Some None -> fail "kv-serve-recover: reader lost key 1 mid-walk"
      | Some (Some _) | None -> ());
      if not (List.mem 2 crashed) then List.iter Cxl_ref.drop !decoys;
      if not (List.mem 0 crashed) then begin
        Kv.quiesce hw;
        Kv.close hw
      end;
      if not (List.mem 1 crashed) then Kv.close hr;
      if not (List.mem 2 crashed) then Kv.close hs;
      (* The in-run recovery already condemned and recovered the writer;
         the oracle must not declare it failed a second time. *)
      let crashed =
        if !w_recovered then List.filter (fun i -> i <> 0) crashed
        else crashed
      in
      arena_check arena ~cids:[| w.Ctx.cid; r.Ctx.cid; s.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| writer; reader; recoverer |]; check }
  in
  { Explore.name = "kv-serve-recover"; make; branch = arena_branch }

(* ---- bcast-recover: log-writer crash, subscriber paused before attach ---- *)

let bcast_recover () : Explore.model =
  let module Log = Cxlshm_structures.Broadcast_log in
  let make () =
    let arena = Shm.create ~cfg:arena_cfg () in
    let w = Shm.join arena () in
    let r = Shm.join arena () in
    let s = Shm.join arena () in
    let cids = [| r.Ctx.cid; w.Ctx.cid; s.Ctx.cid |] in
    (* A one-slot log whose entry 0 is the subscriber's target: the next
       publish overwrites it. Entry 0 sits alone in a segment of its own,
       so freeing it era-blind empties that segment for reuse. *)
    let log = Log.create w ~capacity:1 in
    let publish ?(pin = []) v =
      let e =
        Ctx.with_pin w pin (fun () -> Shm.cxl_malloc_words w ~data_words:2 ())
      in
      Cxl_ref.write_word e 0 v;
      ignore (Log.publish log e);
      Cxl_ref.drop e
    in
    let seg0 =
      List.find
        (fun seg -> Segment.state w seg = Segment.Free && Segment.claim w seg)
        (List.init arena_cfg.Config.num_segments Fun.id)
    in
    publish ~pin:[ seg0 ] 100;
    Ctx.exclude_segment w seg0;
    let cur = Log.subscribe r (Log.log_ref log) in
    Log.attach_hook := (fun () -> Sched.yield "bcast-attach");
    let observed = ref None in
    let w_done = ref false and w_clean = ref false in
    let w_recovered = ref false in
    (* Two overwrites: the first parks entry 0 (pinned while the subscriber
       is paused on it), the second parks entry 1 and its quiesce may
       release entry 0. *)
    let writer () =
      Fun.protect ~finally:(fun () -> w_done := true) @@ fun () ->
      publish 101;
      publish 102;
      w_clean := true
    in
    let reader () =
      let rec go n =
        if n > 0 then
          match Log.poll cur with
          | `Entry (_, e) ->
              observed := Some (Cxl_ref.read_word e 0);
              Cxl_ref.drop e
          | `Lagged _ -> go (n - 1)
          | `Empty -> ()
      in
      go 2
    in
    (* The monitor recovers a writer crash and runs the leak scan (with its
       limbo drain) interleaved with the paused subscriber, then reuses
       entry 0's segment if it came back to the arena, planting 0xDEAD
       decoys exactly where entry 0 was: an entry freed era-blind is
       reused, and the subscriber's [try_attach] lands on poison. *)
    let decoys = ref [] in
    let recoverer () =
      while not !w_done do
        Sched.yield "rec-wait"
      done;
      if not !w_clean then begin
        let svc = Shm.service_ctx arena in
        Client.declare_failed svc ~cid:w.Ctx.cid;
        ignore (Recovery.recover s ~failed_cid:w.Ctx.cid);
        w_recovered := true
      end;
      ignore (Shm.scan_leaking arena);
      if Segment.state s seg0 = Segment.Free && Segment.claim s seg0 then
        for _ = 1 to 2 do
          let d =
            Ctx.with_pin s [ seg0 ] (fun () ->
                Shm.cxl_malloc_words s ~data_words:2 ())
          in
          decoys := d :: !decoys;
          Cxl_ref.write_word d 0 0xDEAD
        done
    in
    let check ~crashed =
      Log.attach_hook := (fun () -> ());
      (match !observed with
      | Some v when v <> 100 && v <> 101 && v <> 102 ->
          fail "bcast-recover: subscriber read 0x%x (attached a freed entry)" v
      | Some _ | None -> ());
      if not (List.mem 2 crashed) then List.iter Cxl_ref.drop !decoys;
      if not (List.mem 0 crashed) then Log.close_cursor cur;
      if not (List.mem 1 crashed) then Log.close_writer log;
      (* A crash inside the leak scan's drain kills its short-lived client;
         recover it as the monitor's lease pass would. *)
      let svc = Shm.service_ctx arena in
      for cid = 0 to arena_cfg.Config.max_clients - 1 do
        if (not (Array.mem cid cids)) && Client.status svc ~cid = Client.Alive
        then begin
          Client.declare_failed svc ~cid;
          ignore (Shm.recover arena ~failed_cid:cid)
        end
      done;
      let crashed =
        if !w_recovered then List.filter (fun i -> i <> 1) crashed
        else crashed
      in
      arena_check arena ~cids ~crashed
    in
    (* The subscriber runs first: one preemption at its attach point lets
       the writer overwrite (and crash on) the entry it is about to
       attach. *)
    { Explore.clients = [| reader; writer; recoverer |]; check }
  in
  { Explore.name = "bcast-recover"; make; branch = arena_branch }

(* ---- rpc-isolate: pointer isolation + channel revocation under crash ---- *)

let rpc_isolate () : Explore.model =
  let module Rpc = Cxlshm_rpc.Cxl_rpc in
  let module Message = Cxlshm_rpc.Message in
  let make () =
    let arena = Shm.create ~cfg:arena_cfg () in
    let c = Shm.join arena () in
    let s = Shm.join arena () in
    let m = Shm.join arena () in
    (* endpoint + sub-heap setup is environment, not the explored race *)
    let server = Rpc.accept s ~client_cid:c.Ctx.cid ~capacity:1 in
    let client = Rpc.connect c ~server_cid:s.Ctx.cid ~capacity:1 in
    let c_alive = ref true and s_alive = ref true in
    let c_done = ref false and c_clean = ref false in
    let c_recovered = ref false in
    let good = ref None and bad = ref None in
    let handler_poison = ref false in
    let leftovers = ref [] in
    (* wait for a pending without the library's cpu_relax spin: the
       explorer needs a yield per poll so it can preempt the waiter *)
    let rec await p =
      match Rpc.try_finish p with
      | Some out -> Some out
      | None ->
          if !s_alive then begin
            Sched.yield "rpc-wait";
            await p
          end
          else begin
            Rpc.discard p;
            None
          end
    in
    let rec wait_room () =
      if not !s_alive then false
      else if Rpc.can_call client then true
      else begin
        Sched.yield "rpc-full";
        wait_room ()
      end
    in
    let client_fn () =
      Fun.protect
        ~finally:(fun () ->
          c_alive := false;
          c_done := true)
      @@ fun () ->
      (* call 1: a well-formed in-channel call — its output must be exactly
         the handler's write (catches a pre-handler completion publish) *)
      let arg = Rpc.alloc_arg client ~size_bytes:8 () in
      leftovers := arg :: !leftovers;
      Cxl_ref.write_word arg 0 7;
      let p = Rpc.call_async client ~func:3 ~args:[ arg ] ~output_bytes:8 in
      Sched.yield "rpc-sent";
      let collect () =
        match await p with
        | Some out ->
            good := Some (Cxl_ref.read_word out 0);
            Cxl_ref.drop out
        | None -> ()
      in
      (* Call 2 is pipelined into call 1's slot (the ring holds one loan)
         as soon as the head passes call 1, before call 1 is collected, so
         the lend reclaims call 1's message and must keep its completion
         (catches a head advanced before the completion word). A
         completion seen before the ring has room is collected first. *)
      let rec first () =
        if not !s_alive then `Gone
        else if Rpc.can_call client then `Room
        else if Rpc.is_done p then `Done
        else begin
          Sched.yield "rpc-full";
          first ()
        end
      in
      let first = first () in
      if first = `Done then collect ();
      (* call 2: a smuggled out-of-channel pointer — the server's walk must
         reject it without running the handler *)
      let p2 =
        if first = `Room || wait_room () then begin
          let smug = Shm.cxl_malloc c ~size_bytes:8 () in
          leftovers := smug :: !leftovers;
          Cxl_ref.write_word smug 0 0xBEEF;
          Some (Rpc.call_async client ~func:1 ~args:[ smug ] ~output_bytes:8)
        end
        else None
      in
      if first <> `Done then collect ();
      (match p2 with
      | Some p2 -> (
          match await p2 with
          | Some out ->
              bad := Some `Accepted;
              Cxl_ref.drop out
          | None -> ()
          | exception Rpc.Call_rejected _ -> bad := Some `Rejected)
      | None -> ());
      c_clean := true
    in
    let handler ~func ~args ~output =
      (* a schedule point between the (possibly mutated-early) completion
         publish and the in-place output write *)
      Sched.yield "rpc-handler";
      match args with
      | [ a ] ->
          let v = Message.read_word a 0 in
          if v = 0xDEAD then handler_poison := true;
          Message.write_word output 0 (v + func)
      | _ -> fail "rpc-isolate: handler saw %d args" (List.length args)
    in
    let server_fn () =
      Fun.protect ~finally:(fun () -> s_alive := false) @@ fun () ->
      let consumed = ref 0 in
      (try
         while !consumed < 2 do
           if Rpc.serve_one server ~handler then incr consumed
           else if !c_alive then Sched.yield "serve-empty"
           else raise Exit
         done
       with Exit -> ())
    in
    (* The monitor recovers a client crash interleaved with the server's
       serving, then reuses any sub-heap segment the revocation returned to
       the arena: a pin-placed decoy lands exactly inside the freed segment,
       so if revocation freed memory the server still stands on, the
       handler provably reads 0xDEAD. *)
    let decoys = ref [] in
    let monitor_fn () =
      while not !c_done do
        Sched.yield "mon-wait"
      done;
      if not !c_clean then begin
        let svc = Shm.service_ctx arena in
        Client.declare_failed svc ~cid:c.Ctx.cid;
        ignore (Recovery.recover m ~failed_cid:c.Ctx.cid);
        c_recovered := true;
        List.iter
          (fun seg ->
            if Segment.state m seg = Segment.Free && Segment.claim m seg
            then begin
              let d =
                Ctx.with_pin m [ seg ] (fun () ->
                    Shm.cxl_malloc m ~size_bytes:16 ())
              in
              decoys := d :: !decoys;
              Cxl_ref.write_word d 0 0xDEAD;
              Cxl_ref.write_word d 1 0xDEAD
            end)
          (Rpc.channel_segments client)
      end
    in
    let check ~crashed =
      if !handler_poison then
        fail "rpc-isolate: handler read 0xDEAD (revoked sub-heap reused \
              under the server)";
      (match !good with
      | Some v when v <> 7 + 3 ->
          fail "rpc-isolate: good call returned %d, not %d (completion \
                published before the output write)" v (7 + 3)
      | Some _ | None -> ());
      (match !bad with
      | Some `Accepted ->
          fail "rpc-isolate: smuggled out-of-channel pointer reached the \
                handler"
      | Some `Rejected | None -> ());
      if not (List.mem 0 crashed) then begin
        List.iter Cxl_ref.drop !leftovers;
        Rpc.close_client client
      end;
      if not (List.mem 1 crashed) then Rpc.close_server server;
      if not (List.mem 2 crashed) then List.iter Cxl_ref.drop !decoys;
      (* the in-run recovery already condemned and recovered the client *)
      let crashed =
        if !c_recovered then List.filter (fun i -> i <> 0) crashed
        else crashed
      in
      arena_check arena ~cids:[| c.Ctx.cid; s.Ctx.cid; m.Ctx.cid |] ~crashed
    in
    { Explore.clients = [| client_fn; server_fn; monitor_fn |]; check }
  in
  { Explore.name = "rpc-isolate"; make; branch = arena_branch }

(* ---- registry ---- *)

let all () =
  [ spsc (); transfer (); transfer ~batched:true (); refc (); huge ();
    epoch_retire (); sharded_alloc (); lease (); dual_monitor ();
    evacuate (); kv_serve (); kv_serve ~park_release:true ();
    kv_serve_recover (); bcast_recover ();
    rpc_isolate () ]

let find name =
  match List.find_opt (fun m -> m.Explore.name = name) (all ()) with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "unknown model %s (have: %s)" name
           (String.concat ", "
              (List.map (fun m -> m.Explore.name) (all ()))))
