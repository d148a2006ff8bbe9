type t = {
  id : int;  (** replica id — the identity used for leader election *)
  ctx : Ctx.t;  (** service context: stats attribution only *)
  errors : int Atomic.t;  (** loop iterations that raised *)
  last_error : exn option Atomic.t;
  mutable leadership : Lease.lead;
  mutable death_dumps : (int * Trace.event list) list;
      (** newest first: (cid, last ring events) captured at condemnation *)
}

let death_dump_events = 16

let create ~mem ~lay ?(id = 0) () =
  {
    id;
    ctx = Ctx.make ~cache:false ~epoch:false ~mem ~lay ~cid:0 ();
    errors = Atomic.make 0;
    last_error = Atomic.make None;
    leadership = Lease.Follower;
    death_dumps = [];
  }

let ctx t = t.ctx
let id t = t.id
let death_dumps t = t.death_dumps
let error_count t = Atomic.get t.errors
let last_error t = Atomic.get t.last_error

let is_leader t =
  match t.leadership with
  | Lease.Leader | Lease.Took_over -> true
  | Lease.Follower -> false

let leader t = Lease.leader t.ctx

let abdicate t =
  Lease.abdicate t.ctx ~id:t.id;
  t.leadership <- Lease.Follower

(* Forensics, exactly once per failure incident: the dump-claim word CAS
   (monotone, keyed by the slot's grant era) elects one capturer across
   every monitor replica and across repeated sightings of the same Failed
   slot — a client observed Failed on five consecutive passes, or declared
   failed twice by impatient tests, still dumps once. *)
let capture_death_dump t ~cid =
  let ctx = t.ctx in
  let era = Lease.era ctx ~cid in
  if era > 0 then begin
    let claim = Layout.client_dump_claim ctx.Ctx.lay cid in
    let prev = Ctx.load ctx claim in
    if prev < era && Ctx.cas ctx claim ~expected:prev ~desired:era then begin
      let events =
        Trace.dump ctx.Ctx.mem ctx.Ctx.lay ~cid ~last:death_dump_events ()
      in
      t.death_dumps <- (cid, events) :: t.death_dumps
    end
  end

let check_once t =
  let ctx = t.ctx in
  let m = (Ctx.cfg ctx).Config.max_clients in
  (* Every replica advances the logical clock, so leases keep expiring even
     when all but one monitor is dead — detection needs no leader. *)
  ignore (Lease.tick ctx);
  let condemned = ref [] in
  for cid = 0 to m - 1 do
    match Client.status ctx ~cid with
    | Client.Alive -> ignore (Lease.try_suspect ctx ~cid)
    | Client.Suspected ->
        if Lease.try_condemn ctx ~cid then begin
          capture_death_dump t ~cid;
          condemned := cid :: !condemned
        end
    | Client.Failed ->
        (* Declared by a peer replica or directly by a test: make sure the
           forensic dump is captured before recovery scrubs the arena. *)
        capture_death_dump t ~cid
    | Client.Slot_free -> ()
  done;
  List.rev !condemned

let recover_suspects t =
  let ctx = t.ctx in
  match Lease.try_lead ctx ~id:t.id with
  | Lease.Follower ->
      t.leadership <- Lease.Follower;
      []
  | (Lease.Leader | Lease.Took_over) as l ->
      t.leadership <- l;
      (* Taking over means the previous leader may have died mid-recovery:
         finish its interrupted instruction stream before looking for new
         Failed clients — exactly what that leader's next step would have
         been. *)
      (match Recovery.resume_interrupted ctx with Some _ -> () | None -> ());
      if l = Lease.Took_over then Ctx.crash_point ctx Fault.Lead_after_depose;
      let m = (Ctx.cfg ctx).Config.max_clients in
      let still_leader () =
        match Lease.leader ctx with
        | Some (lid, _) when lid = t.id -> true
        | Some _ | None ->
            (* Deposed mid-sweep (our own lease ran out while we stalled):
               stop before touching another client — the new leader owns
               the rest of the sweep. This bounds, but cannot fully close,
               the classic lease-fencing window: a leader stalled *inside*
               one client's recovery past its whole lease is
               indistinguishable from a dead one. *)
            t.leadership <- Lease.Follower;
            false
      in
      let out = ref [] in
      let cid = ref 0 in
      while !cid < m && still_leader () do
        if Client.status ctx ~cid:!cid = Client.Failed then
          out := (!cid, Recovery.recover ctx ~failed_cid:!cid) :: !out;
        incr cid
      done;
      List.rev !out

let run_in_domain t ~interval =
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (* The monitor is the component everything else relies on for
             liveness; one poisoned read or half-recovered client must not
             silently kill its domain. Count the failure, remember it, and
             keep watching — the next iteration retries from scratch. *)
          (try
             ignore (check_once t);
             ignore (recover_suspects t);
             if is_leader t then begin
               ignore (Limbo.drain t.ctx);
               ignore
                 (Reclaim.scan_all t.ctx ~is_client_alive:(fun cid ->
                      Client.is_alive t.ctx ~cid))
             end
           with e ->
             Atomic.incr t.errors;
             Atomic.set t.last_error (Some e));
          Unix.sleepf interval
        done)
  in
  (d, stop)

let stop_and_join (d, stop) t =
  Atomic.set stop true;
  Domain.join d;
  (* Hand leadership back deliberately so a surviving replica takes over on
     its next pass instead of waiting out the leader lease. *)
  abdicate t;
  last_error t
