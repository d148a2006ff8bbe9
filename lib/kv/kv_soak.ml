open Cxlshm
module Mem = Cxlshm_shmem.Mem

type report = {
  ka_seed : int;
  ka_steps : int;
  ka_writer_cid : int;
  ka_writer_crashed : bool;
  ka_orphaned : int;
  ka_adopted : int;
  ka_pinned : int;
  ka_pinned_freed : int;
  ka_clean : bool;
}

let pp_report ppf k =
  Format.fprintf ppf
    "seed=%-6d steps=%-5d writer=cid%d crashed=%b orphaned=%d adopted=%d \
     pinned=%d pinned-freed=%d %s"
    k.ka_seed k.ka_steps k.ka_writer_cid k.ka_writer_crashed k.ka_orphaned
    k.ka_adopted k.ka_pinned k.ka_pinned_freed
    (if k.ka_clean then "clean" else "** DIRTY **")

(* The KV control-plane soak: a writer COW-churns a small store under
   fault injection, a reader pins a hazard era mid-walk, and the writer is
   killed at the first free inside its reclamation pass — mid-quiesce,
   with its limbo rows part-cleared. The monitor condemns and recovers it
   (orphaning the rows in place), a successor takes over the partition
   and adopts the orphaned rows with their retire stamps intact, and the
   verdict is: no era-pinned record was freed, adoption took every
   orphaned record, and the arena is fsck-clean with counts matching
   reachability. Deterministic in [seed]. *)
let writer_kill_adopt ?(steps = 200) ~seed () =
  let cfg =
    {
      Config.small with
      Config.backend =
        Mem.Striped { devices = 4; stripe_words = 0; tiers = [||] };
      lease_ttl = 2;
    }
  in
  let arena = Shm.create ~cfg () in
  let w = Shm.join arena () in
  let r = Shm.join arena () in
  let s = Shm.join arena () in
  let store, hw = Cxl_kv.create w ~buckets:4 ~partitions:1 ~value_words:2 in
  if not (Cxl_kv.claim_partition hw 0) then
    failwith "writer_kill_adopt: claim failed";
  let hr = Cxl_kv.open_store r store in
  let hs = Cxl_kv.open_store s store in
  let rng = Random.State.make [| 0x61646f70; seed |] in
  let keys = 12 in
  for k = 0 to keys - 1 do
    Cxl_kv.put hw ~key:k ~value:(1000 + k)
  done;
  (* Steady churn: COW updates park displaced records, periodic quiesce
     recycles them, reader traffic announces and retires eras. *)
  for i = 1 to steps do
    let k = Random.State.int rng keys in
    (match Random.State.int rng 3 with
    | 0 | 1 -> Cxl_kv.put_cow hw ~key:k ~value:i
    | _ -> ignore (Cxl_kv.get hr ~key:k));
    if i mod 32 = 0 then Cxl_kv.quiesce hw;
    Client.heartbeat w;
    Client.heartbeat r;
    Client.heartbeat s
  done;
  Cxl_kv.quiesce hw;
  (* Batch A parks before the reader pins (reclaimable), batch B after
     (era-pinned): the quiesce below starts freeing batch A and dies at
     the first free, leaving its limbo rows holding the rest. The
     successor's era holds batch A until that quiesce, so the bounded
     release of a row-filling park cannot free it first. A quiesce between
     the batches keeps batch A and so advances the epoch: the reader
     announces past batch A's stamps. *)
  Hazard.enter s;
  for k = 0 to (keys / 2) - 1 do
    Cxl_kv.put_cow hw ~key:k ~value:(3000 + k)
  done;
  Cxl_kv.quiesce hw;
  Hazard.enter r;
  for k = keys / 2 to keys - 1 do
    Cxl_kv.put_cow hw ~key:k ~value:(4000 + k)
  done;
  Hazard.exit s;
  (* Snapshot the writer's limbo rows: (obj, stamp) per entry. *)
  let mem = Shm.mem arena in
  let lay = Shm.layout arena in
  let peek = Mem.unsafe_peek mem in
  let parked =
    List.map
      (fun (rr, stamp) -> (peek (Rootref.pptr_slot rr), stamp))
      (Limbo.peek_entries mem lay ~owner:(w.Ctx.cid + 1))
  in
  let svc = Shm.service_ctx arena in
  let safe = Hazard.min_announced svc in
  let pinned = List.filter (fun (_, stamp) -> stamp >= safe) parked in
  (* Kill the writer at the first free inside its reclamation pass. *)
  w.Ctx.fault <- Fault.at Fault.Release_mid_reclaim ~nth:1;
  let writer_crashed =
    match Cxl_kv.quiesce hw with
    | () -> false
    | exception Fault.Crashed _ -> true
  in
  w.Ctx.fault <- Fault.none;
  (* The monitor condemns the silent writer and recovers it: recovery
     orphans its limbo rows in place. *)
  let mon = Monitor.create ~mem ~lay:(Shm.layout arena) () in
  let orphaned = ref 0 in
  let recovered = ref false in
  let guard = ref 0 in
  let budget = 10 * (cfg.Config.lease_ttl + 2) in
  while (not !recovered) && !guard < budget do
    Client.heartbeat r;
    Client.heartbeat s;
    ignore (Monitor.check_once mon);
    List.iter
      (fun (cid, rep) ->
        if cid = w.Ctx.cid then begin
          recovered := true;
          orphaned := rep.Recovery.parked_journaled
        end)
      (Monitor.recover_suspects mon);
    incr guard
  done;
  (* Successor failover: steal the partition, adopt the orphaned rows,
     stamps intact. *)
  ignore (Cxl_kv.takeover_partition hs 0);
  let adopted = Cxl_kv.adopt_recovered hs in
  (* No era-pinned record may have been freed by the crash recovery. *)
  let pinned_freed =
    List.fold_left
      (fun acc (obj, _) -> if peek obj = 0 then acc + 1 else acc)
      0 pinned
  in
  (* Wind down: unpin, let the successor reclaim everything, and judge. *)
  Hazard.exit r;
  Cxl_kv.quiesce hs;
  Cxl_kv.close hr;
  Cxl_kv.close hs;
  Shm.leave r;
  Shm.leave s;
  ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
  let fsck = Fsck.repair svc in
  {
    ka_seed = seed;
    ka_steps = steps;
    ka_writer_cid = w.Ctx.cid;
    ka_writer_crashed = writer_crashed;
    ka_orphaned = !orphaned;
    ka_adopted = adopted;
    ka_pinned = List.length pinned;
    ka_pinned_freed = pinned_freed;
    ka_clean = Fsck.clean fsck;
  }
