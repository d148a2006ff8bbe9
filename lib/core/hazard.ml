let epoch_addr (ctx : Ctx.t) = Layout.hdr_epoch ctx.Ctx.lay
let slot (ctx : Ctx.t) cid = Layout.client_hazard ctx.Ctx.lay cid

let enter (ctx : Ctx.t) =
  let e = Ctx.load ctx (epoch_addr ctx) in
  Ctx.store ctx (slot ctx ctx.Ctx.cid) e;
  (* the announcement must be visible before the traversal's loads *)
  Ctx.fence ctx

let exit (ctx : Ctx.t) = Ctx.store ctx (slot ctx ctx.Ctx.cid) 0

let with_protection ctx f =
  enter ctx;
  Fun.protect ~finally:(fun () -> exit ctx) f

let retire_epoch (ctx : Ctx.t) = Ctx.load ctx (epoch_addr ctx)
let advance (ctx : Ctx.t) = ignore (Ctx.fetch_add ctx (epoch_addr ctx) 1)

let min_announced (ctx : Ctx.t) =
  let m = (Ctx.cfg ctx).Config.max_clients in
  let best = ref max_int in
  for cid = 0 to m - 1 do
    (* announcements from non-alive slots are stale by definition: a dead
       reader must not stall reclamation (§3.2's non-blocking guarantee).
       A Suspected reader is still alive — its suspicion may be a
       false positive it cancels on the next heartbeat — so its hazard
       still pins blocks; only a condemned (Failed) reader is fenced. *)
    if Client.alive_flags (Ctx.load ctx (Layout.client_flags ctx.Ctx.lay cid))
    then begin
      let a = Ctx.load ctx (slot ctx cid) in
      if a <> 0 && a < !best then best := a
    end
  done;
  !best

let announced (ctx : Ctx.t) ~cid = Ctx.load ctx (slot ctx cid)
