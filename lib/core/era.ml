let initial = 1

let cell (ctx : Ctx.t) i j = Layout.era_cell ctx.lay i j
let self ctx = Ctx.load ctx (cell ctx ctx.Ctx.cid ctx.Ctx.cid)
let read ctx ~i ~j = Ctx.load ctx (cell ctx i j)

let observe (ctx : Ctx.t) ~saw_cid ~saw_era =
  let c = cell ctx ctx.cid saw_cid in
  if Ctx.load ctx c < saw_era then Ctx.store ctx c saw_era

let advance_for (ctx : Ctx.t) ~cid =
  let c = cell ctx cid cid in
  Ctx.store ctx c (Ctx.load ctx c + 1);
  ctx.eras <- ctx.eras + 1

let advance (ctx : Ctx.t) = advance_for ctx ~cid:ctx.cid

let observe_for (ctx : Ctx.t) ~cid ~saw_cid ~saw_era =
  let c = cell ctx cid saw_cid in
  if Ctx.load ctx c < saw_era then Ctx.store ctx c saw_era

let self_of ctx ~cid = Ctx.load ctx (cell ctx cid cid)

let max_seen_by_others (ctx : Ctx.t) ~cid =
  let m = (Ctx.cfg ctx).Config.max_clients in
  let best = ref 0 in
  for j = 0 to m - 1 do
    if j <> cid then begin
      let v = Ctx.load ctx (cell ctx j cid) in
      if v > !best then best := v
    end
  done;
  !best

(* The diagonal must stay monotone across reincarnations of the same slot:
   resetting it would let Condition 2 mistake a previous incarnation's
   observed era for a commit of the new one. *)
let init_row (ctx : Ctx.t) =
  let m = (Ctx.cfg ctx).Config.max_clients in
  let prev = Ctx.load ctx (cell ctx ctx.cid ctx.cid) in
  let seen = max_seen_by_others ctx ~cid:ctx.cid in
  for j = 0 to m - 1 do
    Ctx.store ctx (cell ctx ctx.cid j) 0
  done;
  Ctx.store ctx (cell ctx ctx.cid ctx.cid) (max initial (max prev seen + 1))
