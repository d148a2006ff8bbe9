(* Open-loop queue model on the modeled clock.

   Every simulated server (a KV reader or writer slot, an RPC client or
   server, the monitor) has a busy horizon. Work is logged as items: an item
   runs on one server, becomes ready at max(its arrival, the finish of the
   item it depends on), starts at max(ready, horizon) and finishes after its
   probed service time. Times are integer picoseconds, so an op's latency is
   exactly the sum of its items' waits and service times.

   The item log does not depend on arrival times (everything periodic fires
   by arrival count), so it can be replayed against the arrival schedule of
   another rate. *)

type role = Reader | Writer | Rpc_client | Rpc_server | Monitor

let roles = [ Reader; Writer; Rpc_client; Rpc_server; Monitor ]

let role_name = function
  | Reader -> "reader"
  | Writer -> "writer"
  | Rpc_client -> "rpc_client"
  | Rpc_server -> "rpc_server"
  | Monitor -> "monitor"

let role_index = function
  | Reader -> 0
  | Writer -> 1
  | Rpc_client -> 2
  | Rpc_server -> 3
  | Monitor -> 4

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let length v = v.n
end

module Load_gen = Cxlshm_serve.Load_gen

let ps_of_ns ns = Float.to_int (Float.round (ns *. 1000.0))
let us_of_ps ps = float_of_int ps /. 1e6

type t = {
  rate : float;
  seed : int;
  tick_every : int;
      (** after the last op the generator keeps drawing arrivals that carry
          no request; tail tick k falls on the (k * tick_every)-th of them *)
  lg : Load_gen.t;
  arr : Vec.t;  (** op arrival, ps *)
  tail : Vec.t;  (** arrivals after the last op, ps *)
  mutable horizon : int array;
  mutable srv_role : role array;
  mutable nsrv : int;
  (* item log *)
  i_srv : Vec.t;
  i_at : Vec.t;  (** op index, or -k for tail tick k *)
  i_dep : Vec.t;  (** item this one waits for, or -1 *)
  i_op : Vec.t;  (** 2 * op (+1 on the op's completing item), or -1 *)
  i_svc : Vec.t;
  i_fin : Vec.t;  (** live schedule *)
  (* per op, live *)
  op_wait : Vec.t;
  op_svc : Vec.t;
  op_fin : Vec.t;
  (* replay buffers, reused across rates *)
  mutable r_arr : int array;
  mutable r_fin : int array;
  mutable r_op_fin : int array;
}

let create ~rate ~seed ~tick_every ~ops ~items_hint =
  {
    rate;
    seed;
    tick_every;
    lg = Load_gen.create ~rate_mops:rate ~seed;
    arr = Vec.create ops;
    tail = Vec.create 1024;
    horizon = Array.make 16 0;
    srv_role = Array.make 16 Monitor;
    nsrv = 0;
    i_srv = Vec.create items_hint;
    i_at = Vec.create items_hint;
    i_dep = Vec.create items_hint;
    i_op = Vec.create items_hint;
    i_svc = Vec.create items_hint;
    i_fin = Vec.create items_hint;
    op_wait = Vec.create ops;
    op_svc = Vec.create ops;
    op_fin = Vec.create ops;
    r_arr = [||];
    r_fin = [||];
    r_op_fin = [||];
  }

let add_server t role =
  if t.nsrv = Array.length t.horizon then begin
    t.horizon <- Array.append t.horizon (Array.make t.nsrv 0);
    t.srv_role <- Array.append t.srv_role (Array.make t.nsrv Monitor)
  end;
  t.srv_role.(t.nsrv) <- role;
  t.nsrv <- t.nsrv + 1;
  t.nsrv - 1

let ops t = Vec.length t.arr
let draw t = ps_of_ns (Load_gen.next_arrival t.lg)

(* Draw the next op's arrival; returns its index. *)
let arrive t =
  Vec.push t.arr (draw t);
  Vec.push t.op_wait 0;
  Vec.push t.op_svc 0;
  Vec.push t.op_fin 0;
  Vec.length t.arr - 1

let live_time t at =
  if at >= 0 then Vec.get t.arr at
  else begin
    let i = (-at * t.tick_every) - 1 in
    while Vec.length t.tail <= i do
      Vec.push t.tail (draw t)
    done;
    Vec.get t.tail i
  end

let arrival t op = Vec.get t.arr op
let item_start t id = Vec.get t.i_fin id - Vec.get t.i_svc id
let item_fin t id = Vec.get t.i_fin id
let item_role t id = t.srv_role.(Vec.get t.i_srv id)

let item_ready t id =
  let a = live_time t (Vec.get t.i_at id) in
  let dep = Vec.get t.i_dep id in
  if dep < 0 then a else max a (Vec.get t.i_fin dep)

(* Charge [svc_ns] of work on server [srv]; returns the item id. [op] ties
   the item to a request, [last] marks the request's completing item. *)
let charge t ~srv ~at ?(dep = -1) ?(op = -1) ?(last = false) svc_ns =
  let svc = ps_of_ns svc_ns in
  let a = live_time t at in
  let ready = if dep < 0 then a else max a (Vec.get t.i_fin dep) in
  let start = max ready t.horizon.(srv) in
  let fin = start + svc in
  t.horizon.(srv) <- fin;
  Vec.push t.i_srv srv;
  Vec.push t.i_at at;
  Vec.push t.i_dep dep;
  Vec.push t.i_op (if op < 0 then -1 else (2 * op) + if last then 1 else 0);
  Vec.push t.i_svc svc;
  Vec.push t.i_fin fin;
  if op >= 0 then begin
    Vec.set t.op_wait op (Vec.get t.op_wait op + (start - ready));
    Vec.set t.op_svc op (Vec.get t.op_svc op + svc);
    if last then Vec.set t.op_fin op fin
  end;
  Vec.length t.i_fin - 1

let live_latency t op = Vec.get t.op_fin op - Vec.get t.arr op

(* Re-run the item log against the arrivals of [rate]; returns the arrival
   schedule used and each op's completion time. Both arrays are reused by
   the next replay. *)
let replay t ~rate =
  let n = ops t and m = Vec.length t.i_fin in
  let drawn = n + Vec.length t.tail in
  if Array.length t.r_arr <> drawn then begin
    t.r_arr <- Array.make drawn 0;
    t.r_op_fin <- Array.make n 0
  end;
  if Array.length t.r_fin <> m then t.r_fin <- Array.make m 0;
  let arr = t.r_arr and fin = t.r_fin and op_fin = t.r_op_fin in
  let lg = Load_gen.create ~rate_mops:rate ~seed:t.seed in
  for i = 0 to drawn - 1 do
    arr.(i) <- ps_of_ns (Load_gen.next_arrival lg)
  done;
  let horizon = Array.make t.nsrv 0 in
  for id = 0 to m - 1 do
    let at = Vec.get t.i_at id in
    let a = if at >= 0 then arr.(at) else arr.(n - 1 + (-at * t.tick_every)) in
    let dep = Vec.get t.i_dep id in
    let ready = if dep < 0 then a else max a fin.(dep) in
    let srv = Vec.get t.i_srv id in
    let f = max ready horizon.(srv) + Vec.get t.i_svc id in
    horizon.(srv) <- f;
    fin.(id) <- f;
    let op = Vec.get t.i_op id in
    if op >= 0 && op land 1 = 1 then op_fin.(op lsr 1) <- f
  done;
  (arr, op_fin)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile of a sorted array, [per_mille] in (0, 1000];
   returns the value and how many samples lie beyond it. *)
let rank_value sorted ~per_mille =
  let n = Array.length sorted in
  if n = 0 then (0, 0)
  else
    let r = max 1 (((per_mille * n) + 999) / 1000) in
    (sorted.(r - 1), n - r)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Int.compare a;
  a

(* Sorted live latencies of the ops in [from, ops) that [keep] selects. *)
let sorted_latencies t ~from ~keep =
  let n = ops t in
  let count = ref 0 in
  for op = from to n - 1 do
    if keep op then incr count
  done;
  let a = Array.make !count 0 and k = ref 0 in
  for op = from to n - 1 do
    if keep op then begin
      a.(!k) <- live_latency t op;
      incr k
    end
  done;
  Array.sort Int.compare a;
  a
