(* What one workload run leaves behind, and the metrics computed from it. *)

module Q = Qmodel

type crash = {
  c_name : string;  (** churn action, e.g. "crash-writer" *)
  c_id : int;  (** span request id of the crash event *)
  c_at : int;  (** ps: arrival of the op the crash fired on *)
  mutable c_condemned : int;  (** ps: end of the check_once that condemned it *)
  mutable c_ready : int;  (** ps: replacement ready to serve *)
  mutable c_spans : (string * int * int) list;
}

let new_crash ~name ~id ~at =
  { c_name = name; c_id = id; c_at = at; c_condemned = -1; c_ready = -1; c_spans = [] }

type t = {
  workload : string;
  seed : int;
  q : Q.t;
  cls : Bytes.t;  (** per op: class index into [class_names] *)
  class_names : string array;
  write_class : bool array;
  churn : Bytes.t;  (** per op: '\001' when it arrived inside a churn window *)
  warmup : int;
  slo_p99_ps : int;  (** latency limit on the steady ops' p99 *)
  crashes : crash list;
  recovery : (string * int) list;  (** summed Recovery.report fields *)
  segments_used : int;
  mem_bytes : int;
  space_amp : float;  (** 0 where no key-value data lives *)
  checks : (string * int) list;  (** violations per correctness check *)
  attempted : int;
  failed : int;
  stream_wall_s : float;
  tracer : Tracer.t option;
}

type metric = { name : string; value : float; unit : string; n : int; beyond : int }

let plain name value unit = { name; value; unit; n = -1; beyond = -1 }

let slo_per_mille = 990

let is_churn r op = Bytes.get r.churn op <> '\000'
let is_write r op = r.write_class.(Char.code (Bytes.get r.cls op))

let latencies r ~keep = Q.sorted_latencies r.q ~from:r.warmup ~keep

let pct name sorted ~per_mille =
  let v, beyond = Q.rank_value sorted ~per_mille in
  { name; value = Q.us_of_ps v; unit = "us"; n = Array.length sorted; beyond }

(* ------------------------------------------------------------------ *)
(* SLO rate by replay                                                  *)
(* ------------------------------------------------------------------ *)

(* Guard: the replay at the run's own rate must reproduce it exactly. *)
let check_replay r =
  let arr, fin = Q.replay r.q ~rate:r.q.Q.rate in
  for op = 0 to Q.ops r.q - 1 do
    if fin.(op) - arr.(op) <> Q.live_latency r.q op then
      failwith
        (Printf.sprintf "%s: replay at the nominal rate differs from the live run at op %d"
           r.workload op)
  done

(* A rate passes when the steady recorded ops' p99 stays within the limit
   and the run completes no slower than 98% of the offered rate. *)
let slo_passes r ~rate =
  let arr, fin = Q.replay r.q ~rate in
  let n = Q.ops r.q in
  let steady = ref 0 and over = ref 0 and last_fin = ref 0 in
  for op = r.warmup to n - 1 do
    if fin.(op) > !last_fin then last_fin := fin.(op);
    if not (is_churn r op) then begin
      incr steady;
      if fin.(op) - arr.(op) > r.slo_p99_ps then incr over
    end
  done;
  let rank = max 1 (((slo_per_mille * !steady) + 999) / 1000) in
  let first = arr.(r.warmup) in
  let offered_span = float_of_int (arr.(n - 1) - first) in
  let achieved_span = float_of_int (!last_fin - first) in
  !over <= !steady - rank && offered_span >= 0.98 *. achieved_span

let slo_resolution_mops = 0.001

let slo_rate r =
  let ok rate = slo_passes r ~rate in
  let rec up lo k =
    if k = 0 then (lo, lo)
    else if ok (2.0 *. lo) then up (2.0 *. lo) (k - 1)
    else (lo, 2.0 *. lo)
  in
  let rec down hi k =
    if k = 0 then (0.0, 0.0)
    else if ok (hi /. 2.0) then (hi /. 2.0, hi)
    else down (hi /. 2.0) (k - 1)
  in
  let lo, hi = if ok r.q.Q.rate then up r.q.Q.rate 20 else down r.q.Q.rate 20 in
  let rec bisect lo hi =
    if hi -. lo <= slo_resolution_mops then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if ok mid then bisect mid hi else bisect lo mid
  in
  bisect lo hi

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let median_of ints =
  match ints with
  | [] -> 0
  | _ -> fst (Q.rank_value (Q.sorted_of_list ints) ~per_mille:500)

let recovery_times r = List.map (fun c -> c.c_ready - c.c_at) r.crashes

(* Percentiles that must rest on at least ten samples beyond them. *)
let min_beyond = 10

let end_to_end r ~setup_s =
  check_replay r;
  let all = latencies r ~keep:(fun _ -> true) in
  let writes = latencies r ~keep:(is_write r) in
  let mean = float_of_int (Array.fold_left ( + ) 0 all) /. float_of_int (Array.length all) in
  [
    { name = "mean_us"; value = mean /. 1e6; unit = "us"; n = Array.length all; beyond = -1 };
    pct "p99_us" all ~per_mille:990;
    pct "write_p99_us" writes ~per_mille:990;
    plain "slo_rate_mops" (slo_rate r) "Mops";
    { (plain "recovery_us" (Q.us_of_ps (median_of (recovery_times r))) "us") with
      n = List.length r.crashes };
    plain "mem_mib" (float_of_int r.mem_bytes /. 1048576.0) "MiB";
    plain "setup_s" setup_s "s";
  ]

(* Reported next to the gated metrics. The median is an exact service
   cost on lightly loaded workloads, identical from seed to seed, so the
   gated typical latency is the mean. *)
let extras r =
  let all = latencies r ~keep:(fun _ -> true) in
  let churn = latencies r ~keep:(is_churn r) in
  let churn_w = latencies r ~keep:(fun op -> is_churn r op && is_write r op) in
  let n = Q.ops r.q - r.warmup in
  pct "p50_us" all ~per_mille:500
  :: (if Array.length churn = 0 then []
   else
     [ pct "churn_p99_us" churn ~per_mille:990;
       pct "churn_write_p99_us" churn_w ~per_mille:990 ])
  @ [
      plain "fail_pct" (100.0 *. float_of_int r.failed /. float_of_int (max 1 r.attempted)) "%";
      plain "recorded_ops" (float_of_int n) "count";
      plain "crashes" (float_of_int (List.length r.crashes)) "count";
    ]
  @ if r.space_amp > 0.0 then [ plain "space_amp" r.space_amp "ratio" ] else []

let percentile_violations ms =
  List.length (List.filter (fun m -> m.n >= 0 && m.beyond >= 0 && m.beyond < min_beyond) ms)

(* Queue waits and utilisation per role, over the recorded window. *)
let queue_metrics r =
  let q = r.q in
  let m = Q.Vec.length q.Q.i_fin in
  let counted id =
    let at = Q.Vec.get q.Q.i_at id in
    at < 0 || at >= r.warmup
  in
  let sizes = Array.make 5 0 in
  for id = 0 to m - 1 do
    if counted id then begin
      let k = Q.role_index (Q.item_role q id) in
      sizes.(k) <- sizes.(k) + 1
    end
  done;
  let waits = Array.map (fun n -> Array.make n 0) sizes and fill = Array.make 5 0 in
  let busy = Array.make 5 0 and t_end = ref 0 in
  for id = 0 to m - 1 do
    let fin = Q.item_fin q id in
    if fin > !t_end then t_end := fin;
    if counted id then begin
      let k = Q.role_index (Q.item_role q id) in
      waits.(k).(fill.(k)) <- Q.item_start q id - Q.item_ready q id;
      fill.(k) <- fill.(k) + 1;
      busy.(k) <- busy.(k) + Q.Vec.get q.Q.i_svc id
    end
  done;
  Array.iter (Array.sort Int.compare) waits;
  let span = float_of_int (!t_end - Q.arrival q r.warmup) in
  List.concat_map
    (fun role ->
      let k = Q.role_index role in
      let servers = ref 0 in
      for s = 0 to q.Q.nsrv - 1 do
        if q.Q.srv_role.(s) = role then incr servers
      done;
      let w = waits.(k) in
      let nw = Array.length w in
      let mean =
        if nw = 0 then 0.0
        else float_of_int (Array.fold_left ( + ) 0 w) /. float_of_int nw /. 1000.0
      in
      let p = "queue." ^ Q.role_name role in
      [
        plain (p ^ ".wait_ns_mean") mean "ns";
        plain (p ^ ".wait_ns_p99") (float_of_int (fst (Q.rank_value w ~per_mille:990)) /. 1000.0) "ns";
        plain (p ^ ".busy_frac")
          (if !servers = 0 || span <= 0.0 then 0.0
           else float_of_int busy.(k) /. (float_of_int !servers *. span))
          "ratio";
      ])
    Q.roles

(* [untraced_wall_s]: the stream's wall time in the untraced run. *)
let per_layer r ~untraced_wall_s =
  let tr = match r.tracer with Some t -> t | None -> invalid_arg "per_layer: untraced run" in
  let n = Q.ops r.q - r.warmup in
  let lags =
    List.filter_map
      (fun c -> if c.c_condemned >= 0 then Some (c.c_condemned - c.c_at) else None)
      r.crashes
  in
  let churn = latencies r ~keep:(is_churn r) in
  let churn_w = latencies r ~keep:(fun op -> is_churn r op && is_write r op) in
  let p99 s = Q.us_of_ps (fst (Q.rank_value s ~per_mille:990)) in
  List.map (fun (name, value, unit) -> plain name value unit) (Tracer.metrics tr ~ops:n)
  @ queue_metrics r
  @ [ plain "recovery.detect_lag_us" (Q.us_of_ps (median_of lags)) "us" ]
  @ List.map (fun (k, v) -> plain ("recovery." ^ k) (float_of_int v) "count") r.recovery
  @ [
      plain "core.segments_used" (float_of_int r.segments_used) "count";
      plain "space.amp" r.space_amp "ratio";
      plain "churn.p99_us" (p99 churn) "us";
      plain "churn.write_p99_us" (p99 churn_w) "us";
      plain "sim.wall_ns_per_op" (untraced_wall_s *. 1e9 /. float_of_int (Q.ops r.q)) "ns";
      plain "trace.overhead_pct"
        (100.0 *. (r.stream_wall_s -. untraced_wall_s) /. untraced_wall_s) "%";
    ]

(* Every modeled quantity of a run, for the bit-for-bit comparisons. *)
let modeled_fingerprint r =
  let q = r.q in
  let b = Buffer.create 4096 in
  for op = 0 to Q.ops q - 1 do
    Buffer.add_string b (string_of_int (Q.live_latency q op));
    Buffer.add_char b (if is_churn r op then '*' else ',')
  done;
  List.iter (fun c -> Printf.bprintf b "|%d/%d/%d" c.c_at c.c_condemned c.c_ready) r.crashes;
  Printf.bprintf b "|%d" r.mem_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))
