(* Log-bucketed latency histograms keyed by operation class.

   The observability layer measures each core operation's modeled
   nanoseconds (a span opens, the op runs, the span closes with the
   Stats delta priced by the Latency model) and records the duration
   here. Buckets double — bucket 0 holds sub-nanosecond durations,
   bucket i >= 1 holds [2^(i-1), 2^i) ns — so a 64-bucket array spans
   everything the simulator can produce while keeping record() to an
   increment. Quantiles interpolate linearly inside the winning bucket
   and are clamped to the observed min/max, so p50/p95/p99 are exact to
   within one bucket's width. *)

(* ------------------------------------------------------------------ *)
(* Operation classes                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Alloc_small
  | Alloc_huge
  | Rootref
  | Refc_attach
  | Refc_detach
  | Transfer_send
  | Transfer_recv
  | Recovery_scan

let num_ops = 8

let op_index = function
  | Alloc_small -> 0
  | Alloc_huge -> 1
  | Rootref -> 2
  | Refc_attach -> 3
  | Refc_detach -> 4
  | Transfer_send -> 5
  | Transfer_recv -> 6
  | Recovery_scan -> 7

let all_ops =
  [
    Alloc_small;
    Alloc_huge;
    Rootref;
    Refc_attach;
    Refc_detach;
    Transfer_send;
    Transfer_recv;
    Recovery_scan;
  ]

let op_of_index i =
  if i < 0 || i >= num_ops then invalid_arg "Histogram.op_of_index";
  List.nth all_ops i

let op_name = function
  | Alloc_small -> "alloc_small"
  | Alloc_huge -> "alloc_huge"
  | Rootref -> "rootref"
  | Refc_attach -> "refc_attach"
  | Refc_detach -> "refc_detach"
  | Transfer_send -> "transfer_send"
  | Transfer_recv -> "transfer_recv"
  | Recovery_scan -> "recovery_scan"

let op_of_name n = List.find_opt (fun o -> op_name o = n) all_ops

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let num_buckets = 64

type t = {
  mutable count : int;
  mutable sum_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
  buckets : int array;
}

let create () =
  {
    count = 0;
    sum_ns = 0.;
    min_ns = infinity;
    max_ns = 0.;
    buckets = Array.make num_buckets 0;
  }


let bucket_of_ns ns =
  if ns < 1. then 0
  else
    let rec log2 i v = if v < 2. then i else log2 (i + 1) (v /. 2.) in
    min (num_buckets - 1) (1 + log2 0 ns)

(* bucket 0 = [0, 1); bucket i = [2^(i-1), 2^i) *)
let bucket_lo i = if i = 0 then 0. else Float.of_int (1 lsl (i - 1))
let bucket_hi i = Float.of_int (1 lsl i)

let record t ns =
  let ns = Float.max ns 0. in
  t.count <- t.count + 1;
  t.sum_ns <- t.sum_ns +. ns;
  if ns < t.min_ns then t.min_ns <- ns;
  if ns > t.max_ns then t.max_ns <- ns;
  let b = t.buckets.(bucket_of_ns ns) in
  t.buckets.(bucket_of_ns ns) <- b + 1

let count t = t.count
let sum_ns t = t.sum_ns
let min_ns t = if t.count = 0 then 0. else t.min_ns
let max_ns t = t.max_ns
let mean_ns t = if t.count = 0 then 0. else t.sum_ns /. float_of_int t.count

let merge ~into t =
  into.count <- into.count + t.count;
  into.sum_ns <- into.sum_ns +. t.sum_ns;
  if t.count > 0 then begin
    if t.min_ns < into.min_ns then into.min_ns <- t.min_ns;
    if t.max_ns > into.max_ns then into.max_ns <- t.max_ns
  end;
  for i = 0 to num_buckets - 1 do
    into.buckets.(i) <- into.buckets.(i) + t.buckets.(i)
  done

let percentile t q =
  if q < 0. || q > 1. then invalid_arg "Histogram.percentile";
  if t.count = 0 then 0.
  else begin
    (* rank of the q-th observation, 1-based, at least 1 *)
    let target = Float.max 1. (Float.of_int t.count *. q) in
    let rec walk i cum =
      if i >= num_buckets then t.max_ns
      else
        let n = t.buckets.(i) in
        if Float.of_int (cum + n) >= target && n > 0 then begin
          let lo = Float.max (bucket_lo i) t.min_ns in
          let hi = Float.min (bucket_hi i) t.max_ns in
          let frac = (target -. Float.of_int cum) /. Float.of_int n in
          Float.min t.max_ns (Float.max t.min_ns (lo +. ((hi -. lo) *. frac)))
        end
        else walk (i + 1) (cum + n)
    in
    walk 0 0
  end

let p50 t = percentile t 0.50
let p95 t = percentile t 0.95
let p99 t = percentile t 0.99

(* One histogram per op class, indexed by [op_index]. *)
let create_set () = Array.init num_ops (fun _ -> create ())
