(* The four workloads and how one of them is set up and run. Op counts are
   for a 10-second run and scale with [--seconds]. *)

module Ycsb = Cxlshm_kv.Ycsb

type kind = Kv of Kv_work.spec | Rpc of Rpc_work.spec

let names = [ "kv-read"; "kv-write"; "kv-churn"; "rpc-fanin" ]
let base_seconds = 10.0

(* Nominal offered rates (Mops): about 70% of each workload's slo_rate_mops
   at seed 42, fixed once. kv-churn runs at the serve harness's rate. *)
let kv_read_rate = 2.47
let kv_write_rate = 1.16
let kv_churn_rate = 2.0
let rpc_fanin_rate = 0.34

(* Every 25,000 ops a writer crashes 5,000 ops in and a reader 15,000 ops
   in; one writer leaves at 52% of the run and a reader joins at 72%. *)
let churn_schedule ops =
  let crashes =
    List.concat
      (List.init (ops / 25_000) (fun b ->
           [ ((b * 25_000) + 5_000, Kv_work.Crash_writer);
             ((b * 25_000) + 15_000, Kv_work.Crash_reader) ]))
  in
  List.stable_sort
    (fun (a, _) (b, _) -> compare a b)
    (((ops * 52 / 100), Kv_work.Leave_writer) :: ((ops * 72 / 100), Kv_work.Join_reader)
    :: crashes)

let kind ?(scale = 1.0) name =
  let n base = max 1_000 (int_of_float (Float.round (float_of_int base *. scale))) in
  match name with
  | "kv-read" ->
      Kv
        { Kv_work.keys = 1_000_000; readers = 2; ops = n 1_000_000; rate = kv_read_rate;
          mix = { Ycsb.read = 0.95; update = 0.05; insert = 0.0; rmw = 0.0 }; churn = [] }
  | "kv-write" ->
      Kv
        { Kv_work.keys = 4_096; readers = 2; ops = n 1_000_000; rate = kv_write_rate;
          mix = { Ycsb.read = 0.5; update = 0.5; insert = 0.0; rmw = 0.0 }; churn = [] }
  | "kv-churn" ->
      let ops = n 1_000_000 in
      Kv
        { Kv_work.keys = 100_000; readers = 3; ops; rate = kv_churn_rate;
          mix = { Ycsb.read = 0.80; update = 0.15; insert = 0.03; rmw = 0.02 };
          churn = churn_schedule ops }
  | "rpc-fanin" -> Rpc { Rpc_work.calls = n 200_000; rate = rpc_fanin_rate }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Set up [setups] times, and then on until [setup_budget_s] of set-up has
   been timed (50 at most), timing each; serve on the last arena. Small
   set-ups take milliseconds, so their median needs many samples. *)
let execute ?(setup_budget_s = 0.0) kind ~name ~seed ~setups ~traced =
  let timed_setup f =
    Gc.full_major ();
    let t0 = Sys.time () in
    let su = f () in
    (su, Sys.time () -. t0)
  in
  let rec repeat f times =
    let su, t = timed_setup f in
    let times = t :: times in
    let n = List.length times in
    if n >= setups && (n >= 50 || List.fold_left ( +. ) 0.0 times >= setup_budget_s) then
      (su, List.rev times)
    else repeat f times
  in
  let tracer =
    if traced then Some (Tracer.create (Cxlshm_shmem.Latency.of_tier Cxlshm_shmem.Latency.Cxl))
    else None
  in
  let r, times =
    match kind with
    | Kv spec ->
        let su, times = repeat (fun () -> Kv_work.setup spec ~seed) [] in
        (Kv_work.run spec ~seed ~tracer su, times)
    | Rpc spec ->
        let su, times = repeat Rpc_work.setup [] in
        (Rpc_work.run spec ~seed ~tracer su, times)
  in
  ({ r with Run.workload = name }, times)
