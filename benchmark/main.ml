(* Benchmark entry point. See README.md for the workloads and metrics.

   main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
            [--out-dir DIR]
   main.exe compare A.json... -- B.json... *)

open Cxlbench

let usage =
  "usage: main.exe [--workload kv-read|kv-write|kv-churn|rpc-fanin|all] [--seed N] \
   [--seconds S] [--trace 0|1] [--out-dir DIR]\n\
  \       main.exe compare A.json... -- B.json..."

let setups = 3
let setup_budget_s = 1.0

type opts = { workload : string; seed : int; seconds : float; trace : bool; out_dir : string }

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_of_string v } rest
    | "--seconds" :: v :: rest ->
        let s = float_of_string v in
        if s <= 0.0 then invalid_arg "--seconds must be positive";
        go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--out-dir" :: v :: rest -> go { o with out_dir = v } rest
    | a :: _ -> invalid_arg ("unexpected argument " ^ a)
  in
  let o =
    go
      { workload = "all"; seed = 42; seconds = Workloads.base_seconds; trace = false;
        out_dir = Filename.concat "benchmark" "results" }
      args
  in
  if o.workload <> "all" && not (List.mem o.workload Workloads.names) then
    invalid_arg ("unknown workload " ^ o.workload);
  o

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let print_checks name checks =
  List.iter (fun (k, v) -> Printf.printf "%-10s check %-30s %d\n" name k v) checks

(* Untraced: the gated end-to-end metrics. *)
let untraced o name kind =
  let r, times =
    Workloads.execute kind ~name ~seed:o.seed ~setups ~setup_budget_s ~traced:false
  in
  let e2e = Run.end_to_end r ~setup_s:(Report.median times) in
  let extras = Run.extras r in
  let checks = r.Run.checks @ [ ("thin_percentiles", Run.percentile_violations (e2e @ extras)) ] in
  let correct = List.for_all (fun (_, v) -> v = 0) checks && r.Run.failed = 0 in
  List.iter (Report.print_metric name) (e2e @ extras);
  print_checks name checks;
  Report.write_result
    (Filename.concat o.out_dir (Printf.sprintf "%s.seed%d.json" name o.seed))
    ~workload:name ~seed:o.seed ~seconds:o.seconds ~traced:false ~correct
    ~attempted:r.Run.attempted ~failed:r.Run.failed ~checks ~e2e ~extras ~layers:[];
  (correct, r.Run.attempted, r.Run.failed, e2e)

(* Traced: the same run again with spans; its modeled metrics must equal
   the untraced run's bit for bit. *)
let traced o name kind =
  let baseline () =
    let u, _ = Workloads.execute kind ~name ~seed:o.seed ~setups:1 ~traced:false in
    (Run.end_to_end u ~setup_s:0.0, Run.modeled_fingerprint u, u.Run.stream_wall_s)
  in
  let e2e_u, fp_u, wall_u = baseline () in
  let t, times = Workloads.execute kind ~name ~seed:o.seed ~setups:1 ~traced:true in
  let e2e = Run.end_to_end t ~setup_s:(Report.median times) in
  let same =
    fp_u = Run.modeled_fingerprint t
    && List.for_all2
         (fun (a : Run.metric) (b : Run.metric) -> a.Run.name = "setup_s" || a.Run.value = b.Run.value)
         e2e_u e2e
  in
  let layers = Run.per_layer t ~untraced_wall_s:wall_u in
  let extras = Run.extras t in
  let checks =
    t.Run.checks
    @ [ ("thin_percentiles", Run.percentile_violations (e2e @ extras));
        ("traced_differs", if same then 0 else 1) ]
  in
  let correct = List.for_all (fun (_, v) -> v = 0) checks && t.Run.failed = 0 in
  List.iter (Report.print_metric name) (e2e @ extras @ layers);
  print_checks name checks;
  Option.iter
    (fun tr -> Tracer.write_spans tr (Filename.concat o.out_dir (name ^ ".spans.json")))
    t.Run.tracer;
  Report.write_result
    (Filename.concat o.out_dir (Printf.sprintf "%s.seed%d.json" name o.seed))
    ~workload:name ~seed:o.seed ~seconds:o.seconds ~traced:true ~correct
    ~attempted:t.Run.attempted ~failed:t.Run.failed ~checks ~e2e ~extras ~layers;
  (correct, t.Run.attempted, t.Run.failed, layers)

let bench o =
  mkdir_p o.out_dir;
  let names = if o.workload = "all" then Workloads.names else [ o.workload ] in
  let results =
    List.map
      (fun name ->
        let kind = Workloads.kind ~scale:(o.seconds /. Workloads.base_seconds) name in
        let correct, attempted, failed, ms =
          if o.trace then traced o name kind else untraced o name kind
        in
        let ms =
          if o.workload = "all" then
            List.map (fun (m : Run.metric) -> { m with Run.name = name ^ "." ^ m.Run.name }) ms
          else ms
        in
        (correct, attempted, failed, ms))
      names
  in
  let correct = List.for_all (fun (c, _, _, _) -> c) results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  print_endline
    (Report.result_line ~correct
       ~attempted:(sum (fun (_, a, _, _) -> a))
       ~failed:(sum (fun (_, _, f, _) -> f))
       (List.concat_map (fun (_, _, _, ms) -> ms) results));
  if correct then 0 else 1

let compare args =
  let rec split a = function
    | "--" :: b -> (List.rev a, b)
    | x :: rest -> split (x :: a) rest
    | [] -> invalid_arg "compare needs A.json... -- B.json..."
  in
  let a, b = split [] args in
  if a = [] || b = [] then invalid_arg "compare needs files on both sides of --";
  Report.compare_files a b

let () =
  (* the large runs keep ~300 MB live; collect more eagerly than default *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    try
      match args with
      | "compare" :: rest -> compare rest
      | _ -> bench (parse args)
    with
    | Invalid_argument m | Failure m ->
        prerr_endline ("benchmark: " ^ m);
        prerr_endline usage;
        2
  in
  exit code
