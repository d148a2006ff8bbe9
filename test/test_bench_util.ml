(* Benchmark utilities: table rendering, runner accounting, workload op
   counting, and the bench record schema with its gate. *)

module Stats = Cxlshm_shmem.Stats
module Latency = Cxlshm_shmem.Latency
module Runner = Cxlshm_bench_util.Runner
module Table = Cxlshm_bench_util.Table
module Workloads = Cxlshm_bench_util.Workloads
module Record = Cxlshm_bench_util.Record

let test_table_rendering () =
  let t = Table.create ~title:"demo" ~columns:[ "A"; "Blong"; "C" ] in
  Table.add_row t [ "1"; "2"; "3" ];
  Table.add_row t [ "wide-cell"; "x"; "y" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 8 = "== demo ");
  (* all rows render with the same width per column: every line of the
     body has the same length *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' s) |> List.tl
  in
  let lens = List.map String.length lines in
  List.iter
    (fun l -> Alcotest.(check int) "aligned" (List.hd lens) l)
    (List.tl lens)

let test_cell_formatting () =
  Alcotest.(check string) "integral" "43" (Table.cell_f 43.0);
  Alcotest.(check string) "big" "117.2" (Table.cell_f 117.2);
  Alcotest.(check string) "small" "0.0310" (Table.cell_f 0.031);
  Alcotest.(check string) "unit" "3.14" (Table.cell_f 3.14)

let test_runner_modeled_max () =
  (* two threads with unequal work: modeled time = the slower one *)
  let stats = [| Stats.create (); Stats.create () |] in
  let model = Latency.of_tier Latency.Cxl in
  let r =
    Runner.run_parallel ~threads:2 ~ops_per_thread:10 ~model
      (fun tid -> stats.(tid))
      (fun tid ->
        stats.(tid).Stats.rand_accesses <- (if tid = 0 then 100 else 10))
  in
  Alcotest.(check (float 1.0)) "max of threads" (100.0 *. model.Latency.rand_ns)
    r.Runner.modeled_ns;
  Alcotest.(check int) "total ops" 20 r.Runner.ops

let test_runner_serial_adds () =
  let stats = [| Stats.create () |] in
  let serial = Stats.create () in
  serial.Stats.rand_accesses <- 50;
  let model = Latency.of_tier Latency.Local_numa in
  let r =
    Runner.run_parallel ~threads:1 ~ops_per_thread:1 ~model
      ~serial:(fun () -> serial)
      (fun _ -> stats.(0))
      (fun _ -> stats.(0).Stats.rand_accesses <- 10)
  in
  Alcotest.(check (float 1.0)) "parallel + serial"
    (60.0 *. model.Latency.rand_ns) r.Runner.modeled_ns

let test_workload_counts () =
  (* the ops the accounting claims must equal the alloc+free calls made *)
  let allocs = ref 0 and frees = ref 0 in
  Workloads.threadtest
    ~alloc:(fun _ -> incr allocs)
    ~free:(fun () -> incr frees)
    ~write:(fun () -> ())
    ~rounds:7 ~batch:13;
  Alcotest.(check int) "threadtest ops" (Workloads.threadtest_ops ~rounds:7 ~batch:13)
    (!allocs + !frees);
  Alcotest.(check int) "balanced" !allocs !frees;
  let allocs = ref 0 and frees = ref 0 in
  Workloads.shbench
    ~alloc:(fun s ->
      Alcotest.(check bool) "size in range" true (s >= 64 && s <= 400);
      incr allocs)
    ~free:(fun () -> incr frees)
    ~write:(fun () -> ())
    ~seed:3 ~ops:500;
  Alcotest.(check int) "shbench allocs" 500 !allocs;
  Alcotest.(check int) "shbench frees everything" !allocs !frees

(* The gate: each must-fail case below is named after the check it
   replaces in the inline scripts the gate superseded. *)

let rec_ = Record.make ~experiment:"t"

let test_record_round_trip () =
  let rs =
    [
      rec_ "a.words_per_op" ~unit:"words/op" Lower ~budget_pct:5. 45.;
      rec_ "b.ns" ~unit:"ns" Equal ~decimals:2 ~budget_pct:5. 248.8649;
      rec_ "c.kops" ~unit:"KOPS" Higher ~decimals:2 ~bound:0.95 1325.955;
      rec_ "d.fences" ~unit:"fences/op" Lower ~bound:0.125 0.0625;
      rec_ "e.flag" ~unit:"bool" Higher ~decimals:0 ~bound:1.
        (Record.of_bool true);
      rec_ "f.count" ~unit:"count" Equal ~decimals:0 26029.;
    ]
  in
  Alcotest.(check bool) "read back equal" true
    (Record.of_string (Record.to_string rs) = rs);
  (* rounding follows printf, ties to even at the printed precision *)
  Alcotest.(check (float 0.)) "printf rounding" 0.062
    (List.nth rs 3).Record.value

let all_ok = List.for_all (fun (c : Record.check) -> c.ok)

(* [fails ?baseline fresh metric]: the gate fails, and the failing line is
   the one naming [metric]. *)
let fails ?baseline fresh metric =
  let checks = Record.gate ?baseline fresh in
  Alcotest.(check bool) "gate fails" false (all_ok checks);
  Alcotest.(check (list string)) "failing metric" [ metric ]
    (List.filter_map
       (fun (c : Record.check) -> if c.ok then None else Some c.metric)
       checks)

let passes ?baseline fresh =
  Alcotest.(check bool) "gate passes" true
    (all_ok (Record.gate ?baseline fresh))

let test_pct_above_budget () =
  let w v = [ rec_ "alloc.cache_on.words_per_op" ~unit:"w" Lower ~budget_pct:5. v ] in
  passes ~baseline:(w 40.) (w 42.);
  fails ~baseline:(w 40.) (w 42.1) "alloc.cache_on.words_per_op";
  (* budget 0: [n["flushes_per_call"] > b["flushes_per_call"]] *)
  let f v = [ rec_ "payload.64.flushes_per_call" ~unit:"f" Lower ~budget_pct:0. v ] in
  passes ~baseline:(f 0.367) (f 0.367);
  fails ~baseline:(f 0.367) (f 0.368) "payload.64.flushes_per_call"

let test_kops_drop_past_budget () =
  let k v = [ rec_ "fanin.8.cxl_kops" ~unit:"KOPS" Higher ~budget_pct:5. v ] in
  passes ~baseline:(k 1000.) (k 950.);
  fails ~baseline:(k 1000.) (k 949.) "fanin.8.cxl_kops"

let test_abs_pct_rise () =
  let l v = [ rec_ "limbo.ns_per_update" ~unit:"ns" Equal ~budget_pct:5. v ] in
  passes ~baseline:(l 200.) (l 210.);
  fails ~baseline:(l 200.) (l 210.5) "limbo.ns_per_update"

let test_abs_pct_drop () =
  let l v = [ rec_ "retire.ns_per_drop" ~unit:"ns" Equal ~budget_pct:5. v ] in
  passes ~baseline:(l 200.) (l 190.);
  fails ~baseline:(l 200.) (l 189.5) "retire.ns_per_drop"

let test_modeled_ns_ceiling () =
  let a v =
    [ rec_ "alloc.epoch_on.modeled_ns_per_op" ~unit:"ns/op" Lower ~bound:150. v ]
  in
  passes (a 150.);
  fails (a 150.01) "alloc.epoch_on.modeled_ns_per_op"

let test_reduction_floor () =
  let r v = [ rec_ "alloc.words_reduction_pct" ~unit:"%" Higher ~bound:25. v ] in
  passes (r 25.);
  fails (r 24.9) "alloc.words_reduction_pct"

let test_not_widens () =
  let w b =
    [
      rec_ "speedup_widens_with_size" ~unit:"bool" Higher ~decimals:0 ~bound:1.
        (Record.of_bool b);
    ]
  in
  passes (w true);
  fails (w false) "speedup_widens_with_size"

let test_baseline_row_missing () =
  let a = rec_ "payload.64.cxl_ns_per_call" ~unit:"ns" Lower ~budget_pct:5. 900. in
  let b = rec_ "payload.1024.rdma_ns_per_call" ~unit:"ns" Lower 9000. in
  passes ~baseline:[ a; b ] [ a; b ];
  fails ~baseline:[ a; b ] [ a ] "payload.1024.rdma_ns_per_call"

let test_lower_shrink_passes () =
  let h v = [ rec_ "handle.accesses_per_word" ~unit:"a" Lower ~budget_pct:0. v ] in
  passes ~baseline:(h 2.) (h 1.5)

let suite =
  [
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "cell formatting" `Quick test_cell_formatting;
    Alcotest.test_case "runner modeled max" `Quick test_runner_modeled_max;
    Alcotest.test_case "runner serial adds" `Quick test_runner_serial_adds;
    Alcotest.test_case "workload op counts" `Quick test_workload_counts;
    Alcotest.test_case "record round trip" `Quick test_record_round_trip;
    Alcotest.test_case "gate: pct > 5.0" `Quick test_pct_above_budget;
    Alcotest.test_case "gate: fan-in pct > 5.0" `Quick test_kops_drop_past_budget;
    Alcotest.test_case "gate: abs(pct) > 5.0, rise" `Quick test_abs_pct_rise;
    Alcotest.test_case "gate: abs(pct) > 5.0, drop" `Quick test_abs_pct_drop;
    Alcotest.test_case "gate: modeled_ns_per_op > 150" `Quick test_modeled_ns_ceiling;
    Alcotest.test_case "gate: words_reduction_pct < 25" `Quick test_reduction_floor;
    Alcotest.test_case "gate: not speedup_widens_with_size" `Quick test_not_widens;
    Alcotest.test_case "gate: assert b[bytes] == n[bytes]" `Quick test_baseline_row_missing;
    Alcotest.test_case "gate: a shrinking lower record passes" `Quick test_lower_shrink_passes;
  ]
