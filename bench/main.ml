(* Benchmark harness: one experiment per table/figure of the paper's
   evaluation (§6). Each experiment prints the same rows/series the paper
   reports, under two clocks:

   - modeled time: memory events priced by the Table 1 cost model — the
     clock whose *shape* is comparable with the paper's hardware numbers;
   - wall time: the simulator's real elapsed time (real domains, real CAS).

   Usage:
     dune exec bench/main.exe                 (all experiments, quick sizes)
     dune exec bench/main.exe -- --only fig6-threadtest
     dune exec bench/main.exe -- --full       (larger sweeps)
     dune exec bench/main.exe -- --bechamel   (Bechamel micro-benchmarks)
     dune exec bench/main.exe -- --list                                    *)

open Cxlshm
module Locked_refc = Cxlshm_check.Locked_refc
module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Latency = Cxlshm_shmem.Latency
module Histogram = Cxlshm_shmem.Histogram
module Spsc = Cxlshm_spsc.Spsc_queue
module Runner = Cxlshm_bench_util.Runner
module Table = Cxlshm_bench_util.Table
module Workloads = Cxlshm_bench_util.Workloads
module Mim = Cxlshm_allocators.Local_mimalloc
module Jem = Cxlshm_allocators.Local_jemalloc
module Ral = Cxlshm_allocators.Ralloc
module Rpc = Cxlshm_rpc
module Mr = Cxlshm_mapreduce.Cxl_mapreduce
module Mr_job = Cxlshm_mapreduce.Mr_job
module Phoenix = Cxlshm_mapreduce.Phoenix
module Textgen = Cxlshm_mapreduce.Textgen
module Kv = Cxlshm_kv

let full = ref false
let quick n_full n_quick = if !full then n_full else n_quick
(* The modeled clock is computed from per-thread event counts, so sweeps
   beyond the physical core count remain meaningful (the wall-clock column
   degrades, the modeled one does not). *)
let max_threads () = 8
let thread_counts () = List.filter (fun t -> t <= max_threads ()) [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Table 1: memory tier characterisation                               *)
(* ------------------------------------------------------------------ *)

let bench_table1 () =
  let t =
    Table.create ~title:"Table 1: local/remote NUMA vs CXL (8-byte accesses)"
      ~columns:[ "Type"; "Seq MOPS"; "Rand MOPS"; "RandCAS MOPS"; "Latency ns" ]
  in
  List.iter
    (fun tier ->
      let seq, rand, cas = Latency.table1_mops tier in
      Table.add_row t
        [
          Latency.tier_name tier;
          Table.cell_f seq;
          Table.cell_f rand;
          Table.cell_f cas;
          Table.cell_f (Latency.table1_latency_ns tier);
        ])
    Latency.all_tiers;
  Table.print t;
  (* Cross-check: drive the simulator and derive the same numbers from its
     event counters. *)
  let t2 =
    Table.create
      ~title:
        "Table 1 (measured through the simulator; Rand here is a single \
         dependent-access stream, i.e. latency-bound)"
      ~columns:[ "Type"; "Seq MOPS"; "Rand MOPS"; "RandCAS MOPS" ]
  in
  List.iter
    (fun tier ->
      (* region far larger than the modeled CPU cache so random accesses
         actually miss *)
      let region = 1 lsl 21 in
      let mem = Mem.create ~tier ~words:region () in
      let model = Mem.cost_model mem in
      let ops = quick 2_000_000 200_000 in
      let measure f =
        let st = Stats.create () in
        f st;
        float_of_int ops /. (Stats.modeled_ns model st /. 1000.0)
      in
      let rng = Random.State.make [| 5 |] in
      let seq =
        measure (fun st ->
            for i = 0 to ops - 1 do
              ignore (Mem.load mem ~st (i land (region - 1)))
            done)
      in
      let rand =
        measure (fun st ->
            for _ = 1 to ops do
              ignore (Mem.load mem ~st (Random.State.int rng region))
            done)
      in
      let cas =
        measure (fun st ->
            for _ = 1 to ops do
              ignore
                (Mem.cas mem ~st (Random.State.int rng region) ~expected:0
                   ~desired:0)
            done)
      in
      Table.add_row t2
        [
          Latency.tier_name tier;
          Table.cell_f seq;
          Table.cell_f rand;
          Table.cell_f cas;
        ])
    Latency.all_tiers;
  Table.print t2

(* ------------------------------------------------------------------ *)
(* Fig 6: allocator throughput (threadtest & shbench)                  *)
(* ------------------------------------------------------------------ *)

let cxl_shm_cfg threads =
  {
    Config.default with
    Config.max_clients = max 2 (threads + 1);
    num_segments = 96;
    pages_per_segment = 16;
    page_words = 1024;
  }

let tt_rounds () = quick 500 100
let tt_batch = 100
let sh_ops () = quick 50_000 10_000

let workload_ops = function
  | `Threadtest -> Workloads.threadtest_ops ~rounds:(tt_rounds ()) ~batch:tt_batch
  | `Shbench -> Workloads.shbench_ops ~ops:(sh_ops ())

let run_workload ~workload ~seed ~alloc ~free ~write =
  match workload with
  | `Threadtest ->
      Workloads.threadtest ~alloc ~free ~write ~rounds:(tt_rounds ())
        ~batch:tt_batch
  | `Shbench -> Workloads.shbench ~alloc ~free ~write ~seed ~ops:(sh_ops ())

let run_baseline (module A : Cxlshm_allocators.Alloc_intf.S) ~threads ~workload =
  let a = A.create ~words:2_000_000 ~threads in
  let stats = Array.init threads (fun _ -> Stats.create ()) in
  let body tid =
    let th = A.thread a tid in
    run_workload ~workload ~seed:tid
      ~alloc:(fun size -> A.alloc th ~size_bytes:size)
      ~free:(fun b -> A.free th b)
      ~write:(fun b -> A.write_word th b 0 1);
    Stats.add stats.(tid) (A.stats th)
  in
  let model = Latency.of_tier (A.tier a) in
  let r =
    Runner.run_parallel ~threads ~ops_per_thread:(workload_ops workload) ~model
      ~serial:(fun () -> A.serial_stats a)
      (fun tid -> stats.(tid))
      body
  in
  Runner.mops r

let run_cxl_shm ~threads ~workload =
  let arena = Shm.create ~cfg:(cxl_shm_cfg threads) () in
  let stats = Array.init threads (fun _ -> Stats.create ()) in
  let model = Latency.of_tier Latency.Cxl in
  let body tid =
    let ctx = Shm.join arena () in
    run_workload ~workload ~seed:tid
      ~alloc:(fun size -> Shm.cxl_malloc ctx ~size_bytes:size ())
      ~free:Cxl_ref.drop
      ~write:(fun r -> Cxl_ref.write_word r 0 1);
    Stats.add stats.(tid) ctx.Ctx.st;
    Shm.leave ctx
  in
  let r =
    Runner.run_parallel ~threads ~ops_per_thread:(workload_ops workload) ~model
      (fun tid -> stats.(tid))
      body
  in
  (Runner.mops r, stats)

let bench_fig6 workload title () =
  let t =
    Table.create ~title
      ~columns:[ "Threads"; "CXL-SHM"; "Ralloc"; "Jemalloc"; "Mimalloc" ]
  in
  List.iter
    (fun threads ->
      let cxl, _ = run_cxl_shm ~threads ~workload in
      let ral = run_baseline (module Ral) ~threads ~workload in
      let jem = run_baseline (module Jem) ~threads ~workload in
      let mim = run_baseline (module Mim) ~threads ~workload in
      Table.add_row t
        [
          Table.cell_i threads;
          Table.cell_f cxl;
          Table.cell_f ral;
          Table.cell_f jem;
          Table.cell_f mim;
        ])
    (thread_counts ());
  Table.print t;
  print_endline
    "   (MOPS, modeled clock; paper: mimalloc/jemalloc ~1 order above\n\
    \    CXL-SHM; Ralloc comparable to CXL-SHM)"

(* ------------------------------------------------------------------ *)
(* Fig 7: cost breakdown of the CXL-SHM fast path                      *)
(* ------------------------------------------------------------------ *)

let bench_fig7 () =
  let t =
    Table.create ~title:"Fig 7: CXL-SHM fast-path cost breakdown (threadtest)"
      ~columns:[ "Threads"; "Flush %"; "Fence %"; "Alloc %" ]
  in
  let model = Latency.of_tier Latency.Cxl in
  List.iter
    (fun threads ->
      let _, stats = run_cxl_shm ~threads ~workload:`Threadtest in
      let acc = Stats.create () in
      Array.iter (fun s -> Stats.add acc s) stats;
      let access, fence, flush, backoff = Stats.breakdown_ns model acc in
      let total = access +. fence +. flush +. backoff in
      Table.add_row t
        [
          Table.cell_i threads;
          Table.cell_f (100.0 *. flush /. total);
          Table.cell_f (100.0 *. fence /. total);
          Table.cell_f (100.0 *. access /. total);
        ])
    (thread_counts ());
  Table.print t;
  print_endline "   (paper: flush 27-50%, fence <5%, remainder allocation)"

(* ------------------------------------------------------------------ *)
(* §6.2.1: recovery throughput vs Ralloc stop-the-world GC             *)
(* ------------------------------------------------------------------ *)

let bench_recovery () =
  let model = Latency.of_tier Latency.Cxl in
  (* Part A: CXL-SHM recovery rate as the dead client's reference count
     grows — the cost is per-RootRef, so the rate stays flat. *)
  let t =
    Table.create
      ~title:"§6.2.1 (a): CXL-SHM recovery vs refs possessed by the dead client"
      ~columns:[ "RootRefs"; "modeled Mobj/s"; "modeled ms"; "wall ms" ]
  in
  let cxl_1000_ms = ref 0.0 in
  List.iter
    (fun n ->
      let cfg =
        {
          Config.default with
          Config.num_segments = 1024;
          pages_per_segment = 16;
          page_words = 1024;
        }
      in
      let arena = Shm.create ~cfg () in
      let a = Shm.join arena () in
      let _ = List.init n (fun _ -> Shm.cxl_malloc a ~size_bytes:48 ()) in
      let svc = Shm.service_ctx arena in
      Client.declare_failed svc ~cid:a.Ctx.cid;
      Stats.reset svc.Ctx.st;
      let r, wall_ns =
        Runner.time_wall (fun () -> Recovery.recover svc ~failed_cid:a.Ctx.cid)
      in
      assert (r.Recovery.rootrefs_released = n);
      let ns = Stats.modeled_ns model svc.Ctx.st in
      if n = 1_000 then cxl_1000_ms := ns /. 1e6;
      Table.add_row t
        [
          Table.cell_i n;
          Table.cell_f (float_of_int n /. (ns /. 1e3));
          Table.cell_f (ns /. 1e6);
          Table.cell_f (wall_ns /. 1e6);
        ])
    (if !full then [ 1_000; 10_000; 50_000 ] else [ 1_000; 5_000 ]);
  Table.print t;
  (* Part B: hold the live set at 1000 objects and grow the carved heap:
     Ralloc's stop-the-world conservative GC scans the whole heap, while
     CXL-SHM's recovery touches only the dead client's RootRef pages. *)
  let t2 =
    Table.create
      ~title:
        "§6.2.1 (b): recovery time vs heap size (1000 live objects fixed)"
      ~columns:
        [ "Heap words"; "Ralloc GC ms (modeled)"; "CXL-SHM ms (modeled)" ]
  in
  List.iter
    (fun heap_words ->
      let ral = Ral.create ~words:heap_words ~threads:1 in
      let th = Ral.thread ral 0 in
      (* carve the whole heap: fill it, then free everything *)
      let rec fill acc =
        match Ral.alloc th ~size_bytes:48 with
        | b -> fill (b :: acc)
        | exception Out_of_memory -> acc
      in
      let everything = fill [] in
      List.iter (fun b -> Ral.free th b) everything;
      let live = Array.init 1_000 (fun _ -> Ral.alloc th ~size_bytes:48) in
      Array.iter
        (fun b -> for w = 0 to 5 do Ral.write_word th b w 0 done)
        live;
      Ral.set_root th live.(0);
      let gc_st = Stats.create () in
      ignore (Ral.recover ral ~st:gc_st);
      let gc_ns = Stats.modeled_ns (Latency.of_tier Latency.Remote_numa) gc_st in
      Table.add_row t2
        [
          Table.cell_i heap_words;
          Table.cell_f (gc_ns /. 1e6);
          Table.cell_f !cxl_1000_ms;
        ])
    (if !full then [ 500_000; 2_000_000; 8_000_000 ]
     else [ 500_000; 2_000_000 ]);
  Table.print t2;
  print_endline
    "   (paper: GC-based pmem recovery is proportional to the whole pool\n\
    \    (10-100 s at scale) while CXL-SHM recovers ~tens of millions of\n\
    \    objects/s independent of pool size)"

let bench_leak_scan () =
  let t =
    Table.create ~title:"§5.3/§6.2.1: POTENTIAL_LEAKING segment-local scan"
      ~columns:[ "Segment words"; "recycled"; "scan wall µs"; "modeled µs" ]
  in
  (* Fill a segment with blocks, free them, mark the segment leaking, then
     time the full block-position scan that recycles it (§5.3). *)
  let cfg = { Config.default with Config.num_segments = 8 } in
  let arena = Shm.create ~cfg () in
  let a = Shm.join arena () in
  let blocks = List.init 200 (fun _ -> Shm.cxl_malloc a ~size_bytes:32 ()) in
  List.iter Cxl_ref.drop blocks;
  let svc = Shm.service_ctx arena in
  let seg =
    match Segment.owned_by svc ~cid:a.Ctx.cid with
    | s :: _ -> s
    | [] -> failwith "no segment owned"
  in
  Segment.mark_leaking svc seg;
  Client.declare_failed svc ~cid:a.Ctx.cid;
  Stats.reset svc.Ctx.st;
  let recycled, wall = Runner.time_wall (fun () -> Reclaim.scan_segment svc seg) in
  let modeled = Stats.modeled_ns (Latency.of_tier Latency.Cxl) svc.Ctx.st in
  let lay = Shm.layout arena in
  Table.add_row t
    [
      Table.cell_i lay.Layout.segment_words;
      (if recycled then "yes" else "no");
      Table.cell_f (wall /. 1e3);
      Table.cell_f (modeled /. 1e3);
    ];
  Table.print t;
  print_endline "   (paper: <20 µs per 64 MB segment, amortisable)"

(* ------------------------------------------------------------------ *)
(* Fig 8: CXL-RPC vs RDMA RPC vs raw SPSC                              *)
(* ------------------------------------------------------------------ *)

let rpc_cfg ?(page_words = 1024) ?(num_segments = 128)
    ?(pages_per_segment = 16) pairs =
  {
    Config.default with
    Config.max_clients = max 4 ((2 * pairs) + 2);
    num_segments;
    pages_per_segment;
    page_words;
    queue_slots = max 64 (8 * pairs);
  }

(* Arguments now live inside the channel sub-heap (pointer isolation), so
   the largest payload must fit a size class: pick the page size so the
   payload is a class block, and shrink the arena so big pages don't blow
   up the simulated-memory footprint. *)
let rpc_payload_cfg pairs payload_bytes =
  let words = ((payload_bytes + 7) / 8) + 64 in
  let rec fit p = if p >= words then p else fit (2 * p) in
  let page_words = fit 1024 in
  let scale = page_words / 1024 in
  rpc_cfg ~page_words
    ~num_segments:(max 8 (128 / scale))
    ~pages_per_segment:(if scale >= 8 then 4 else 16)
    pairs

(* One client/server pair exchanging [calls] CXL-RPC calls, driven in
   lockstep from one thread so the modeled clock contains only useful work
   (no idle-poll traffic). Returns the pair's summed memory-event stats. *)
let cxl_rpc_pair arena ~calls ~payload_bytes =
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let srv = Rpc.Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:32 in
  let client = Rpc.Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:32 in
  let payload = Rpc.Cxl_rpc.alloc_arg client ~size_bytes:payload_bytes () in
  for _ = 1 to calls do
    let p = Rpc.Cxl_rpc.call_async client ~func:1 ~args:[ payload ] ~output_bytes:8 in
    let served =
      Rpc.Cxl_rpc.serve_one srv ~handler:(fun ~func:_ ~args:_ ~output ->
          Rpc.Message.write_word output 0 1)
    in
    assert served;
    Cxl_ref.drop (Rpc.Cxl_rpc.finish p)
  done;
  Cxl_ref.drop payload;
  Rpc.Cxl_rpc.close_client client;
  Rpc.Cxl_rpc.close_server srv;
  let acc = Stats.copy c.Ctx.st in
  Stats.add acc s.Ctx.st;
  Shm.leave c;
  Shm.leave s;
  acc

let run_rdma ~calls ~payload_bytes =
  let cl, sv = Rpc.Rdma_rpc.pair () in
  let payload = Bytes.create payload_bytes in
  for _ = 1 to calls do
    Rpc.Rdma_rpc.send_request cl ~func:1 ~args:[ payload ];
    let served =
      Rpc.Rdma_rpc.serve_one sv ~handler:(fun ~func:_ ~args:_ -> Bytes.create 8)
    in
    assert served;
    match Rpc.Rdma_rpc.try_recv_response cl with
    | Some _ -> ()
    | None -> assert false
  done;
  Rpc.Rdma_rpc.client_modeled_ns cl +. Rpc.Rdma_rpc.server_modeled_ns sv

let bench_fig8_clients () =
  let t =
    Table.create
      ~title:"Fig 8 (left): RPC throughput vs client/server pairs (64 B)"
      ~columns:[ "Pairs"; "CXL-RPC KOPS"; "SPSC KOPS"; "RDMA KOPS" ]
  in
  let model = Latency.of_tier Latency.Cxl in
  let pairs_list = List.filter (fun p -> 2 * p <= max 2 (max_threads ())) [ 1; 2; 4 ] in
  List.iter
    (fun pairs ->
      let calls = quick 3_000 500 in
      (* Pairs are independent; run them one after another on one arena and
         take the slowest pair's modeled time as the parallel makespan. *)
      let arena = Shm.create ~cfg:(rpc_cfg pairs) () in
      let per_pair =
        List.init pairs (fun _ -> cxl_rpc_pair arena ~calls ~payload_bytes:64)
      in
      let slowest =
        List.fold_left
          (fun acc s -> Float.max acc (Stats.modeled_ns model s))
          0.0 per_pair
      in
      let cxl_kops = float_of_int (pairs * calls) /. (slowest /. 1e6) in
      (* Raw SPSC exchange (the upper bound): one allocator round trip plus
         one push/pop per message, as in the paper's inter-thread test. *)
      let spsc_kops =
        let mem = Mem.create ~tier:Latency.Cxl ~words:4096 () in
        let st = Stats.create () in
        let q = Spsc.create mem ~st ~base:8 ~capacity:64 in
        let arena = Shm.create ~cfg:(rpc_cfg 1) () in
        let ctx = Shm.join arena () in
        for i = 1 to calls do
          let r = Shm.cxl_malloc ctx ~size_bytes:64 () in
          Spsc.push q ~st i;
          ignore (Spsc.pop q ~st);
          Cxl_ref.drop r
        done;
        Stats.add st ctx.Ctx.st;
        float_of_int (pairs * calls) /. (Stats.modeled_ns model st /. 1e6)
      in
      let rdma_ns = run_rdma ~calls ~payload_bytes:64 in
      let rdma_kops = float_of_int (pairs * calls) /. (rdma_ns /. 1e6) in
      Table.add_row t
        [
          Table.cell_i pairs;
          Table.cell_f cxl_kops;
          Table.cell_f spsc_kops;
          Table.cell_f rdma_kops;
        ])
    pairs_list;
  Table.print t;
  print_endline "   (paper: CXL-RPC 3.8-4.6x RDMA at 64 B; about half of raw SPSC)"

let bench_fig8_payload () =
  let t =
    Table.create ~title:"Fig 8 (right): RPC throughput vs payload size (1 pair)"
      ~columns:[ "Bytes"; "CXL-RPC KOPS"; "RDMA KOPS"; "CXL/RDMA" ]
  in
  let model = Latency.of_tier Latency.Cxl in
  let sizes =
    if !full then [ 64; 512; 4096; 32_768; 524_288 ]
    else [ 64; 512; 4096; 32_768 ]
  in
  List.iter
    (fun size ->
      let calls = quick 2_000 300 in
      let arena = Shm.create ~cfg:(rpc_payload_cfg 1 size) () in
      let s = cxl_rpc_pair arena ~calls ~payload_bytes:size in
      let cxl_kops = float_of_int calls /. (Stats.modeled_ns model s /. 1e6) in
      let rdma_ns = run_rdma ~calls ~payload_bytes:size in
      let rdma_kops = float_of_int calls /. (rdma_ns /. 1e6) in
      Table.add_row t
        [
          Table.cell_i size;
          Table.cell_f cxl_kops;
          Table.cell_f rdma_kops;
          Table.cell_f (cxl_kops /. rdma_kops);
        ])
    sizes;
  Table.print t;
  print_endline
    "   (paper: CXL-RPC flat in payload size — only references move —\n\
    \    while pass-by-value RDMA degrades with size)"

(* ------------------------------------------------------------------ *)
(* RPC isolation: zero-copy CXL-RPC vs pass-by-value RDMA              *)
(* ------------------------------------------------------------------ *)

(* Fan-in: [n] clients call one server process; the server owns one
   endpoint per client and serves them round-robin. The makespan is the
   busiest context's modeled clock — with fan-in the server is the shared
   bottleneck. *)
let cxl_rpc_fan_in arena ~n ~calls ~payload_bytes =
  let s = Shm.join arena () in
  let cs = List.init n (fun _ -> Shm.join arena ()) in
  let eps =
    List.map
      (fun c ->
        let srv = Rpc.Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:32 in
        let cl = Rpc.Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:32 in
        let payload = Rpc.Cxl_rpc.alloc_arg cl ~size_bytes:payload_bytes () in
        (cl, srv, payload))
      cs
  in
  for _ = 1 to calls do
    let pending =
      List.map
        (fun (cl, _, payload) ->
          Rpc.Cxl_rpc.call_async cl ~func:1 ~args:[ payload ] ~output_bytes:8)
        eps
    in
    List.iter
      (fun (_, srv, _) ->
        let served =
          Rpc.Cxl_rpc.serve_one srv ~handler:(fun ~func:_ ~args:_ ~output ->
              Rpc.Message.write_word output 0 1)
        in
        assert served)
      eps;
    List.iter (fun p -> Cxl_ref.drop (Rpc.Cxl_rpc.finish p)) pending
  done;
  List.iter
    (fun (cl, srv, payload) ->
      Cxl_ref.drop payload;
      Rpc.Cxl_rpc.close_client cl;
      Rpc.Cxl_rpc.close_server srv)
    eps;
  let model = Latency.of_tier Latency.Cxl in
  let makespan =
    List.fold_left
      (fun acc c -> Float.max acc (Stats.modeled_ns model c.Ctx.st))
      (Stats.modeled_ns model s.Ctx.st)
      cs
  in
  List.iter Shm.leave cs;
  Shm.leave s;
  makespan

let rdma_fan_in ~n ~calls ~payload_bytes =
  let pairs = List.init n (fun _ -> Rpc.Rdma_rpc.pair ()) in
  let payload = Bytes.create payload_bytes in
  for _ = 1 to calls do
    List.iter
      (fun (cl, _) -> Rpc.Rdma_rpc.send_request cl ~func:1 ~args:[ payload ])
      pairs;
    List.iter
      (fun (_, sv) ->
        let served =
          Rpc.Rdma_rpc.serve_one sv ~handler:(fun ~func:_ ~args:_ ->
              Bytes.create 8)
        in
        assert served)
      pairs;
    List.iter
      (fun (cl, _) ->
        match Rpc.Rdma_rpc.try_recv_response cl with
        | Some _ -> ()
        | None -> assert false)
      pairs
  done;
  (* One server process handles every pair's server side, so its work adds
     up; clients run in parallel. *)
  let server_ns =
    List.fold_left
      (fun acc (_, sv) -> acc +. Rpc.Rdma_rpc.server_modeled_ns sv)
      0.0 pairs
  in
  let client_ns =
    List.fold_left
      (fun acc (cl, _) -> Float.max acc (Rpc.Rdma_rpc.client_modeled_ns cl))
      0.0 pairs
  in
  Float.max server_ns client_ns

(* Zero-copy RPC vs RDMA across payload sizes and fan-in. The isolation
   walk (validate every embedded reference stays in-channel) is part of
   the measured serve path, so BENCH_rpc.json doubles as a regression
   baseline for its cost. The run aborts if the zero-copy win fails to
   widen monotonically with payload size — references move, bytes don't. *)
let bench_rpc () =
  let model = Latency.of_tier Latency.Cxl in
  let calls = quick 2_000 300 in
  let sizes = [ 64; 1_024; 8_192; 65_536 ] in
  let t =
    Table.create ~title:"RPC isolation: CXL-RPC vs RDMA per call (1 pair)"
      ~columns:[ "Bytes"; "CXL ns/call"; "RDMA ns/call"; "Speedup" ]
  in
  let payload_rows =
    List.map
      (fun size ->
        let arena = Shm.create ~cfg:(rpc_payload_cfg 1 size) () in
        let st = cxl_rpc_pair arena ~calls ~payload_bytes:size in
        let cxl = Stats.modeled_ns model st /. float_of_int calls in
        let rdma = run_rdma ~calls ~payload_bytes:size /. float_of_int calls in
        Table.add_row t
          [
            Table.cell_i size;
            Table.cell_f cxl;
            Table.cell_f rdma;
            Table.cell_f (rdma /. cxl);
          ];
        (size, cxl, rdma))
      sizes
  in
  Table.print t;
  let widens =
    let rec mono = function
      | (_, c1, r1) :: ((_, c2, r2) :: _ as rest) ->
          r1 /. c1 < r2 /. c2 && mono rest
      | _ -> true
    in
    mono payload_rows
  in
  if not widens then
    failwith "rpc bench: zero-copy speedup does not widen with payload size";
  let fanins = [ 1; 2; 4; 8; 16 ] in
  let tf =
    Table.create ~title:"RPC isolation: fan-in to one server (64 B)"
      ~columns:[ "Clients"; "CXL KOPS"; "RDMA KOPS"; "Speedup" ]
  in
  let fan_rows =
    List.map
      (fun n ->
        let arena = Shm.create ~cfg:(rpc_cfg n) () in
        let cxl_ns = cxl_rpc_fan_in arena ~n ~calls ~payload_bytes:64 in
        let rdma_ns = rdma_fan_in ~n ~calls ~payload_bytes:64 in
        let ops = float_of_int (n * calls) in
        let cxl_kops = ops /. (cxl_ns /. 1e6) in
        let rdma_kops = ops /. (rdma_ns /. 1e6) in
        Table.add_row tf
          [
            Table.cell_i n;
            Table.cell_f cxl_kops;
            Table.cell_f rdma_kops;
            Table.cell_f (cxl_kops /. rdma_kops);
          ];
        (n, cxl_kops, rdma_kops))
      fanins
  in
  Table.print tf;
  let oc = open_out "BENCH_rpc.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"rpc\",\n  \"calls\": %d,\n  \"payload\": [\n" calls;
  List.iteri
    (fun i (size, cxl, rdma) ->
      Printf.fprintf oc
        "    {\"bytes\": %d, \"cxl_ns_per_call\": %.2f, \"rdma_ns_per_call\": \
         %.2f, \"speedup\": %.3f}%s\n"
        size cxl rdma (rdma /. cxl)
        (if i = List.length payload_rows - 1 then "" else ","))
    payload_rows;
  Printf.fprintf oc "  ],\n  \"fanin\": [\n";
  List.iteri
    (fun i (n, ck, rk) ->
      Printf.fprintf oc
        "    {\"clients\": %d, \"cxl_kops\": %.2f, \"rdma_kops\": %.2f, \
         \"speedup\": %.3f}%s\n"
        n ck rk (ck /. rk)
        (if i = List.length fan_rows - 1 then "" else ","))
    fan_rows;
  Printf.fprintf oc "  ],\n  \"speedup_widens_with_size\": %b\n}\n" widens;
  close_out oc;
  print_endline "wrote BENCH_rpc.json"

(* ------------------------------------------------------------------ *)
(* Fig 9: CXL-MapReduce vs Phoenix                                     *)
(* ------------------------------------------------------------------ *)

(* Pages sized so a wordcount output (1 + 2*vocab words) fits a size
   class: outputs are carved inside the channel sub-heap now. *)
let mr_cfg executors =
  {
    Config.default with
    Config.max_clients = (2 * executors) + 2;
    num_segments = 64;
    pages_per_segment = 16;
    page_words = 8192;
  }

let mr_execs () = [ 1; 2; 4; 8 ]

(* Virtual-parallel MapReduce round: tasks run in lockstep client/server
   pairs (one per executor) and are timed individually; the reported time
   is the schedule makespan max_e(sum of executor e's task times) plus the
   master-side merge. Sound on any core count — and the only honest way to
   measure scaling on a single-core host. *)
let mr_round ~arena ~master ~executors ~func ~chunk_args ~output_words ~combine =
  let pairs =
    Array.init executors (fun _ ->
        let s = Shm.join arena () in
        let srv = Rpc.Cxl_rpc.accept s ~client_cid:master.Ctx.cid ~capacity:4 in
        (* Chunks (and kmeans' centroid table) are master-allocated shared
           objects passed by reference: the attached-shared-heap pattern. *)
        Rpc.Cxl_rpc.allow_peer_segments srv;
        (s, srv))
  in
  let clients =
    Array.map
      (fun (s, _) -> Rpc.Cxl_rpc.connect master ~server_cid:s.Ctx.cid ~capacity:4)
      pairs
  in
  let exec_ns = Array.make executors 0.0 in
  let merged = Hashtbl.create 1024 in
  let merge_ns = ref 0.0 in
  List.iteri
    (fun i args ->
      let e = i mod executors in
      let out, task_ns =
        Runner.time_wall (fun () ->
            let p =
              Rpc.Cxl_rpc.call_async clients.(e) ~func ~args
                ~output_bytes:(output_words * 7)
            in
            let served =
              Rpc.Cxl_rpc.serve_one (snd pairs.(e)) ~handler:Mr.task_handler
            in
            assert served;
            Rpc.Cxl_rpc.finish p)
      in
      exec_ns.(e) <- exec_ns.(e) +. task_ns;
      let _, m_ns =
        Runner.time_wall (fun () ->
            List.iter
              (fun (k, v) ->
                Hashtbl.replace merged k
                  (match Hashtbl.find_opt merged k with
                  | Some v0 -> combine v0 v
                  | None -> v))
              (let vv = Rpc.Message.view_of_ref out in
               let n = Rpc.Message.read_word vv 0 in
               List.init n (fun j ->
                   ( Rpc.Message.read_word vv (1 + (2 * j)),
                     Rpc.Message.read_word vv (2 + (2 * j)) ))))
      in
      merge_ns := !merge_ns +. m_ns;
      Cxl_ref.drop out)
    chunk_args;
  Array.iter Rpc.Cxl_rpc.close_client clients;
  Array.iter
    (fun (s, srv) ->
      Rpc.Cxl_rpc.close_server srv;
      Shm.leave s)
    pairs;
  let makespan = Array.fold_left Float.max 0.0 exec_ns +. !merge_ns in
  let pairs_out =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])
  in
  (pairs_out, makespan)

(* Phoenix under the same virtual-parallel schedule. *)
let phoenix_round ~executors ~chunks ~job =
  let exec_ns = Array.make executors 0.0 in
  let partials = Hashtbl.create 1024 in
  let merge_ns = ref 0.0 in
  List.iteri
    (fun i chunk ->
      let e = i mod executors in
      let kvs, task_ns = Runner.time_wall (fun () -> job.Mr_job.map chunk) in
      exec_ns.(e) <- exec_ns.(e) +. task_ns;
      let _, m_ns =
        Runner.time_wall (fun () ->
            List.iter
              (fun (k, v) ->
                Hashtbl.replace partials k
                  (match Hashtbl.find_opt partials k with
                  | Some v0 -> job.Mr_job.combine v0 v
                  | None -> v))
              kvs)
      in
      merge_ns := !merge_ns +. m_ns)
    chunks;
  let makespan = Array.fold_left Float.max 0.0 exec_ns +. !merge_ns in
  let pairs =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) partials [])
  in
  (pairs, makespan)

let bench_fig9_wordcount () =
  let t =
    Table.create ~title:"Fig 9 (left): wordcount time vs executors"
      ~columns:[ "Executors"; "CXL-SHM ms"; "Phoenix ms"; "CXL speedup vs e=1" ]
  in
  let corpus = Textgen.generate ~words:(quick 120_000 30_000) ~vocab:2_000 ~seed:11 in
  let raw = List.map Bytes.of_string (Textgen.chunks corpus ~chunk_bytes:4096) in
  let base = ref 0.0 in
  List.iter
    (fun e ->
      let arena = Shm.create ~cfg:(mr_cfg e) () in
      let master = Shm.join arena () in
      let chunks = List.map (Mr.store_chunk master) raw in
      let result, cxl_ns =
        mr_round ~arena ~master ~executors:e ~func:1
          ~chunk_args:(List.map (fun c -> [ c ]) chunks)
          ~output_words:(1 + (2 * 2_000))
          ~combine:( + )
      in
      assert (result <> []);
      List.iter Cxl_ref.drop chunks;
      let _, phoenix_ns =
        phoenix_round ~executors:e ~chunks:raw
          ~job:(Mr_job.wordcount ~vocab:max_int)
      in
      if e = 1 then base := cxl_ns;
      Table.add_row t
        [
          Table.cell_i e;
          Table.cell_f (cxl_ns /. 1e6);
          Table.cell_f (phoenix_ns /. 1e6);
          Table.cell_f (!base /. cxl_ns);
        ])
    (mr_execs ());
  Table.print t;
  print_endline
    "   (paper: near-linear scaling with executors; wordcount's absolute\n\
    \    CXL-vs-Phoenix gap is not apples-to-apples — footnote 2)"

let bench_fig9_kmeans () =
  let t =
    Table.create ~title:"Fig 9 (right): kmeans time vs executors"
      ~columns:[ "Executors"; "CXL-SHM ms"; "Phoenix ms" ]
  in
  (* Paper: 1k clusters, 500k 8-dim points; scaled for the simulator. *)
  let k = quick 64 16 and dims = 8 in
  let npoints = quick 20_000 6_000 in
  let rng = Random.State.make [| 21 |] in
  let points =
    Array.init npoints (fun _ ->
        let c = Random.State.int rng k in
        Array.init dims (fun d -> (c * 1_000) + (d * 37) + Random.State.int rng 100))
  in
  let chunk_size = 500 in
  let raw =
    List.init (npoints / chunk_size) (fun n ->
        Mr_job.encode_points (Array.sub points (n * chunk_size) chunk_size))
  in
  List.iter
    (fun e ->
      let arena = Shm.create ~cfg:(mr_cfg e) () in
      let master = Shm.join arena () in
      let chunks = List.map (Mr.store_chunk master) raw in
      (* centroids object shared by every task *)
      let cents = Shm.cxl_malloc_words master ~data_words:(2 + (k * dims)) () in
      Cxl_ref.write_word cents 0 k;
      Cxl_ref.write_word cents 1 dims;
      let centroids =
        Array.init k (fun c -> Array.init dims (fun d -> ((c * 37) + d) * 1000))
      in
      let cxl_total = ref 0.0 in
      for _ = 1 to 3 do
        Array.iteri
          (fun c row ->
            Array.iteri
              (fun d x -> Cxl_ref.write_word cents (2 + (c * dims) + d) x)
              row)
          centroids;
        let combined, ns =
          mr_round ~arena ~master ~executors:e ~func:2
            ~chunk_args:(List.map (fun c -> [ c; cents ]) chunks)
            ~output_words:(1 + (2 * k * (dims + 1)))
            ~combine:( + )
        in
        cxl_total := !cxl_total +. ns;
        ignore (Mr_job.kmeans_update ~k ~dims combined centroids)
      done;
      Cxl_ref.drop cents;
      List.iter Cxl_ref.drop chunks;
      let phx_total = ref 0.0 in
      let centroids2 =
        Array.init k (fun c -> Array.init dims (fun d -> ((c * 37) + d) * 1000))
      in
      for _ = 1 to 3 do
        let combined, ns =
          phoenix_round ~executors:e ~chunks:raw
            ~job:(Mr_job.kmeans_assign ~centroids:centroids2 ~dims)
        in
        phx_total := !phx_total +. ns;
        ignore (Mr_job.kmeans_update ~k ~dims combined centroids2)
      done;
      Table.add_row t
        [
          Table.cell_i e;
          Table.cell_f (!cxl_total /. 1e6);
          Table.cell_f (!phx_total /. 1e6);
        ])
    (mr_execs ());
  Table.print t;
  print_endline "   (paper: CXL-MapReduce comparable with Phoenix on kmeans)"

(* ------------------------------------------------------------------ *)
(* Fig 10: key-value store                                             *)
(* ------------------------------------------------------------------ *)

let kv_cfg clients =
  {
    Config.default with
    Config.max_clients = clients + 2;
    num_segments = 768;
    pages_per_segment = 16;
    page_words = 1024;
  }

let kv_value_words = 4

let run_cxl_kv ?(cow = false) ~clients ~ops ~mix ~theta ~keys () =
  let arena = Shm.create ~cfg:(kv_cfg clients) () in
  let creator = Shm.join arena () in
  let store, h0 =
    Kv.Cxl_kv.create creator ~buckets:(keys * 2) ~partitions:clients
      ~value_words:kv_value_words
  in
  for p = 0 to clients - 1 do
    ignore (Kv.Cxl_kv.claim_partition h0 p)
  done;
  for key = 0 to keys - 1 do
    Kv.Cxl_kv.put h0 ~key ~value:key
  done;
  Stats.reset creator.Ctx.st;
  let stats = Array.init clients (fun _ -> Stats.create ()) in
  let model = Latency.of_tier Latency.Cxl in
  let body tid =
    let ctx = if tid = 0 then creator else Shm.join arena () in
    let h = if tid = 0 then h0 else Kv.Cxl_kv.open_store ctx store in
    if tid > 0 then ignore (Kv.Cxl_kv.takeover_partition h tid);
    let w = Kv.Ycsb.create ~keys ~write_ratio:mix ~theta ~seed:(tid + 1) in
    for i = 1 to ops do
      (* writers reach a quiescent point periodically, recycling retired
         record versions (hazard-era reclamation stand-in) *)
      if i land 511 = 0 then Kv.Cxl_kv.quiesce h;
      match Kv.Ycsb.next w with
      | Kv.Kv_intf.Read key -> ignore (Kv.Cxl_kv.get h ~key)
      | Kv.Kv_intf.Update (key, v) | Kv.Kv_intf.Insert (key, v) ->
          (* writers stay inside their own partition (single-writer rule) *)
          let key = key - (key mod clients) + tid in
          let key = if key >= keys then tid else key in
          if cow then Kv.Cxl_kv.put_cow h ~key ~value:v
          else Kv.Cxl_kv.put h ~key ~value:v
      | Kv.Kv_intf.Rmw (key, v) ->
          let key = key - (key mod clients) + tid in
          let key = if key >= keys then tid else key in
          ignore (Kv.Cxl_kv.rmw h ~key ~delta:v)
      | Kv.Kv_intf.Delete key -> ignore (Kv.Cxl_kv.get h ~key)
    done;
    Kv.Cxl_kv.quiesce h;
    Stats.add stats.(tid) ctx.Ctx.st;
    if tid > 0 then begin
      Kv.Cxl_kv.close h;
      Shm.leave ctx
    end
  in
  let r =
    Runner.run_parallel ~threads:clients ~ops_per_thread:ops ~model
      (fun tid -> stats.(tid))
      body
  in
  Runner.mops r

let run_tbb_kv ~clients ~ops ~mix ~theta ~keys =
  let s =
    Kv.Tbb_kv.create ~buckets:(keys * 2) ~value_words:kv_value_words
      ~capacity:(keys * 2) ~threads:clients
  in
  let handles = Array.init clients (fun tid -> Kv.Tbb_kv.handle s tid) in
  for key = 0 to keys - 1 do
    Kv.Tbb_kv.put handles.(0) ~key ~value:key
  done;
  Stats.reset (Kv.Tbb_kv.stats handles.(0));
  let model = Latency.of_tier (Kv.Tbb_kv.tier s) in
  let body tid =
    let h = handles.(tid) in
    let w = Kv.Ycsb.create ~keys ~write_ratio:mix ~theta ~seed:(tid + 1) in
    for _ = 1 to ops do
      match Kv.Ycsb.next w with
      | Kv.Kv_intf.Read key -> ignore (Kv.Tbb_kv.get h ~key)
      | Kv.Kv_intf.Update (key, v) | Kv.Kv_intf.Insert (key, v) ->
          Kv.Tbb_kv.put h ~key ~value:v
      | Kv.Kv_intf.Rmw (key, v) ->
          let old = Option.value (Kv.Tbb_kv.get h ~key) ~default:0 in
          Kv.Tbb_kv.put h ~key ~value:(old + v)
      | Kv.Kv_intf.Delete key -> ignore (Kv.Tbb_kv.get h ~key)
    done
  in
  let r =
    Runner.run_parallel ~threads:clients ~ops_per_thread:ops ~model
      (fun tid -> Kv.Tbb_kv.stats handles.(tid))
      body
  in
  Runner.mops r

let run_lightning_kv ~clients ~ops ~mix ~theta ~keys =
  let s =
    Kv.Lightning_kv.create ~buckets:(keys * 2) ~value_words:kv_value_words
      ~words:(max 2_000_000 (keys * 64)) ~threads:clients
  in
  let handles = Array.init clients (fun tid -> Kv.Lightning_kv.handle s tid) in
  for key = 0 to keys - 1 do
    Kv.Lightning_kv.put handles.(0) ~key ~value:key
  done;
  let preload = Stats.copy (Kv.Lightning_kv.serial_stats s) in
  let model = Latency.of_tier (Kv.Lightning_kv.tier s) in
  let body tid =
    let h = handles.(tid) in
    let w = Kv.Ycsb.create ~keys ~write_ratio:mix ~theta ~seed:(tid + 1) in
    for _ = 1 to ops do
      match Kv.Ycsb.next w with
      | Kv.Kv_intf.Read key -> ignore (Kv.Lightning_kv.get h ~key)
      | Kv.Kv_intf.Update (key, v) | Kv.Kv_intf.Insert (key, v) ->
          Kv.Lightning_kv.put h ~key ~value:v
      | Kv.Kv_intf.Rmw (key, v) ->
          let old = Option.value (Kv.Lightning_kv.get h ~key) ~default:0 in
          Kv.Lightning_kv.put h ~key ~value:(old + v)
      | Kv.Kv_intf.Delete key -> ignore (Kv.Lightning_kv.get h ~key)
    done
  in
  let r =
    Runner.run_parallel ~threads:clients ~ops_per_thread:ops ~model
      ~serial:(fun () -> Stats.diff (Kv.Lightning_kv.serial_stats s) preload)
      (fun tid -> Kv.Lightning_kv.stats handles.(tid))
      body
  in
  Runner.mops r

let kv_clients_list () = List.filter (fun c -> c <= max 2 (max_threads ())) [ 1; 2; 4; 8 ]

let bench_fig10a () =
  let t =
    Table.create ~title:"Fig 10a: KV throughput vs clients (50/50 R/W, uniform)"
      ~columns:[ "Clients"; "TBB-KV MOPS"; "CXL-KV MOPS"; "Lightning MOPS" ]
  in
  List.iter
    (fun clients ->
      (* working set far beyond the CPU-cache window: both stores pay
         memory latencies, as on the paper's testbed *)
      let ops = quick 100_000 20_000 and keys = 32_768 in
      let tbb = run_tbb_kv ~clients ~ops ~mix:0.5 ~theta:0.0 ~keys in
      let cxl = run_cxl_kv ~clients ~ops ~mix:0.5 ~theta:0.0 ~keys () in
      let lit = run_lightning_kv ~clients ~ops ~mix:0.5 ~theta:0.0 ~keys in
      Table.add_row t
        [ Table.cell_i clients; Table.cell_f tbb; Table.cell_f cxl; Table.cell_f lit ])
    (kv_clients_list ());
  Table.print t;
  print_endline
    "   (paper: TBB 1.40-2.61x CXL-KV; CXL-KV 1-3 orders above Lightning)"

let bench_fig10b () =
  let t =
    Table.create ~title:"Fig 10b: CXL-KV throughput vs W/R ratio"
      ~columns:[ "W:R"; "CXL-KV MOPS" ]
  in
  let clients = min 8 (max 2 (max_threads ())) in
  (* Skewed accesses (the paper's YCSB runs use zipf): hot keys stay
     cache-resident, so reads are pure loads while writes pay allocation,
     fence and flush. *)
  List.iter
    (fun (label, mix) ->
      let m =
        run_cxl_kv ~cow:true ~clients ~ops:(quick 60_000 10_000) ~mix
          ~theta:0.9 ~keys:4_096 ()
      in
      Table.add_row t [ label; Table.cell_f m ])
    [
      ("1:0", 1.0);
      ("1:1", 0.5);
      ("1:2", 1.0 /. 3.0);
      ("1:3", 0.25);
      ("1:4", 0.2);
      ("1:9", 0.1);
    ];
  Table.print t;
  print_endline "   (paper: 1:9 reaches ~12.6x the all-write 1:0 case at 8 clients)"

let bench_fig10c () =
  let t =
    Table.create ~title:"Fig 10c: CXL-KV under YCSB with different zipf"
      ~columns:[ "Clients"; "uniform"; "zipf=0.5"; "zipf=0.9"; "zipf=0.99" ]
  in
  List.iter
    (fun clients ->
      let run theta =
        run_cxl_kv ~clients ~ops:(quick 60_000 10_000) ~mix:0.1 ~theta
          ~keys:32_768 ()
      in
      Table.add_row t
        [
          Table.cell_i clients;
          Table.cell_f (run 0.0);
          Table.cell_f (run 0.5);
          Table.cell_f (run 0.9);
          Table.cell_f (run 0.99);
        ])
    (kv_clients_list ());
  Table.print t;
  print_endline "   (paper: higher zipf -> higher throughput (cache locality))"

let bench_fig10d () =
  let t =
    Table.create ~title:"Fig 10d: TATP / Smallbank (KTPS)"
      ~columns:
        [ "Clients"; "TATP CXL-KV"; "TATP TBB"; "SB CXL-KV"; "SB TBB" ]
  in
  let txns = quick 30_000 4_000 in
  let run_txn_cxl ~clients ~make_gen ~load ~keyspace =
    let arena = Shm.create ~cfg:(kv_cfg clients) () in
    let creator = Shm.join arena () in
    let store, h0 =
      Kv.Cxl_kv.create creator ~buckets:65_536 ~partitions:1 ~value_words:2
    in
    ignore (Kv.Cxl_kv.claim_partition h0 0);
    ignore keyspace;
    List.iter
      (function
        | Kv.Kv_intf.Insert (key, v) -> Kv.Cxl_kv.put h0 ~key ~value:v
        | Kv.Kv_intf.Read _ | Kv.Kv_intf.Update _ | Kv.Kv_intf.Delete _
        | Kv.Kv_intf.Rmw _ ->
            ())
      load;
    Stats.reset creator.Ctx.st;
    let stats = Array.init clients (fun _ -> Stats.create ()) in
    let model = Latency.of_tier Latency.Cxl in
    let body tid =
      let ctx = if tid = 0 then creator else Shm.join arena () in
      let h = if tid = 0 then h0 else Kv.Cxl_kv.open_store ctx store in
      let gen = make_gen tid in
      (* client 0 is the (single) writer; the rest are the paper's
         shared-everything readers *)
      for i = 1 to txns do
        if tid = 0 && i land 511 = 0 then Kv.Cxl_kv.quiesce h;
        List.iter
          (fun op ->
            match op with
            | Kv.Kv_intf.Read key -> ignore (Kv.Cxl_kv.get h ~key)
            | Kv.Kv_intf.Update (key, v) | Kv.Kv_intf.Insert (key, v) ->
                if tid = 0 then Kv.Cxl_kv.put h ~key ~value:v
                else ignore (Kv.Cxl_kv.get h ~key)
            | Kv.Kv_intf.Rmw (key, v) ->
                if tid = 0 then ignore (Kv.Cxl_kv.rmw h ~key ~delta:v)
                else ignore (Kv.Cxl_kv.get h ~key)
            | Kv.Kv_intf.Delete key ->
                if tid = 0 then ignore (Kv.Cxl_kv.delete h ~key)
                else ignore (Kv.Cxl_kv.get h ~key))
          (gen ())
      done;
      Stats.add stats.(tid) ctx.Ctx.st;
      if tid > 0 then begin
        Kv.Cxl_kv.close h;
        Shm.leave ctx
      end
    in
    let r =
      Runner.run_parallel ~threads:clients ~ops_per_thread:txns ~model
        (fun tid -> stats.(tid))
        body
    in
    float_of_int (clients * txns) /. (r.Runner.modeled_ns /. 1e6)
  in
  let run_txn_tbb ~clients ~make_gen ~load ~keyspace =
    let s =
      Kv.Tbb_kv.create ~buckets:65_536 ~value_words:2 ~capacity:(keyspace * 4)
        ~threads:clients
    in
    let handles = Array.init clients (fun tid -> Kv.Tbb_kv.handle s tid) in
    List.iter
      (function
        | Kv.Kv_intf.Insert (key, v) -> Kv.Tbb_kv.put handles.(0) ~key ~value:v
        | Kv.Kv_intf.Read _ | Kv.Kv_intf.Update _ | Kv.Kv_intf.Delete _
        | Kv.Kv_intf.Rmw _ ->
            ())
      load;
    Stats.reset (Kv.Tbb_kv.stats handles.(0));
    let model = Latency.of_tier (Kv.Tbb_kv.tier s) in
    let body tid =
      let h = handles.(tid) in
      let gen = make_gen tid in
      for _ = 1 to txns do
        List.iter
          (fun op ->
            match op with
            | Kv.Kv_intf.Read key -> ignore (Kv.Tbb_kv.get h ~key)
            | Kv.Kv_intf.Update (key, v) | Kv.Kv_intf.Insert (key, v) ->
                Kv.Tbb_kv.put h ~key ~value:v
            | Kv.Kv_intf.Rmw (key, v) ->
                let old = Option.value (Kv.Tbb_kv.get h ~key) ~default:0 in
                Kv.Tbb_kv.put h ~key ~value:(old + v)
            | Kv.Kv_intf.Delete key -> ignore (Kv.Tbb_kv.delete h ~key))
          (gen ())
      done
    in
    let r =
      Runner.run_parallel ~threads:clients ~ops_per_thread:txns ~model
        (fun tid -> Kv.Tbb_kv.stats handles.(tid))
        body
    in
    float_of_int (clients * txns) /. (r.Runner.modeled_ns /. 1e6)
  in
  List.iter
    (fun clients ->
      let subs = 4_096 in
      let tatp_load = Kv.Tatp.load_ops (Kv.Tatp.create ~subscribers:subs ~seed:31) in
      let tatp_gen tid =
        let g = Kv.Tatp.create ~subscribers:subs ~seed:(31 + tid) in
        fun () -> Kv.Tatp.next g
      in
      let tatp_cxl =
        run_txn_cxl ~clients ~make_gen:tatp_gen ~load:tatp_load ~keyspace:(subs * 50)
      in
      let tatp_tbb =
        run_txn_tbb ~clients ~make_gen:tatp_gen ~load:tatp_load ~keyspace:(subs * 50)
      in
      let accounts = 4_096 in
      let sb_load = Kv.Smallbank.load_ops (Kv.Smallbank.create ~accounts ~seed:32) in
      let sb_gen tid =
        let g = Kv.Smallbank.create ~accounts ~seed:(32 + tid) in
        fun () -> Kv.Smallbank.next g
      in
      let sb_cxl =
        run_txn_cxl ~clients ~make_gen:sb_gen ~load:sb_load ~keyspace:(accounts * 3)
      in
      let sb_tbb =
        run_txn_tbb ~clients ~make_gen:sb_gen ~load:sb_load ~keyspace:(accounts * 3)
      in
      Table.add_row t
        [
          Table.cell_i clients;
          Table.cell_f tatp_cxl;
          Table.cell_f tatp_tbb;
          Table.cell_f sb_cxl;
          Table.cell_f sb_tbb;
        ])
    (kv_clients_list ());
  Table.print t;
  print_endline
    "   (paper: CXL-KV reaches 46-79% of TBB-KV on TATP, 41-70% on Smallbank)"

(* ------------------------------------------------------------------ *)
(* §6.2.2: fault-injection summary                                     *)
(* ------------------------------------------------------------------ *)

let bench_fault () =
  let t =
    Table.create ~title:"§6.2.2: crash-injection validation"
      ~columns:[ "Runs"; "Crashes"; "Leaks"; "Double frees"; "Wild ptrs" ]
  in
  let runs = quick 400 80 in
  let crashes = ref 0 in
  let leaks = ref 0 and dfree = ref 0 and wild = ref 0 in
  for seed = 1 to runs do
    let arena = Shm.create ~cfg:Config.small () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    a.Ctx.fault <- Fault.nth_point ~n:(1 + (seed mod 37));
    let held = ref [] in
    (try
       for i = 1 to 60 do
         let r =
           Shm.cxl_malloc a ~size_bytes:(16 + (i mod 48)) ~emb_cnt:(i mod 3) ()
         in
         held := r :: !held;
         if i mod 3 = 0 then
           match !held with
           | r :: rest ->
               held := rest;
               Cxl_ref.drop r
           | [] -> ()
       done
     with Fault.Crashed _ -> incr crashes);
    let svc = Shm.service_ctx arena in
    Client.declare_failed svc ~cid:a.Ctx.cid;
    ignore (Recovery.recover svc ~failed_cid:a.Ctx.cid);
    Client.declare_failed svc ~cid:b.Ctx.cid;
    ignore (Recovery.recover svc ~failed_cid:b.Ctx.cid);
    ignore (Reclaim.scan_all svc ~is_client_alive:(fun _ -> false));
    let v = Shm.validate arena in
    leaks := !leaks + v.Validate.leaks;
    dfree := !dfree + v.Validate.double_frees;
    wild := !wild + v.Validate.wild_pointers
  done;
  Table.add_row t
    [
      Table.cell_i runs;
      Table.cell_i !crashes;
      Table.cell_i !leaks;
      Table.cell_i !dfree;
      Table.cell_i !wild;
    ];
  Table.print t;
  print_endline "   (paper: >100k fault-injected executions, zero violations)"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* §4.2 ablation: the era-based non-blocking transactions vs the
   lock-based straw-man. Two facets: common-case throughput (similar, as
   the paper argues) and behaviour when a peer dies holding the lock
   (blocking vs non-blocking — the reason CXL-SHM exists). *)
let bench_ablation_locking () =
  let t =
    Table.create ~title:"Ablation (§4.2): era-based vs lock-based refcounting"
      ~columns:[ "Scheme"; "attach+detach Mops"; "live client blocked by dead peer?" ]
  in
  let ops = quick 200_000 40_000 in
  let run_throughput scheme =
    let arena = Shm.create ~cfg:(cxl_shm_cfg 1) () in
    let a = Shm.join arena () in
    let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
    let child = Shm.cxl_malloc a ~size_bytes:8 () in
    let slot = Obj_header.emb_slot (Cxl_ref.obj parent) 0 in
    let obj = Cxl_ref.obj child in
    let ta = Locked_refc.create a in
    Stats.reset a.Ctx.st;
    (match scheme with
    | `Era ->
        for _ = 1 to ops do
          Refc.attach a ~ref_addr:slot ~refed:obj;
          ignore (Refc.detach a ~ref_addr:slot ~refed:obj)
        done
    | `Locked ->
        for _ = 1 to ops do
          Locked_refc.attach ta ~ref_addr:slot ~refed:obj;
          ignore (Locked_refc.detach ta ~ref_addr:slot ~refed:obj)
        done);
    let ns = Stats.modeled_ns (Latency.of_tier Latency.Cxl) a.Ctx.st in
    float_of_int (2 * ops) /. (ns /. 1e3)
  in
  let blocking scheme =
    (* a dies holding its scheme's "commitment"; can b finish an operation
       on the same object before any recovery runs? *)
    let arena = Shm.create ~cfg:(cxl_shm_cfg 2) () in
    let a = Shm.join arena () in
    let b = Shm.join arena () in
    let parent = Shm.cxl_malloc a ~size_bytes:8 ~emb_cnt:1 () in
    let child = Shm.cxl_malloc a ~size_bytes:8 () in
    let obj = Cxl_ref.obj child in
    let slot = Obj_header.emb_slot (Cxl_ref.obj parent) 0 in
    let ta = Locked_refc.create a in
    let tb = Locked_refc.share ta b in
    a.Ctx.fault <- Fault.at Fault.Txn_after_cas ~nth:1;
    (try
       match scheme with
       | `Era -> Refc.attach a ~ref_addr:slot ~refed:obj
       | `Locked -> Locked_refc.attach ta ~ref_addr:slot ~refed:obj
     with Fault.Crashed _ -> ());
    a.Ctx.fault <- Fault.none;
    let parent_b = Shm.cxl_malloc b ~size_bytes:8 ~emb_cnt:1 () in
    let slot_b = Obj_header.emb_slot (Cxl_ref.obj parent_b) 0 in
    match scheme with
    | `Era ->
        Refc.attach b ~ref_addr:slot_b ~refed:obj;
        "no (proceeds immediately)"
    | `Locked ->
        if Locked_refc.attach_bounded tb ~ref_addr:slot_b ~refed:obj ~spins:50_000
        then "no"
        else "YES (spins until recovery)"
  in
  Table.add_row t
    [ "era (CXL-SHM)"; Table.cell_f (run_throughput `Era); blocking `Era ];
  Table.add_row t
    [ "lock (Lightning-style)"; Table.cell_f (run_throughput `Locked); blocking `Locked ];
  Table.print t;
  print_endline
    "   (paper §4.2: the lock-based design has comparable speed but blocks\n\
    \    other clients indefinitely when the holder dies)"

(* §6.1 ablation: CXL 2.0 (explicit CLWB of the RootRef line) vs a CXL 3.0
   / eADR platform where hardware flushes caches on failure. *)
let bench_ablation_eadr () =
  let t =
    Table.create ~title:"Ablation (§6.1): CXL 2.0 flush vs CXL 3.0/eADR"
      ~columns:[ "Mode"; "Threadtest MOPS"; "Flush %" ]
  in
  let model = Latency.of_tier Latency.Cxl in
  List.iter
    (fun (label, eadr) ->
      let arena =
        Shm.create ~cfg:{ (cxl_shm_cfg 1) with Config.eadr } ()
      in
      let ctx = Shm.join arena () in
      Workloads.threadtest
        ~alloc:(fun size -> Shm.cxl_malloc ctx ~size_bytes:size ())
        ~free:Cxl_ref.drop
        ~write:(fun r -> Cxl_ref.write_word r 0 1)
        ~rounds:(tt_rounds ()) ~batch:tt_batch;
      let ns = Stats.modeled_ns model ctx.Ctx.st in
      let access, fence, flush, backoff =
        Stats.breakdown_ns model ctx.Ctx.st
      in
      let total = access +. fence +. flush +. backoff in
      Table.add_row t
        [
          label;
          Table.cell_f
            (float_of_int (workload_ops `Threadtest) /. (ns /. 1e3));
          Table.cell_f (100.0 *. flush /. total);
        ])
    [ ("CXL 2.0 (clwb)", false); ("CXL 3.0 / eADR", true) ];
  Table.print t;
  print_endline
    "   (paper §6.1: the flush accounts for 27-50% of the fast path and\n\
    \    'may not be required in a CXL 3.0 based implementation')"

(* §6.4.1: writer failover / repartitioning is one CAS on the writer
   table — no data moves. Contrast with a shared-nothing design where the
   new owner must copy the partition's records. *)
let bench_repartition () =
  let t =
    Table.create
      ~title:"§6.4.1: writer takeover vs copy-based repartitioning"
      ~columns:
        [
          "Records";
          "CXL-KV takeover µs (modeled)";
          "copy-based repartition µs (modeled)";
        ]
  in
  let model = Latency.of_tier Latency.Cxl in
  List.iter
    (fun records ->
      let arena = Shm.create ~cfg:(kv_cfg 2) () in
      let w0 = Shm.join arena () in
      let w1 = Shm.join arena () in
      let store, h0 =
        Kv.Cxl_kv.create w0 ~buckets:(records * 2) ~partitions:2
          ~value_words:kv_value_words
      in
      ignore (Kv.Cxl_kv.claim_partition h0 0);
      ignore (Kv.Cxl_kv.claim_partition h0 1);
      for key = 0 to records - 1 do
        Kv.Cxl_kv.put h0 ~key ~value:key
      done;
      let h1 = Kv.Cxl_kv.open_store w1 store in
      (* the dead writer's partition moves with one CAS *)
      Stats.reset w1.Ctx.st;
      let ok = Kv.Cxl_kv.takeover_partition h1 0 in
      assert ok;
      let takeover_ns = Stats.modeled_ns model w1.Ctx.st in
      (* shared-nothing equivalent: stream the partition's records to the
         new owner (read + write every word) *)
      let copy_st = Stats.create () in
      let mem = Shm.mem arena in
      let words = records / 2 * (2 + kv_value_words) in
      for i = 0 to words - 1 do
        ignore (Mem.load mem ~st:copy_st (1 + (i mod 1024)));
        Mem.store mem ~st:copy_st (1 + ((i + 512) mod 1024)) 0
      done;
      let copy_ns = Stats.modeled_ns model copy_st in
      Table.add_row t
        [
          Table.cell_i records;
          Table.cell_f (takeover_ns /. 1e3);
          Table.cell_f (copy_ns /. 1e3);
        ])
    (if !full then [ 1_000; 10_000; 50_000 ] else [ 1_000; 10_000 ]);
  Table.print t;
  print_endline
    "   (paper: takeover is quick because no copy-based repartitioning is\n\
    \    needed in the shared-everything architecture — only metadata moves)"

(* Ordered index (lib/structures): point ops + range scans over the
   sorted list vs the hash index — the "dynamic data structures with link
   pointers" capability §2.2.2 motivates. *)
let bench_structures () =
  let t =
    Table.create ~title:"Extension: ordered index (sorted list) on CXL-SHM"
      ~columns:[ "Records"; "insert Kops"; "lookup Kops"; "range-100 Kops" ]
  in
  let module Sl = Cxlshm_structures.Sorted_list in
  let model = Latency.of_tier Latency.Cxl in
  List.iter
    (fun n ->
      let arena = Shm.create ~cfg:(cxl_shm_cfg 1) () in
      let a = Shm.join arena () in
      let l = Sl.create a ~value_words:1 in
      let keys = Array.init n (fun i -> i) in
      (* shuffled insertion order *)
      let rng = Random.State.make [| 7 |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = keys.(i) in
        keys.(i) <- keys.(j);
        keys.(j) <- tmp
      done;
      Stats.reset a.Ctx.st;
      Array.iter (fun k -> ignore (Sl.insert l ~key:k ~value:k)) keys;
      let ins_ns = Stats.modeled_ns model a.Ctx.st in
      Stats.reset a.Ctx.st;
      let lookups = min n 2_000 in
      for i = 1 to lookups do
        ignore (Sl.find l ~key:(i * (n / lookups) mod n))
      done;
      let look_ns = Stats.modeled_ns model a.Ctx.st in
      Stats.reset a.Ctx.st;
      let ranges = 200 in
      for i = 1 to ranges do
        ignore (Sl.range l ~lo:(i mod n) ~hi:((i mod n) + 100))
      done;
      let range_ns = Stats.modeled_ns model a.Ctx.st in
      Table.add_row t
        [
          Table.cell_i n;
          Table.cell_f (float_of_int n /. (ins_ns /. 1e6));
          Table.cell_f (float_of_int lookups /. (look_ns /. 1e6));
          Table.cell_f (float_of_int ranges /. (range_ns /. 1e6));
        ];
      Sl.close l)
    (if !full then [ 500; 2_000; 8_000 ] else [ 500; 2_000 ]);
  Table.print t;
  print_endline
    "   (O(n) list ops — a demonstrator for link-pointer structures, not a\n\
    \    tuned index; range scans amortise the traversal)"

(* YCSB standard presets on CXL-KV. *)
let bench_ycsb_presets () =
  let t =
    Table.create ~title:"Extension: YCSB core workloads on CXL-KV (8 clients)"
      ~columns:[ "Workload"; "MOPS" ]
  in
  let clients = min 8 (max 2 (max_threads ())) in
  List.iter
    (fun preset ->
      (* presets fold into the mix/theta driver *)
      let mix, theta =
        match preset with
        | Kv.Ycsb.A -> (0.5, 0.99)
        | Kv.Ycsb.B -> (0.05, 0.99)
        | Kv.Ycsb.C -> (0.0, 0.99)
        | Kv.Ycsb.D -> (0.05, 0.9)
        | Kv.Ycsb.F -> (0.5, 0.99)
      in
      let m =
        run_cxl_kv ~clients ~ops:(quick 60_000 10_000) ~mix ~theta ~keys:32_768 ()
      in
      Table.add_row t [ Kv.Ycsb.preset_name preset; Table.cell_f m ])
    [ Kv.Ycsb.A; Kv.Ycsb.B; Kv.Ycsb.C; Kv.Ycsb.D; Kv.Ycsb.F ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (wall-clock, statistically sampled)       *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let arena = Shm.create ~cfg:(cxl_shm_cfg 1) () in
  let ctx = Shm.join arena () in
  let alloc_free =
    Test.make ~name:"cxl_malloc+drop (64B)"
      (Staged.stage (fun () ->
           let r = Shm.cxl_malloc ctx ~size_bytes:64 () in
           Cxl_ref.drop r))
  in
  let parent = Shm.cxl_malloc ctx ~size_bytes:8 ~emb_cnt:1 () in
  let child = Shm.cxl_malloc ctx ~size_bytes:8 () in
  let attach_detach =
    Test.make ~name:"era attach+detach"
      (Staged.stage (fun () ->
           Cxl_ref.set_emb parent 0 child;
           Cxl_ref.clear_emb parent 0))
  in
  let mem = Mem.create ~tier:Latency.Cxl ~words:1024 () in
  let st = Stats.create () in
  let q = Spsc.create mem ~st ~base:8 ~capacity:64 in
  let spsc =
    Test.make ~name:"spsc push+pop"
      (Staged.stage (fun () ->
           Spsc.push q ~st 1;
           ignore (Spsc.pop q ~st)))
  in
  let mim = Mim.create ~words:300_000 ~threads:1 in
  let mth = Mim.thread mim 0 in
  let mimalloc =
    Test.make ~name:"mimalloc-baseline alloc+free (64B)"
      (Staged.stage (fun () ->
           let b = Mim.alloc mth ~size_bytes:64 in
           Mim.free mth b))
  in
  let tests =
    Test.make_grouped ~name:"cxlshm" [ alloc_free; attach_detach; spsc; mimalloc ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "== Bechamel micro-benchmarks (wall ns/op) ==";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-40s %10.1f ns\n" name est
      | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
    results;
  Cxl_ref.drop parent;
  Cxl_ref.drop child

(* ------------------------------------------------------------------ *)
(* Backends: flat vs striped multi-device pools                        *)
(* ------------------------------------------------------------------ *)

(* One client runs an alloc/write/drop loop on each backend. The single-
   device variants measure the dispatch overhead of the backend seam (their
   modeled clocks must agree); the 4-device variants contrast placement on a
   pool with one DRAM-class device among CXL expanders: the first joiner's
   home device (cid 0 -> device 0) is the near device in one case and a far
   one in the other, with the difference carried by the xdev counters.
   Results also land in BENCH_backends.json for machines to read. *)
let bench_backends () =
  let striped devices tiers = Mem.Striped { devices; stripe_words = 0; tiers } in
  let cases =
    [
      ("flat", Latency.Cxl, Mem.Flat);
      ("striped-1dev", Latency.Cxl, striped 1 [||]);
      ("striped-4dev-uniform", Latency.Cxl, striped 4 [||]);
      ( "striped-4dev-near-home",
        Latency.Local_numa,
        striped 4 [| Latency.Local_numa; Latency.Cxl; Latency.Cxl; Latency.Cxl |]
      );
      ( "striped-4dev-far-home",
        Latency.Local_numa,
        striped 4 [| Latency.Cxl; Latency.Local_numa; Latency.Cxl; Latency.Cxl |]
      );
      ("counting-fast", Latency.Cxl, Mem.Counting_fast);
    ]
  in
  let rounds = quick 30_000 6_000 in
  let run_case ~trace (label, tier, backend) =
    let cfg = { (cxl_shm_cfg 1) with Config.tier; backend; trace } in
    let arena = Shm.create ~cfg () in
    let a = Shm.join arena () in
    let before = Stats.copy a.Ctx.st in
    let (), wall_ns =
      Runner.time_wall (fun () ->
          let held = Array.make 64 None in
          for i = 0 to rounds - 1 do
            let slot = i mod 64 in
            (match held.(slot) with Some r -> Cxl_ref.drop r | None -> ());
            let r = Shm.cxl_malloc a ~size_bytes:64 () in
            Cxl_ref.write_word r 0 i;
            held.(slot) <- Some r
          done;
          Array.iter (function Some r -> Cxl_ref.drop r | None -> ()) held)
    in
    let d = Stats.diff a.Ctx.st before in
    let modeled_ns = Stats.modeled_ns (Latency.of_tier tier) d in
    let name = Mem.backend_name (Shm.mem arena) in
    let hists = a.Ctx.hists in
    Shm.leave a;
    (label, name, wall_ns, modeled_ns, d.Stats.xdev_accesses, d.Stats.xdev_ns,
     hists)
  in
  let rows = List.map (run_case ~trace:false) cases in
  (* Same cases with spans live: the histograms supply the percentiles and
     the modeled clocks must come out identical (ring writes are
     control-plane, never priced). *)
  let rows_on = List.map (run_case ~trace:true) cases in
  let clock_identical =
    List.for_all2
      (fun (_, _, _, m_off, _, _, _) (_, _, _, m_on, _, _, _) ->
        Float.abs (m_off -. m_on) < 1e-6)
      rows rows_on
  in
  (* Disabled-trace overhead, measured rather than asserted: the cost of the
     span branch itself (with_span with tracing off vs a direct call),
     scaled by the spans one alloc/write/drop round actually executes. *)
  let span_branch_ns =
    let arena = Shm.create ~cfg:(cxl_shm_cfg 1) () in
    let a = Shm.join arena () in
    let n = 2_000_000 in
    let f () = Sys.opaque_identity 0 in
    let (), base_ns =
      Runner.time_wall (fun () ->
          for _ = 1 to n do
            ignore (f ())
          done)
    in
    let (), span_ns =
      Runner.time_wall (fun () ->
          for _ = 1 to n do
            ignore (Trace.with_span a Histogram.Rootref f)
          done)
    in
    Shm.leave a;
    Float.max 0. ((span_ns -. base_ns) /. float_of_int n)
  in
  let spans_per_round =
    match rows_on with
    | (_, _, _, _, _, _, hists) :: _ ->
        let total =
          Array.fold_left (fun acc h -> acc + Histogram.count h) 0 hists
        in
        float_of_int total /. float_of_int rounds
    | [] -> 0.
  in
  let wall_off_flat =
    match rows with (_, _, w, _, _, _, _) :: _ -> w | [] -> 1.
  in
  let disabled_overhead_pct =
    span_branch_ns *. spans_per_round
    /. (wall_off_flat /. float_of_int rounds)
    *. 100.
  in
  let enabled_overhead_pct =
    let sum sel l =
      List.fold_left (fun acc r -> acc +. sel r) 0. l
    in
    let w_off = sum (fun (_, _, w, _, _, _, _) -> w) rows in
    let w_on = sum (fun (_, _, w, _, _, _, _) -> w) rows_on in
    (w_on -. w_off) /. w_off *. 100.
  in
  Printf.printf "single client, %d alloc/write/drop rounds\n" rounds;
  Printf.printf "%-24s %-14s %10s %12s %14s\n" "case" "backend" "Mops(wall)"
    "ns/op(model)" "xdev";
  List.iter
    (fun (label, name, wall_ns, modeled_ns, xa, xns, _) ->
      Printf.printf "%-24s %-14s %10.2f %12.1f %8d %+.0fns\n" label name
        (float_of_int rounds /. (wall_ns /. 1e3))
        (modeled_ns /. float_of_int rounds)
        xa xns)
    rows;
  Printf.printf
    "trace: span branch %.2fns x %.1f spans/round -> %.3f%% off-overhead; \
     %+.1f%% wall when enabled; modeled clock identical: %b\n"
    span_branch_ns spans_per_round disabled_overhead_pct enabled_overhead_pct
    clock_identical;
  let percentiles_json hists =
    let parts =
      List.filter_map
        (fun op ->
          let h = hists.(Histogram.op_index op) in
          if Histogram.count h = 0 then None
          else
            Some
              (Printf.sprintf
                 "\"%s\": {\"count\": %d, \"p50\": %.1f, \"p95\": %.1f, \
                  \"p99\": %.1f}"
                 (Histogram.op_name op) (Histogram.count h) (Histogram.p50 h)
                 (Histogram.p95 h) (Histogram.p99 h)))
        Histogram.all_ops
    in
    "{" ^ String.concat ", " parts ^ "}"
  in
  let oc = open_out "BENCH_backends.json" in
  Printf.fprintf oc "{\n  \"experiment\": \"backends\",\n  \"rounds\": %d,\n  \"results\": [\n"
    rounds;
  List.iteri
    (fun i ((label, name, wall_ns, modeled_ns, xa, xns, _),
            (_, _, _, _, _, _, hists_on)) ->
      Printf.fprintf oc
        "    {\"case\": %S, \"backend\": %S, \"ops\": %d, \"wall_ns\": %.0f, \
         \"ops_per_sec\": %.0f, \"modeled_ns\": %.1f, \"modeled_ns_per_op\": \
         %.2f, \"xdev_accesses\": %d, \"xdev_ns\": %.1f, \"percentiles\": \
         %s}%s\n"
        label name rounds wall_ns
        (float_of_int rounds /. (wall_ns /. 1e9))
        modeled_ns
        (modeled_ns /. float_of_int rounds)
        xa xns
        (percentiles_json hists_on)
        (if i = List.length rows - 1 then "" else ","))
    (List.combine rows rows_on);
  Printf.fprintf oc
    "  ],\n\
    \  \"trace\": {\"span_branch_ns\": %.3f, \"spans_per_round\": %.2f, \
     \"disabled_trace_overhead_pct\": %.4f, \"enabled_overhead_pct\": %.2f, \
     \"modeled_clock_identical\": %b}\n\
     }\n"
    span_branch_ns spans_per_round disabled_overhead_pct enabled_overhead_pct
    clock_identical;
  close_out oc;
  Printf.printf "wrote BENCH_backends.json\n"

(* ------------------------------------------------------------------ *)
(* Fast path: client-local cache tier + batched transfer               *)
(* ------------------------------------------------------------------ *)

(* Exact shared-word traffic of the two fast paths (alloc/free and
   reference transfer), measured on the counting backend with the cache
   tier off vs on, and single-message vs batched transfer. Words/op are
   raw backend word operations — deterministic, so the committed
   BENCH_fastpath.json doubles as a regression baseline for CI. *)
let bench_fastpath () =
  let module Bc = Cxlshm_shmem.Backend_counting in
  let model = Latency.of_tier Latency.Cxl in
  let rounds = quick 20_000 4_000 in
  let batch = 16 in
  let msgs = rounds / batch * batch in
  (* [Config.default] now enables epoch batching and sharded class heads;
     the legacy columns pin both off so the cache-tier numbers stay
     comparable with the committed baseline, and the epoch columns measure
     the full fast path (cache + batched retirement + sharding). *)
  let fp_cfg ?(epoch = false) cache =
    let base =
      { (cxl_shm_cfg 2) with Config.backend = Mem.Counting_fast; cache }
    in
    if epoch then base
    else { base with Config.epoch_batch = 0; num_domains = 0 }
  in
  let bd_words (b : Bc.breakdown) = b.loads + b.stores + b.cass + b.faas in
  let bd_sub (a : Bc.breakdown) (b : Bc.breakdown) : Bc.breakdown =
    {
      loads = a.loads - b.loads;
      stores = a.stores - b.stores;
      cass = a.cass - b.cass;
      faas = a.faas - b.faas;
      fences = a.fences - b.fences;
      flushes = a.flushes - b.flushes;
    }
  in
  (* alloc/free fast path: steady-state 64 B alloc + drop *)
  let measure_alloc ?epoch ~cache () =
    let arena = Shm.create ~cfg:(fp_cfg ?epoch cache) () in
    let a = Shm.join arena () in
    let mem = Shm.mem arena in
    for _ = 1 to 64 do
      Cxl_ref.drop (Shm.cxl_malloc a ~size_bytes:64 ())
    done;
    let b0 = Option.get (Mem.op_breakdown mem) in
    let st0 = Stats.copy a.Ctx.st in
    for _ = 1 to rounds do
      Cxl_ref.drop (Shm.cxl_malloc a ~size_bytes:64 ())
    done;
    let d = bd_sub (Option.get (Mem.op_breakdown mem)) b0 in
    let ns = Stats.modeled_ns model (Stats.diff a.Ctx.st st0) in
    let per c = float_of_int c /. float_of_int rounds in
    (per (bd_words d), per d.Bc.fences, ns /. float_of_int rounds)
  in
  (* transfer fast path: sender publishes, receiver consumes, in lockstep *)
  let measure_transfer ?epoch ~cache ~batched () =
    let arena = Shm.create ~cfg:(fp_cfg ?epoch cache) () in
    let s = Shm.join arena () in
    let r = Shm.join arena () in
    let tx = Transfer.connect s ~receiver:r.Ctx.cid ~capacity:(2 * batch) in
    let rx = Option.get (Transfer.open_from r ~sender:s.Ctx.cid) in
    let payloads =
      List.init batch (fun _ -> Shm.cxl_malloc s ~size_bytes:64 ())
    in
    let p0 = List.hd payloads in
    let drain_one () =
      match Transfer.receive rx with
      | Transfer.Received rr -> Cxl_ref.drop rr
      | Transfer.Empty | Transfer.Drained -> assert false
    in
    for _ = 1 to batch do
      (match Transfer.send tx p0 with Transfer.Sent -> () | _ -> assert false);
      drain_one ()
    done;
    let mem = Shm.mem arena in
    let b0 = Option.get (Mem.op_breakdown mem) in
    let st0s = Stats.copy s.Ctx.st and st0r = Stats.copy r.Ctx.st in
    if batched then
      for _ = 1 to msgs / batch do
        let n, res = Transfer.send_batch tx payloads in
        assert (n = batch && res = Transfer.Sent);
        match Transfer.receive_batch rx ~max:batch with
        | Transfer.Received_batch rs ->
            assert (List.length rs = batch);
            List.iter Cxl_ref.drop rs
        | Transfer.Batch_empty | Transfer.Batch_drained -> assert false
      done
    else
      for _ = 1 to msgs do
        (match Transfer.send tx p0 with
        | Transfer.Sent -> ()
        | _ -> assert false);
        drain_one ()
      done;
    let d = bd_sub (Option.get (Mem.op_breakdown mem)) b0 in
    let acc = Stats.diff s.Ctx.st st0s in
    Stats.add acc (Stats.diff r.Ctx.st st0r);
    let ns = Stats.modeled_ns model acc in
    let per c = float_of_int c /. float_of_int msgs in
    (per (bd_words d), per d.Bc.fences, ns /. float_of_int msgs)
  in
  (* limbo: a single writer COW-updates [limbo_keys] keys round-robin and
     quiesces every [limbo_quiesce_every] updates; each call's modeled ns
     is priced on its own, so the worst call shows whether one reclamation
     pass frees a backlog at once *)
  let limbo_updates = 4_096 and limbo_keys = 1_024 in
  let limbo_quiesce_every = 256 in
  let measure_limbo () =
    let arena = Shm.create ~cfg:(fp_cfg ~epoch:true true) () in
    let w = Shm.join arena () in
    let _, h =
      Kv.Cxl_kv.create w ~buckets:limbo_keys ~partitions:1 ~value_words:1
    in
    assert (Kv.Cxl_kv.claim_partition h 0);
    for key = 0 to limbo_keys - 1 do
      Kv.Cxl_kv.put h ~key ~value:key
    done;
    let total = ref 0.0 and worst = ref 0.0 in
    let call f =
      let st0 = Stats.copy w.Ctx.st in
      f ();
      let ns = Stats.modeled_ns model (Stats.diff w.Ctx.st st0) in
      total := !total +. ns;
      worst := Float.max !worst ns
    in
    for i = 1 to limbo_updates do
      call (fun () -> Kv.Cxl_kv.put_cow h ~key:(i mod limbo_keys) ~value:i);
      if i mod limbo_quiesce_every = 0 then
        call (fun () -> Kv.Cxl_kv.quiesce h)
    done;
    (!total /. float_of_int limbo_updates, !worst)
  in
  let aw_off, af_off, ans_off = measure_alloc ~cache:false () in
  let aw_on, af_on, ans_on = measure_alloc ~cache:true () in
  let aw_ep, af_ep, ans_ep = measure_alloc ~epoch:true ~cache:true () in
  let tw_off, tf_off, tns_off =
    measure_transfer ~cache:false ~batched:false ()
  in
  let tw_on, tf_on, tns_on = measure_transfer ~cache:true ~batched:false () in
  let tw_ep, tf_ep, tns_ep =
    measure_transfer ~epoch:true ~cache:true ~batched:false ()
  in
  let bw_on, bf_on, bns_on = measure_transfer ~cache:true ~batched:true () in
  let bw_ep, bf_ep, bns_ep =
    measure_transfer ~epoch:true ~cache:true ~batched:true ()
  in
  let limbo_ns, limbo_max_ns = measure_limbo () in
  let red a b = 100.0 *. (a -. b) /. a in
  let t =
    Table.create ~title:"Fast path: shared-word traffic (counting backend)"
      ~columns:[ "Path"; "words/op"; "fences/op"; "modeled ns/op" ]
  in
  List.iter
    (fun (label, w, f, ns) ->
      Table.add_row t
        [ label; Table.cell_f w; Table.cell_f f; Table.cell_f ns ])
    [
      ("alloc+free, cache off", aw_off, af_off, ans_off);
      ("alloc+free, cache on", aw_on, af_on, ans_on);
      ("alloc+free, epoch on", aw_ep, af_ep, ans_ep);
      ("transfer single, cache off", tw_off, tf_off, tns_off);
      ("transfer single, cache on", tw_on, tf_on, tns_on);
      ("transfer single, epoch on", tw_ep, tf_ep, tns_ep);
      (Printf.sprintf "transfer batch=%d, cache on" batch, bw_on, bf_on, bns_on);
      (Printf.sprintf "transfer batch=%d, epoch on" batch, bw_ep, bf_ep, bns_ep);
    ];
  Table.print t;
  Printf.printf
    "alloc words/op -%.1f%%, transfer single words/op -%.1f%%, batched \
     -%.1f%% (vs cache-off single)\n"
    (red aw_off aw_on) (red tw_off tw_on) (red tw_off bw_on);
  Printf.printf
    "epoch batching: alloc fences/op %.3f -> %.3f, transfer single \
     fences/op %.3f -> %.3f\n"
    af_on af_ep tf_on tf_ep;
  Printf.printf
    "limbo: %d COW updates on %d keys, quiesce every %d: %.2f modeled \
     ns/update (quiesces included), largest single call %.2f ns\n"
    limbo_updates limbo_keys limbo_quiesce_every limbo_ns limbo_max_ns;
  let oc = open_out "BENCH_fastpath.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"fastpath\",\n\
    \  \"rounds\": %d,\n\
    \  \"batch\": %d,\n\
    \  \"alloc\": {\n\
    \    \"cache_off\": {\"words_per_op\": %.3f, \"fences_per_op\": %.3f, \
     \"modeled_ns_per_op\": %.2f},\n\
    \    \"cache_on\": {\"words_per_op\": %.3f, \"fences_per_op\": %.3f, \
     \"modeled_ns_per_op\": %.2f},\n\
    \    \"epoch_on\": {\"words_per_op\": %.3f, \"fences_per_op\": %.3f, \
     \"modeled_ns_per_op\": %.2f},\n\
    \    \"words_reduction_pct\": %.1f\n\
    \  },\n\
    \  \"transfer\": {\n\
    \    \"single_cache_off\": {\"words_per_op\": %.3f, \"fences_per_op\": \
     %.3f, \"modeled_ns_per_op\": %.2f},\n\
    \    \"single_cache_on\": {\"words_per_op\": %.3f, \"fences_per_op\": \
     %.3f, \"modeled_ns_per_op\": %.2f},\n\
    \    \"single_epoch_on\": {\"words_per_op\": %.3f, \"fences_per_op\": \
     %.3f, \"modeled_ns_per_op\": %.2f},\n\
    \    \"batch_cache_on\": {\"words_per_op\": %.3f, \"fences_per_op\": \
     %.3f, \"modeled_ns_per_op\": %.2f},\n\
    \    \"batch_epoch_on\": {\"words_per_op\": %.3f, \"fences_per_op\": \
     %.3f, \"modeled_ns_per_op\": %.2f},\n\
    \    \"words_reduction_pct\": %.1f,\n\
    \    \"batched_words_reduction_pct\": %.1f\n\
    \  },\n\
    \  \"limbo\": {\"updates\": %d, \"keys\": %d, \"quiesce_every\": %d, \
     \"ns_per_update\": %.2f, \"max_call_ns\": %.2f}\n\
     }\n"
    rounds batch aw_off af_off ans_off aw_on af_on ans_on aw_ep af_ep ans_ep
    (red aw_off aw_on) tw_off tf_off tns_off tw_on tf_on tns_on tw_ep tf_ep
    tns_ep bw_on bf_on bns_on bw_ep bf_ep bns_ep (red tw_off tw_on)
    (red tw_off bw_on) limbo_updates limbo_keys limbo_quiesce_every limbo_ns
    limbo_max_ns;
  close_out oc;
  Printf.printf "wrote BENCH_fastpath.json\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", bench_table1);
    ("fig6-threadtest", bench_fig6 `Threadtest "Fig 6 (left): Threadtest allocator throughput (MOPS)");
    ("fig6-shbench", bench_fig6 `Shbench "Fig 6 (right): Shbench allocator throughput (MOPS)");
    ("fig7", bench_fig7);
    ("recovery", bench_recovery);
    ("leak-scan", bench_leak_scan);
    ("fig8-clients", bench_fig8_clients);
    ("fig8-payload", bench_fig8_payload);
    ("rpc", bench_rpc);
    ("fig9-wordcount", bench_fig9_wordcount);
    ("fig9-kmeans", bench_fig9_kmeans);
    ("fig10a", bench_fig10a);
    ("fig10b", bench_fig10b);
    ("fig10c", bench_fig10c);
    ("fig10d", bench_fig10d);
    ("fault", bench_fault);
    ("ablation-locking", bench_ablation_locking);
    ("ablation-eadr", bench_ablation_eadr);
    ("repartition", bench_repartition);
    ("structures", bench_structures);
    ("ycsb-presets", bench_ycsb_presets);
    ("backends", bench_backends);
    ("fastpath", bench_fastpath);
  ]

let () =
  let only = ref None in
  let bechamel = ref false in
  let list_only = ref false in
  let args =
    [
      ("--only", Arg.String (fun s -> only := Some s), "ID  run one experiment");
      ("--full", Arg.Set full, " larger parameter sweeps");
      ("--bechamel", Arg.Set bechamel, " run Bechamel micro-benchmarks");
      ("--list", Arg.Set list_only, " list experiment ids");
    ]
  in
  Arg.parse args (fun _ -> ()) "cxlshm benchmark harness";
  if !list_only then List.iter (fun (id, _) -> print_endline id) experiments
  else if !bechamel then bechamel_suite ()
  else begin
    let todo =
      match !only with
      | None -> experiments
      | Some id -> (
          match List.assoc_opt id experiments with
          | Some f -> [ (id, f) ]
          | None ->
              Printf.eprintf "unknown experiment %s; use --list\n" id;
              exit 1)
    in
    List.iter
      (fun (id, f) ->
        Printf.printf "\n---- %s ----\n%!" id;
        let _, ns = Runner.time_wall f in
        Printf.printf "   [%s took %.1f s]\n%!" id (ns /. 1e9))
      todo
  end
