type tier = Local_numa | Remote_numa | Cxl

let tier_name = function
  | Local_numa -> "local NUMA"
  | Remote_numa -> "remote NUMA"
  | Cxl -> "CXL"

let all_tiers = [ Local_numa; Remote_numa; Cxl ]

type t = {
  hit_ns : float;
  seq_ns : float;
  rand_ns : float;
  rand_tp_ns : float;
  cas_ns : float;
  cas_hit_ns : float;
  fence_ns : float;
  flush_ns : float;
}

(* Calibrated to Table 1: sequential/random/CAS MOPS of 5200/562/3.3 (local),
   4312/350/3.3 (remote NUMA) and 1487/250/3.3 (CXL); random latencies
   110/200/390 ns. CAS throughput is latency-bound on all tiers in the
   paper's measurement, hence a flat ~303 ns. Fence and flush costs follow
   the Fig 7 breakdown where one clwb accounts for 27-50% of the CXL-SHM
   allocation fast path and the sfence for <5%. *)
let of_tier = function
  | Local_numa ->
      {
        hit_ns = 3.0;
        seq_ns = 1_000.0 /. 5200.0;
        rand_ns = 110.0;
        rand_tp_ns = 1_000.0 /. 562.0;
        cas_ns = 303.0;
        cas_hit_ns = 40.0;
        fence_ns = 6.0;
        flush_ns = 60.0;
      }
  | Remote_numa ->
      {
        hit_ns = 3.0;
        seq_ns = 1_000.0 /. 4312.0;
        rand_ns = 200.0;
        rand_tp_ns = 1_000.0 /. 350.0;
        cas_ns = 303.0;
        cas_hit_ns = 40.0;
        fence_ns = 6.0;
        (* this tier doubles as Optane-class pmem; a persist-grade
           write-back there costs several hundred ns *)
        flush_ns = 250.0;
      }
  | Cxl ->
      {
        hit_ns = 3.0;
        seq_ns = 1_000.0 /. 1487.0;
        rand_ns = 390.0;
        rand_tp_ns = 1_000.0 /. 250.0;
        cas_ns = 303.0;
        cas_hit_ns = 40.0;
        fence_ns = 6.0;
        flush_ns = 110.0;
      }

let table1_mops tier =
  let m = of_tier tier in
  (1_000.0 /. m.seq_ns, 1_000.0 /. m.rand_tp_ns, 1_000.0 /. m.cas_ns)

let table1_latency_ns tier = (of_tier tier).rand_ns
