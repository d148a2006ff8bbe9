exception Crashed of string

type point =
  | Alloc_after_rootref
  | Alloc_after_link
  | Alloc_after_advance
  | Alloc_after_header
  | Txn_after_redo
  | Txn_after_cas
  | Txn_after_modify_ref
  | Release_before_reclaim
  | Release_mid_reclaim
  | Send_after_attach
  | Recv_after_attach
  | Recv_after_detach
  | Recv_after_advance
  | Slowpath_after_page_claim
  | Slowpath_after_segment_claim
  | Free_huge_mid_release
  | Free_huge_after_reset
  | Recovery_mid_phases
  | Swap_after_link
  | Swap_after_store
  | Retire_after_seal
  | Retire_mid_batch
  | Retire_after_batch
  | Lead_after_acquire
  | Lead_after_depose
  | Evac_after_copy
  | Evac_after_repoint
  | Evac_before_release
  | Park_after_append
  | Adopt_after_claim
  | Rpc_before_status

let point_name = function
  | Alloc_after_rootref -> "alloc-after-rootref"
  | Alloc_after_link -> "alloc-after-link"
  | Alloc_after_advance -> "alloc-after-advance"
  | Alloc_after_header -> "alloc-after-header"
  | Txn_after_redo -> "txn-after-redo"
  | Txn_after_cas -> "txn-after-cas"
  | Txn_after_modify_ref -> "txn-after-modify-ref"
  | Release_before_reclaim -> "release-before-reclaim"
  | Release_mid_reclaim -> "release-mid-reclaim"
  | Send_after_attach -> "send-after-attach"
  | Recv_after_attach -> "recv-after-attach"
  | Recv_after_detach -> "recv-after-detach"
  | Recv_after_advance -> "recv-after-advance"
  | Slowpath_after_page_claim -> "slowpath-after-page-claim"
  | Slowpath_after_segment_claim -> "slowpath-after-segment-claim"
  | Free_huge_mid_release -> "free-huge-mid-release"
  | Free_huge_after_reset -> "free-huge-after-reset"
  | Recovery_mid_phases -> "recovery-mid-phases"
  | Swap_after_link -> "swap-after-link"
  | Swap_after_store -> "swap-after-store"
  | Retire_after_seal -> "retire-after-seal"
  | Retire_mid_batch -> "retire-mid-batch"
  | Retire_after_batch -> "retire-after-batch"
  | Lead_after_acquire -> "lead-after-acquire"
  | Lead_after_depose -> "lead-after-depose"
  | Evac_after_copy -> "evac-after-copy"
  | Evac_after_repoint -> "evac-after-repoint"
  | Evac_before_release -> "evac-before-release"
  | Park_after_append -> "park-after-append"
  | Adopt_after_claim -> "adopt-after-claim"
  | Rpc_before_status -> "rpc-before-status"

let all_points =
  [
    Alloc_after_rootref;
    Alloc_after_link;
    Alloc_after_advance;
    Alloc_after_header;
    Txn_after_redo;
    Txn_after_cas;
    Txn_after_modify_ref;
    Release_before_reclaim;
    Release_mid_reclaim;
    Send_after_attach;
    Recv_after_attach;
    Recv_after_detach;
    Recv_after_advance;
    Slowpath_after_page_claim;
    Slowpath_after_segment_claim;
    Free_huge_mid_release;
    Free_huge_after_reset;
    Recovery_mid_phases;
    Swap_after_link;
    Swap_after_store;
    Retire_after_seal;
    Retire_mid_batch;
    Retire_after_batch;
    Lead_after_acquire;
    Lead_after_depose;
    Evac_after_copy;
    Evac_after_repoint;
    Evac_before_release;
    Park_after_append;
    Adopt_after_claim;
    Rpc_before_status;
  ]

type mode =
  | Never
  | At of point * int
  | Random of Random.State.t * int * float (* state, seed, probability *)
  | Nth of int

type plan = { mode : mode; mutable seen : int; counts : (point, int) Hashtbl.t }

let make mode = { mode; seen = 0; counts = Hashtbl.create 8 }
let none = make Never
let at p ~nth = make (At (p, nth))

let random ~seed ~probability =
  make (Random (Random.State.make [| seed |], seed, probability))

let nth_point ~n = make (Nth n)
let hits plan = plan.seen

(* Scheduler observation hook: the [lib/check] explorer registers here so
   labeled crash points double as named yield points — even under a [Never]
   plan, every critical window becomes a place the cooperative scheduler can
   preempt or kill the running logical client. *)
let on_point : (point -> unit) option ref = ref None

let maybe_crash plan point =
  (match !on_point with Some f -> f point | None -> ());
  plan.seen <- plan.seen + 1;
  let count = (try Hashtbl.find plan.counts point with Not_found -> 0) + 1 in
  Hashtbl.replace plan.counts point count;
  let fire =
    match plan.mode with
    | Never -> false
    | At (p, nth) -> p = point && count = nth
    | Random (st, _, p) -> Random.State.float st 1.0 < p
    | Nth n -> plan.seen = n
  in
  if fire then
    match plan.mode with
    | Random (_, seed, _) ->
        (* A random firing is only useful if it can be replayed: the n-th
           overall hit is exactly what [nth_point ~n] re-fires. *)
        raise
          (Crashed
             (Printf.sprintf "%s (replay: seed=%d, nth_point ~n:%d)"
                (point_name point) seed plan.seen))
    | Never | At _ | Nth _ -> raise (Crashed (point_name point))
