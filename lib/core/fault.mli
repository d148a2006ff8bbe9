(** Crash-point fault injection (§6.2.2).

    The paper validates recovery correctness by compiling the system with a
    flag that injects "randomly bring down the current client" snippets at
    every critical point of allocation, refcount maintenance and reference
    exchange, then checking post-crash invariants. We reproduce that: every
    critical point in the core calls {!maybe_crash} with a label; a
    {!plan} decides whether the client "dies" there, which raises
    {!Crashed}. The harness catches it, abandons the client's local state and
    runs the recovery service. *)

exception Crashed of string

(** Labels for every crash point in the core. One constructor per distinct
    window between two shared-memory effects, so a plan can target any
    interleaving the paper's fault test can reach. *)
type point =
  | Alloc_after_rootref          (** RootRef carved, nothing linked yet *)
  | Alloc_after_link             (** rr.pptr written, page free not advanced *)
  | Alloc_after_advance          (** free ptr advanced, header not initialised *)
  | Alloc_after_header           (** header written, CXLRef not yet returned *)
  | Txn_after_redo               (** redo record written, CAS not attempted *)
  | Txn_after_cas                (** ModifyRefCnt committed, ModifyRef pending *)
  | Txn_after_modify_ref         (** ModifyRef done, era not yet advanced *)
  | Release_before_reclaim       (** count hit zero, block not yet reclaimed *)
  | Release_mid_reclaim          (** block partially pushed to a free list *)
  | Send_after_attach            (** queue slot holds the ref, tail not moved *)
  | Recv_after_advance           (** head advanced and flushed, result not
                                     yet returned to the caller *)
  | Slowpath_after_page_claim    (** page kind set, free chain incomplete *)
  | Slowpath_after_segment_claim (** segment CAS won, none of its pages
                                     claimed yet *)
  | Free_huge_mid_release        (** huge free: some tail segments released,
                                     head metadata still intact *)
  | Free_huge_after_reset        (** huge free: head pages wiped, head
                                     segment not yet released *)
  | Recovery_mid_phases          (** recovery service dies mid-recovery *)
  | Swap_after_link              (** count-neutral swap: RootRef relinked,
                                     reference word not yet stored *)
  | Swap_after_store             (** count-neutral swap: reference word
                                     stored, era not yet advanced *)
  | Retire_after_seal            (** retirement batch sealed in the journal,
                                     no entry processed yet *)
  | Retire_mid_batch             (** some retirement entries processed, the
                                     journal still sealed *)
  | Retire_after_batch           (** all entries processed and write-backs
                                     drained, journal not yet cleared *)
  | Lead_after_acquire           (** monitor won the leader CAS (election or
                                     deposition), no recovery started yet *)
  | Lead_after_depose            (** expired leader deposed and recovery
                                     resumed mid-flight, lease not yet
                                     renewed by the new leader *)
  | Park_after_append            (** limbo entry committed (stamp fenced,
                                     rr published), the object not yet
                                     unlinked and the volatile list not
                                     yet updated *)
  | Adopt_after_claim            (** successor won an orphaned limbo row's
                                     claim CAS, its entries not yet taken
                                     over *)
  | Rpc_before_status            (** RPC server wrote the in-place outputs
                                     and fenced, completion status not yet
                                     raised *)

val point_name : point -> string
val all_points : point list

type plan

val none : plan
(** Never crash. *)

val at : point -> nth:int -> plan
(** Crash at the [nth] (1-based) occurrence of [point]. *)

val random : seed:int -> probability:float -> plan
(** Crash independently at each point with the given probability. When such
    a plan fires, the {!Crashed} message carries the seed and the overall
    hit number so the crash replays deterministically via {!nth_point}. *)

val nth_point : n:int -> plan
(** Crash at the [n]-th crash-point hit overall (1-based), whatever its
    label — the paper's "inject at all the critical points" sweep. The plan
    is a pure function of the execution, so it needs no seed. *)

val maybe_crash : plan -> point -> unit
(** Raises {!Crashed} if the plan fires at this point. *)

val on_point : (point -> unit) option ref
(** Observation hook called by {!maybe_crash} before the plan is consulted.
    The [lib/check] scheduler installs itself here so every labeled crash
    point is also a named preemption point; [None] (the default) costs one
    branch. Global process state — single-domain harnesses only. *)

val hits : plan -> int
(** Number of crash points evaluated so far (to size [nth_point] sweeps). *)
