(** KV control-plane soak: writer killed mid-quiesce, its orphaned limbo
    rows adopted by a successor.

    The deterministic drill behind [cxlshm monitor --kill-writer]: a COW
    churn workload on a 4-device striped pool, a reader pinning a hazard
    era mid-walk, the writer killed at the first free inside its
    reclamation pass ({!Cxlshm.Fault.Release_mid_reclaim}), monitor
    condemnation and recovery (rows orphaned in place), successor
    takeover and {!Cxl_kv.adopt_recovered}. A passing run crashed the
    writer, adopted every record its orphaned rows held, freed no
    era-pinned record, and leaves the arena fsck-clean with counts
    matching reachability. *)

type report = {
  ka_seed : int;
  ka_steps : int;
  ka_writer_cid : int;
  ka_writer_crashed : bool;  (** died at the armed mid-quiesce crash point *)
  ka_orphaned : int;  (** records recovery left in orphaned limbo rows *)
  ka_adopted : int;  (** records the successor adopted with those rows *)
  ka_pinned : int;  (** records still era-pinned when the writer died *)
  ka_pinned_freed : int;  (** pinned records found freed — must be 0 *)
  ka_clean : bool;  (** post-fsck validation *)
}

val writer_kill_adopt : ?steps:int -> seed:int -> unit -> report
(** Deterministic in [seed]; [steps] sizes the steady churn phase. *)

val pp_report : Format.formatter -> report -> unit
