(** The must-fail mutation table: the one list of the explorer's
    self-checks.

    Each row re-introduces one real, previously fixed ordering bug behind
    a test-only flag (the flag keeps its home module and its use sites)
    and names every bounded search that must catch it. A search that can
    no longer find the bug it was built to catch proves nothing, so the
    tests run every row through {!must_fail}, and [cxlshm explore
    --mutate NAME] sets a row's flag by name. *)

type mode =
  | Exhaustive of int  (** preemption bound *)
  | Random of { seed : int; schedules : int }

type search = {
  model : string;  (** a {!Scenarios.names} entry *)
  capacity : int option;
  values : int option;
  rounds : int option;  (** the sizes {!Scenarios.find} takes *)
  mode : mode;
  max_steps : int;  (** fuel per run *)
}
(** Every search injects crashes. *)

type row = {
  name : string;  (** the [--mutate] name *)
  bug : string;  (** what the test case says it finds *)
  flag : bool ref;
  reason : string option;  (** a substring every failure's reason holds *)
  searches : search list;
}

val rows : row list

val names : string list
(** Every row's name, in [rows] order. *)

val find : string -> row
(** Raises [Invalid_argument] listing {!names} for an unknown name. *)

val with_flag : bool ref -> (unit -> 'a) -> 'a
(** Run with the flag set, and clear it however the function returns. *)

val must_fail : row -> unit
(** With the row's flag set, run each of its searches and require a
    failure whose reason holds the row's substring and whose printed
    schedule replays to the same reason. Raises [Failure] naming the
    first search that does not. *)
