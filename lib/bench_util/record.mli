(** Bench records: the one schema of every gated bench output.

    A bench file ([BENCH_*.json]) is a JSON array with one flat record per
    line:

    {v
[
{"experiment": "rpc", "metric": "fanin.8.cxl_kops", "unit": "KOPS", "better": "higher", "value": 5669.64, "budget_pct": 5, "bound": null},
...
]
    v}

    [better] names the direction a change is judged in; [budget_pct] is the
    largest move against that direction, in percent of the baseline value,
    that the gate allows ([equal] is checked both ways); [bound] is an
    absolute ceiling ([lower]), floor ([higher]) or exact value ([equal]).
    Either may be [null]: a record with neither is reported, not gated.
    The experiment that writes a record also writes its budget and bound,
    so loosening one is a code diff. A boolean is a [higher] record of
    value 1 or 0 with bound 1. *)

type better = Lower | Higher | Equal

type t = {
  experiment : string;
  metric : string;
  unit : string;
  better : better;
  value : float;
  budget_pct : float option;
  bound : float option;
}

val make :
  experiment:string ->
  ?decimals:int ->
  ?budget_pct:float ->
  ?bound:float ->
  string ->
  unit:string ->
  better ->
  float ->
  t
(** [make ~experiment metric ~unit better v] is a record of [v] rounded to
    [decimals] places (default 3) the way [Printf "%.*f"] rounds, so the
    file holds exactly the figure the experiment prints. *)

val of_bool : bool -> float
(** 1 for true, 0 for false. *)

val to_string : t list -> string
val write : string -> t list -> unit
(** [write path records] writes the bench file. *)

val of_string : string -> t list
(** Parse a bench file's contents. Raises [Failure] on malformed input. *)

val read : string -> t list

(** {1 The gate} *)

type check = { metric : string; ok : bool; line : string }
(** One gated record (or one baseline metric missing from the fresh file)
    and its verdict line. *)

val gate : ?baseline:t list -> t list -> check list
(** [gate ?baseline fresh] checks each fresh record that carries a budget
    or a bound, in file order, then each baseline metric that [fresh]
    lacks. A record fails when it moved past [budget_pct] against the
    baseline record of the same experiment and metric, or past its
    [bound]. Budgets and bounds come from the fresh records. *)
