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

let make ~experiment ?(decimals = 3) ?budget_pct ?bound metric ~unit better v
    =
  let value = float_of_string (Printf.sprintf "%.*f" decimals v) in
  { experiment; metric; unit; better; value; budget_pct; bound }

let of_bool b = if b then 1. else 0.

let better_name = function
  | Lower -> "lower"
  | Higher -> "higher"
  | Equal -> "equal"

let better_of_name = function
  | "lower" -> Lower
  | "higher" -> Higher
  | "equal" -> Equal
  | s -> failwith ("Record: unknown better " ^ s)

(* The shortest decimal that reads back as [x]. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 1

let opt_number = function None -> "null" | Some x -> number x

let line r =
  Printf.sprintf
    "{\"experiment\": %S, \"metric\": %S, \"unit\": %S, \"better\": %S, \
     \"value\": %s, \"budget_pct\": %s, \"bound\": %s}"
    r.experiment r.metric r.unit (better_name r.better) (number r.value)
    (opt_number r.budget_pct) (opt_number r.bound)

let to_string rs = "[\n" ^ String.concat ",\n" (List.map line rs) ^ "\n]\n"

let write path rs =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string rs))

(* A reader for exactly what [to_string] writes: an array of flat objects
   whose values are strings, numbers or null. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what =
    failwith (Printf.sprintf "Record.of_string: %s at byte %d" what !pos)
  in
  let rec peek () =
    if !pos >= n then None
    else
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          peek ()
      | c -> Some c
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' when !pos + 1 < n ->
            Buffer.add_char b s.[!pos + 1];
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let value () =
    if peek () = Some '"' then `String (string_lit ())
    else begin
      let start = !pos in
      while !pos < n && not (String.contains ",}] \t\n\r" s.[!pos]) do
        incr pos
      done;
      match String.sub s start (!pos - start) with
      | "null" -> `Null
      | tok -> (
          match float_of_string_opt tok with
          | Some x -> `Number x
          | None -> fail ("bad value " ^ tok))
    end
  in
  let obj () =
    expect '{';
    let rec fields acc =
      let k = string_lit () in
      expect ':';
      let acc = (k, value ()) :: acc in
      if peek () = Some ',' then (
        incr pos;
        fields acc)
      else (
        expect '}';
        acc)
    in
    let kv = fields [] in
    let field k =
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> fail ("missing field " ^ k)
    in
    let str k =
      match field k with `String v -> v | _ -> fail (k ^ " not a string")
    in
    let opt k =
      match List.assoc_opt k kv with
      | None | Some `Null -> None
      | Some (`Number x) -> Some x
      | Some (`String _) -> fail (k ^ " not a number")
    in
    {
      experiment = str "experiment";
      metric = str "metric";
      unit = str "unit";
      better = better_of_name (str "better");
      value = (match opt "value" with Some x -> x | None -> fail "no value");
      budget_pct = opt "budget_pct";
      bound = opt "bound";
    }
  in
  expect '[';
  let rec items acc =
    let acc = obj () :: acc in
    if peek () = Some ',' then (
      incr pos;
      items acc)
    else List.rev acc
  in
  let rs = if peek () = Some ']' then [] else items [] in
  expect ']';
  if peek () <> None then fail "trailing input";
  rs

let read path = of_string (In_channel.with_open_bin path In_channel.input_all)

type check = { metric : string; ok : bool; line : string }

let within_budget better ~base ~budget v =
  let slack = Float.abs base *. budget /. 100. in
  match better with
  | Lower -> v -. base <= slack
  | Higher -> base -. v <= slack
  | Equal -> Float.abs (v -. base) <= slack

let within_bound better ~bound v =
  match better with
  | Lower -> v <= bound
  | Higher -> v >= bound
  | Equal -> v = bound

let key (r : t) = (r.experiment, r.metric)

let check_one ~baseline (r : t) =
  let base = Option.bind baseline (List.find_opt (fun b -> key b = key r)) in
  let budget_part, budget_ok =
    match (r.budget_pct, base) with
    | None, _ -> ([], true)
    | Some _, None when baseline = None -> ([], true)
    | Some _, None -> ([ "no baseline record" ], true)
    | Some budget, Some (b : t) ->
        let d = r.value -. b.value in
        let move =
          if b.value = 0. then Printf.sprintf "%+g" d
          else Printf.sprintf "%+.1f%%" (d /. Float.abs b.value *. 100.)
        in
        let sign =
          match r.better with Lower -> "+" | Higher -> "-" | Equal -> "±"
        in
        ( [
            Printf.sprintf "baseline %s, %s, budget %s%s%%" (number b.value)
              move sign (number budget);
          ],
          within_budget r.better ~base:b.value ~budget r.value )
  in
  let bound_part, bound_ok =
    match r.bound with
    | None -> ([], true)
    | Some bound ->
        let rel =
          match r.better with Lower -> "<=" | Higher -> ">=" | Equal -> "="
        in
        ( [ Printf.sprintf "bound %s %s" rel (number bound) ],
          within_bound r.better ~bound r.value )
  in
  let ok = budget_ok && bound_ok in
  let why =
    (if budget_ok then [] else [ "moved past its budget" ])
    @ if bound_ok then [] else [ "past its bound" ]
  in
  {
    metric = r.metric;
    ok;
    line =
      Printf.sprintf "%-4s %s %s = %s %s (%s)%s"
        (if ok then "ok" else "FAIL")
        r.experiment r.metric (number r.value) r.unit
        (String.concat "; " (budget_part @ bound_part))
        (if ok then "" else ": " ^ String.concat ", " why);
  }

let gate ?baseline fresh =
  let gated =
    List.filter
      (fun (r : t) -> r.budget_pct <> None || r.bound <> None)
      fresh
  in
  let missing =
    List.filter
      (fun b -> not (List.exists (fun r -> key r = key b) fresh))
      (Option.value baseline ~default:[])
  in
  List.map (check_one ~baseline) gated
  @ List.map
      (fun (b : t) ->
        {
          metric = b.metric;
          ok = false;
          line =
            Printf.sprintf
              "FAIL %s %s: in the baseline, missing from the fresh file"
              b.experiment b.metric;
        })
      missing
