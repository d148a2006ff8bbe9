(* Printing, result files, and comparing two sets of result files. *)

type better = Lower | Higher

(* The gated end-to-end metrics: name, unit, direction, and the share of
   the baseline median by which a change may worsen it. Mirrors
   BENCHMARK.json. *)
let gated =
  [
    ("mean_us", "us", Lower, 0.10);
    ("p99_us", "us", Lower, 0.12);
    ("write_p99_us", "us", Lower, 0.22);
    ("slo_rate_mops", "Mops", Higher, 0.06);
    ("recovery_us", "us", Lower, 0.08);
    ("mem_mib", "MiB", Lower, 0.10);
    ("setup_s", "s", Lower, 0.25);
  ]

(* Shortest decimal that reads back as the same float. *)
let num v =
  if not (Float.is_finite v) then invalid_arg "Report.num: non-finite metric"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p v in
      if p >= 17 || float_of_string s = v then s else go (p + 1)
    in
    go 1

let print_metric workload (m : Run.metric) =
  Printf.printf "%-10s %-38s %s %s%s\n" workload m.Run.name (num m.Run.value) m.Run.unit
    (if m.Run.n >= 0 && m.Run.beyond >= 0 then
       Printf.sprintf "  (n=%d, %d beyond)" m.Run.n m.Run.beyond
     else if m.Run.n >= 0 then Printf.sprintf "  (n=%d)" m.Run.n
     else "")

let json_metrics ?(detail = false) (ms : Run.metric list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : Run.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S%s}" m.Run.name (num m.Run.value)
             m.Run.unit
             (if detail && m.Run.n >= 0 then
                Printf.sprintf ", \"n\": %d, \"beyond\": %d" m.Run.n m.Run.beyond
              else ""))
         ms)
  ^ "}"

let json_ints kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) kvs) ^ "}"

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    attempted failed (json_metrics ms)

let write_result path ~workload ~seed ~seconds ~traced ~correct ~attempted ~failed ~checks
    ~e2e ~extras ~layers =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d,\n \"correct\": %b, \
     \"attempted\": %d, \"failed\": %d,\n \"checks\": %s,\n \"metrics\": %s,\n \"extras\": \
     %s,\n \"layers\": %s}\n"
    workload seed (num seconds) (if traced then 1 else 0) correct attempted failed
    (json_ints checks) (json_metrics ~detail:true e2e) (json_metrics ~detail:true extras)
    (json_metrics layers);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reading result files back                                           *)
(* ------------------------------------------------------------------ *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let parse_json s =
  let n = String.length s and i = ref 0 in
  let fail () = failwith (Printf.sprintf "bad JSON at offset %d" !i) in
  let rec ws () = if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; ws ()) in
  let expect c = ws (); if !i < n && s.[!i] = c then incr i else fail () in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while !i < n && s.[!i] <> '"' do
      if s.[!i] = '\\' && !i + 1 < n then begin
        Buffer.add_char b (match s.[!i + 1] with 'n' -> '\n' | 't' -> '\t' | c -> c);
        i := !i + 2
      end
      else (Buffer.add_char b s.[!i]; incr i)
    done;
    expect '"';
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !i >= n then fail ();
    match s.[!i] with
    | '{' ->
        incr i;
        ws ();
        if s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            if s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        ws ();
        if s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if s.[!i] = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> i := !i + 4; Bool true
    | 'f' -> i := !i + 5; Bool false
    | 'n' -> i := !i + 4; Null
    | _ ->
        let j = !i in
        while !i < n && String.contains "+-0123456789.eE" s.[!i] do incr i done;
        (match float_of_string_opt (String.sub s j (!i - j)) with
        | Some f -> Num f
        | None -> fail ())
  in
  value ()

let field k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let values_of j section =
  match field section j with
  | Some (Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match field "value" v with Some (Num f) -> Some (k, f) | _ -> None)
        kvs
  | _ -> []

type loaded = { lw : string; lseed : int; e2e : (string * float) list; layers : (string * float) list }

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse_json s in
  {
    lw = (match field "workload" j with Some (Str w) -> w | _ -> failwith (path ^ ": no workload"));
    lseed = (match field "seed" j with Some (Num f) -> int_of_float f | _ -> 0);
    e2e = values_of j "metrics";
    layers = values_of j "layers";
  }

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)
(* ------------------------------------------------------------------ *)

(* Median and quartiles as Python's statistics.quantiles(n=4) gives them. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q k =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (k * m / 4)) in
      let delta = float_of_int ((k * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs = let _, m, _ = quartiles xs in m

let rel a b = if a = b then 0.0 else if a = 0.0 then Float.infinity else (b -. a) /. Float.abs a

let compare_files a_paths b_paths =
  let a = List.map load a_paths and b = List.map load b_paths in
  let workloads = List.sort_uniq compare (List.map (fun l -> l.lw) (a @ b)) in
  let worst = ref 0 in
  List.iter
    (fun w ->
      let side xs = List.sort (fun x y -> compare x.lseed y.lseed) (List.filter (fun l -> l.lw = w) xs) in
      let sa = side a and sb = side b in
      if sa <> [] && sb <> [] then
        List.iter
          (fun (name, unit, better, bound) ->
            let vals s = List.filter_map (fun l -> List.assoc_opt name l.e2e) s in
            let va = vals sa and vb = vals sb in
            if va <> [] && vb <> [] then begin
              let q1a, ma, q3a = quartiles va and q1b, mb, q3b = quartiles vb in
              let sign = match better with Lower -> 1.0 | Higher -> -1.0 in
              let worse_by = sign *. rel ma mb in
              let spread = if ma = 0.0 then 0.0 else (q3a -. q1a) /. Float.abs ma in
              let k = min (List.length va) (List.length vb) in
              let prefix = List.filteri (fun i _ -> i < k) in
              let pairs = List.combine (prefix va) (prefix vb) in
              let wins = List.length (List.filter (fun (x, y) -> sign *. (y -. x) < 0.0) pairs) in
              let all_better =
                List.for_all (fun y -> List.for_all (fun x -> sign *. (y -. x) < 0.0) va) vb
              in
              let verdict =
                if worse_by > bound then "worse"
                else if
                  (-.worse_by > spread && 10 * wins >= 9 * List.length pairs && wins > 0)
                  || all_better
                then "better"
                else if spread > bound then "unresolved"
                else "same"
              in
              if verdict = "worse" then worst := 1;
              Printf.printf
                "%-10s %-14s A %s [%s, %s]  B %s [%s, %s] %s  delta %+.2f%% (bound %.0f%%)  %s\n"
                w name (num ma) (num q1a) (num q3a) (num mb) (num q1b) (num q3b) unit
                (100.0 *. sign *. worse_by) (100.0 *. bound) verdict;
              if ma <> mb then begin
                let layer_medians s =
                  List.concat_map (fun l -> l.layers) s
                  |> List.map fst |> List.sort_uniq compare
                  |> List.map (fun k ->
                         (k, median (List.filter_map (fun l -> List.assoc_opt k l.layers) s)))
                in
                let la = layer_medians sa and lb = layer_medians sb in
                let moved =
                  List.filter_map
                    (fun (k, x) ->
                      match List.assoc_opt k lb with
                      | Some y when x <> y -> Some (k, rel x y)
                      | _ -> None)
                    la
                  |> List.sort (fun (_, x) (_, y) -> Float.compare (Float.abs y) (Float.abs x))
                  |> List.filteri (fun i _ -> i < 3)
                in
                if moved = [] then print_endline "    layers: none moved (or no traced results given)"
                else
                  Printf.printf "    layers: %s\n"
                    (String.concat ", "
                       (List.map
                          (fun (k, r) ->
                            if Float.is_finite r then Printf.sprintf "%s %+.1f%%" k (100.0 *. r)
                            else k ^ " (from 0)")
                          moved))
              end
            end)
          gated)
    workloads;
  !worst
