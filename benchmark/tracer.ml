(* Traced-run instrumentation, all of it on the benchmark's side of the
   library boundary: every call into a layer is bracketed with Stats
   snapshots of the calling client, giving per-call modeled time and word
   traffic, and the calls of each request become spans on the modeled
   timeline. Probing only reads counters, so the modeled clock of a traced
   run is bit-identical to an untraced one. *)

module Stats = Cxlshm_shmem.Stats
module Latency = Cxlshm_shmem.Latency

(* The layer calls reported per call; other timed calls appear in spans. *)
let reported_calls =
  [
    "kv.get"; "kv.put"; "kv.put_cow"; "kv.rmw"; "kv.quiesce"; "kv.open_store";
    "kv.adopt_recovered"; "kv.handoff_deferred"; "kv.takeover_partition";
    "core.join"; "core.heartbeat"; "core.check_once"; "core.recover_suspects";
    "rpc.alloc_arg"; "rpc.call_async"; "rpc.serve_one"; "rpc.finish"; "rpc.connect";
  ]

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let a = Array.sub v.a 0 v.n in
    Array.sort Float.compare a;
    a
end

type call = {
  mutable calls : int;
  mutable ns : float;
  samples : Fvec.t;
  mutable words : int;
  mutable fences : int;
}

type snap = {
  hits : int;
  seq : int;
  rand : int;
  cas : int;
  cas_hit : int;
  cas_fail : int;
  fences : int;
  flushes : int;
  xdev_ns : float;
  backoff_ns : float;
}

let snap (st : Stats.t) =
  {
    hits = st.cache_hits;
    seq = st.seq_accesses;
    rand = st.rand_accesses;
    cas = st.cas_ops;
    cas_hit = st.cas_hit_ops;
    cas_fail = st.cas_failures;
    fences = st.fences;
    flushes = st.flushes;
    xdev_ns = st.xdev_ns;
    backoff_ns = st.backoff_ns;
  }

let zero_stats = Stats.create ()
let zero_snap = snap zero_stats
let zero_probe = Stats.probe zero_stats

type span = { name : string; t0 : int; t1 : int; parent : int }
(** [parent] indexes the span's group; -1 marks the group's root. *)

type group = { req : int; spans : span array }

let slowest_kept = 1000

type t = {
  model : Latency.t;
  calls : (string, call) Hashtbl.t;
  mutable recording : bool;
  acc : Stats.t;  (** counter totals over recorded calls *)
  mutable st : Stats.t;  (** client of the item being executed *)
  mutable before : Stats.probe;
  mutable cur : (string * int * int) list;  (** calls: name, offsets (ps) *)
  mutable req_items : (int * (string * int * int) list) list;
  heap_lat : int array;  (** min-heap of the slowest requests *)
  heap_grp : group array;
  mutable heap_n : int;
  mutable churn : group list;
}

let create model =
  {
    model;
    calls = Hashtbl.create 32;
    recording = false;
    acc = Stats.create ();
    st = zero_stats;
    before = zero_probe;
    cur = [];
    req_items = [];
    heap_lat = Array.make slowest_kept 0;
    heap_grp = Array.make slowest_kept { req = 0; spans = [||] };
    heap_n = 0;
    churn = [];
  }

let begin_item t st before =
  t.st <- st;
  t.before <- before;
  t.cur <- []

let offset t = Qmodel.ps_of_ns (Stats.probe_ns t.model t.st ~since:t.before)

let record t name ~(s0 : snap) ~probe0 ~start_off =
  let st = t.st in
  t.cur <- (name, start_off, offset t) :: t.cur;
  if t.recording then begin
    let c =
      match Hashtbl.find_opt t.calls name with
      | Some c -> c
      | None ->
          let c =
            { calls = 0; ns = 0.0; samples = Fvec.create (); words = 0; fences = 0 }
          in
          Hashtbl.add t.calls name c;
          c
    in
    let ns = Stats.probe_ns t.model st ~since:probe0 in
    let s1 = snap st in
    c.calls <- c.calls + 1;
    c.ns <- c.ns +. ns;
    Fvec.push c.samples ns;
    c.words <-
      c.words + (s1.hits - s0.hits) + (s1.seq - s0.seq) + (s1.rand - s0.rand)
      + (s1.cas - s0.cas) + (s1.cas_hit - s0.cas_hit);
    c.fences <- c.fences + (s1.fences - s0.fences);
    let a = t.acc in
    a.cache_hits <- a.cache_hits + (s1.hits - s0.hits);
    a.seq_accesses <- a.seq_accesses + (s1.seq - s0.seq);
    a.rand_accesses <- a.rand_accesses + (s1.rand - s0.rand);
    a.cas_ops <- a.cas_ops + (s1.cas - s0.cas);
    a.cas_hit_ops <- a.cas_hit_ops + (s1.cas_hit - s0.cas_hit);
    a.cas_failures <- a.cas_failures + (s1.cas_fail - s0.cas_fail);
    a.fences <- a.fences + (s1.fences - s0.fences);
    a.flushes <- a.flushes + (s1.flushes - s0.flushes);
    a.xdev_ns <- a.xdev_ns +. (s1.xdev_ns -. s0.xdev_ns);
    a.backoff_ns <- a.backoff_ns +. (s1.backoff_ns -. s0.backoff_ns)
  end

(* Time one layer call on the current item's client. *)
let call t name f =
  let s0 = snap t.st and probe0 = Stats.probe t.st in
  let start_off = offset t in
  let r = f () in
  record t name ~s0 ~probe0 ~start_off;
  r

(* A fresh client's whole history is its [Shm.join]. *)
let joined t = record t "core.join" ~s0:zero_snap ~probe0:zero_probe ~start_off:0

(* Absolute call spans of the item just charged as [id]. *)
let item_calls t q id =
  let start = Qmodel.item_start q id in
  let calls =
    List.rev_map (fun (name, a, b) -> (name, start + a, start + b)) t.cur
  in
  t.cur <- [];
  calls

let request_item t q id = t.req_items <- (id, item_calls t q id) :: t.req_items

let heap_swap t i j =
  let l = t.heap_lat.(i) and g = t.heap_grp.(i) in
  t.heap_lat.(i) <- t.heap_lat.(j);
  t.heap_grp.(i) <- t.heap_grp.(j);
  t.heap_lat.(j) <- l;
  t.heap_grp.(j) <- g

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.heap_n && t.heap_lat.(l) < t.heap_lat.(i) then l else i in
  let m = if r < t.heap_n && t.heap_lat.(r) < t.heap_lat.(m) then r else m in
  if m <> i then begin
    heap_swap t i m;
    sift_down t m
  end

let rec sift_up t i =
  let p = (i - 1) / 2 in
  if i > 0 && t.heap_lat.(i) < t.heap_lat.(p) then begin
    heap_swap t i p;
    sift_up t p
  end

let request_group q ~op ~name items =
  let arrival = Qmodel.arrival q op in
  let fin = Qmodel.item_fin q (fst (List.hd items)) in
  let children =
    List.concat_map
      (fun (id, calls) ->
        let ready = Qmodel.item_ready q id and start = Qmodel.item_start q id in
        let queue =
          if start > ready then
            [ { name = "queue." ^ Qmodel.role_name (Qmodel.item_role q id);
                t0 = ready; t1 = start; parent = 0 } ]
          else []
        in
        queue
        @ List.map (fun (n, a, b) -> { name = n; t0 = a; t1 = b; parent = 0 }) calls)
      (List.rev items)
  in
  { req = op; spans = Array.of_list ({ name; t0 = arrival; t1 = fin; parent = -1 } :: children) }

(* Close the current request: keep its spans if it is among the slowest. *)
let end_request t q ~op ~name =
  let items = t.req_items in
  t.req_items <- [];
  if t.recording && items <> [] then begin
    let lat = Qmodel.live_latency q op in
    if t.heap_n < slowest_kept then begin
      t.heap_lat.(t.heap_n) <- lat;
      t.heap_grp.(t.heap_n) <- request_group q ~op ~name items;
      t.heap_n <- t.heap_n + 1;
      sift_up t (t.heap_n - 1)
    end
    else if lat > t.heap_lat.(0) then begin
      t.heap_lat.(0) <- lat;
      t.heap_grp.(0) <- request_group q ~op ~name items;
      sift_down t 0
    end
  end

let add_churn t ~req ~name ~t0 ~t1 children =
  let kids = List.map (fun (n, a, b) -> { name = n; t0 = a; t1 = b; parent = 0 }) children in
  t.churn <- { req; spans = Array.of_list ({ name; t0; t1; parent = -1 } :: kids) } :: t.churn

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Self time: duration minus the union of the children's intervals. *)
let self_ps (g : group) i =
  let s = g.spans.(i) in
  let kids =
    Array.to_list g.spans
    |> List.filteri (fun j c -> j <> i && c.parent = i)
    |> List.map (fun c -> (max s.t0 c.t0, min s.t1 c.t1))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) kids
  in
  s.t1 - s.t0 - covered

let write_spans t path =
  let dur g = g.spans.(0).t1 - g.spans.(0).t0 in
  let groups =
    List.rev t.churn
    @ List.sort
        (fun a b -> compare (dur b) (dur a))
        (Array.to_list (Array.sub t.heap_grp 0 t.heap_n))
  in
  let oc = open_out path in
  output_string oc "{\"spans\": [";
  let next = ref 0 and first = ref true in
  List.iter
    (fun g ->
      let base = !next in
      Array.iteri
        (fun i s ->
          if not !first then output_string oc ",";
          first := false;
          Printf.fprintf oc
            "\n {\"req\": %d, \"id\": %d, \"parent\": %s, \"name\": %S, \
             \"start_ns\": %.3f, \"end_ns\": %.3f, \"self_ns\": %.3f}"
            g.req (base + i)
            (if s.parent < 0 then "null" else string_of_int (base + s.parent))
            s.name
            (float_of_int s.t0 /. 1000.0)
            (float_of_int s.t1 /. 1000.0)
            (float_of_int (self_ps g i) /. 1000.0))
        g.spans;
      next := base + Array.length g.spans)
    groups;
  output_string oc "\n]}\n";
  close_out oc

(* Per-call and shared-word metrics; [ops] is the recorded request count. *)
let metrics t ~ops =
  let per_op x = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let calls =
    List.concat_map
      (fun name ->
        let c, s =
          match Hashtbl.find_opt t.calls name with
          | Some c -> (c, Fvec.sorted c.samples)
          | None ->
              ({ calls = 0; ns = 0.0; samples = Fvec.create (); words = 0; fences = 0 }, [||])
        in
        let n = c.calls in
        let p99 =
          if n = 0 then 0.0 else s.(max 1 (((990 * n) + 999) / 1000) - 1)
        in
        [
          (name ^ ".calls", float_of_int n, "count");
          (name ^ ".ns_mean", (if n = 0 then 0.0 else c.ns /. float_of_int n), "ns");
          (name ^ ".ns_p99", p99, "ns");
          (name ^ ".words_per_call", ratio c.words n, "words");
          (name ^ ".fences_per_call", ratio c.fences n, "fences");
        ])
      reported_calls
  in
  let a = t.acc in
  let access, fence, flush, backoff = Stats.breakdown_ns t.model a in
  let total = access +. fence +. flush +. backoff in
  let share x = if total = 0.0 then 0.0 else x /. total in
  calls
  @ [
      ("shmem.hit_ratio", ratio a.cache_hits (Stats.total_accesses a), "ratio");
      ("shmem.rand_per_op", per_op a.rand_accesses, "words");
      ("shmem.seq_per_op", per_op a.seq_accesses, "words");
      ("shmem.cas_per_op", per_op (a.cas_ops + a.cas_hit_ops), "ops");
      ("shmem.cas_fail_ratio", ratio a.cas_failures (a.cas_ops + a.cas_hit_ops), "ratio");
      ("shmem.fences_per_op", per_op a.fences, "fences");
      ("shmem.flushes_per_op", per_op a.flushes, "flushes");
      ("shmem.access_ns_share", share access, "ratio");
      ("shmem.fence_ns_share", share fence, "ratio");
      ("shmem.flush_ns_share", share flush, "ratio");
    ]
