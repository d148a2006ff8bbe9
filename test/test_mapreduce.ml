(* CXL-MapReduce vs sequential oracle and the Phoenix baseline. *)

open Cxlshm
module Mr = Cxlshm_mapreduce.Cxl_mapreduce
module Mr_job = Cxlshm_mapreduce.Mr_job
module Phoenix = Cxlshm_mapreduce.Phoenix
module Textgen = Cxlshm_mapreduce.Textgen

let mr_cfg =
  {
    Config.default with
    Config.num_segments = 128;
    pages_per_segment = 8;
    page_words = 512;
    max_clients = 16;
  }

let sequential_wordcount chunks =
  let job = Mr_job.wordcount ~vocab:max_int in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun c ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + (try Hashtbl.find tbl k with Not_found -> 0)))
        (job.Mr_job.map c))
    chunks;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let test_textgen () =
  let corpus = Textgen.generate ~words:500 ~vocab:50 ~seed:1 in
  let tokens = String.split_on_char ' ' corpus in
  Alcotest.(check int) "word count" 500 (List.length tokens);
  List.iter
    (fun t -> Alcotest.(check bool) ("token " ^ t) true (t.[0] = 'w'))
    tokens;
  let chunks = Textgen.chunks corpus ~chunk_bytes:256 in
  Alcotest.(check bool) "several chunks" true (List.length chunks > 1);
  (* No token is split across chunks: re-joining gives the same corpus. *)
  Alcotest.(check string) "chunks rejoin" corpus (String.concat " " chunks)

let test_phoenix_wordcount () =
  let corpus = Textgen.generate ~words:2_000 ~vocab:100 ~seed:2 in
  let chunks = List.map Bytes.of_string (Textgen.chunks corpus ~chunk_bytes:512) in
  let expected = sequential_wordcount chunks in
  let got = Phoenix.run ~executors:4 ~chunks ~job:(Mr_job.wordcount ~vocab:max_int) in
  Alcotest.(check (list (pair int int))) "phoenix = oracle" expected got

let test_cxl_wordcount () =
  let arena = Shm.create ~cfg:mr_cfg () in
  let master = Shm.join arena () in
  let corpus = Textgen.generate ~words:2_000 ~vocab:100 ~seed:3 in
  let raw = List.map Bytes.of_string (Textgen.chunks corpus ~chunk_bytes:512) in
  let expected = sequential_wordcount raw in
  let session = Mr.start ~arena ~master ~executors:3 in
  let chunks = List.map (Mr.store_chunk master) raw in
  let got = Mr.wordcount session ~chunks ~vocab:200 in
  Mr.stop session;
  Alcotest.(check (list (pair int int))) "cxl-mapreduce = oracle" expected got;
  List.iter Cxl_ref.drop chunks;
  Shm.leave master;
  (* All executor clients left cleanly; reap leftover queue state. *)
  let svc = Shm.service_ctx arena in
  for cid = 0 to mr_cfg.Config.max_clients - 1 do
    if Client.status svc ~cid <> Client.Slot_free then begin
      Client.declare_failed svc ~cid;
      ignore (Recovery.recover svc ~failed_cid:cid)
    end
  done;
  ignore (Shm.scan_leaking arena);
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v)

(* A phase longer than a channel's sub-heap holds: the example's geometry
   with a 60,000-word corpus gives 112 chunks over 3 executors, whose
   outputs do not all fit in flight at once. *)
let test_cxl_wordcount_long_phase () =
  let cfg =
    { Config.default with
      Config.max_clients = 8; num_segments = 256; pages_per_segment = 8 }
  in
  let arena = Shm.create ~cfg () in
  let master = Shm.join arena () in
  let corpus = Textgen.generate ~words:60_000 ~vocab:500 ~seed:7 in
  let raw = List.map Bytes.of_string (Textgen.chunks corpus ~chunk_bytes:2048) in
  Alcotest.(check int) "chunks" 112 (List.length raw);
  let session = Mr.start ~arena ~master ~executors:3 in
  let chunks = List.map (Mr.store_chunk master) raw in
  let got = Mr.wordcount session ~chunks ~vocab:500 in
  Mr.stop session;
  Alcotest.(check (list (pair int int))) "cxl-mapreduce = oracle"
    (sequential_wordcount raw) got;
  List.iter Cxl_ref.drop chunks;
  Shm.leave master

let test_kmeans_points_roundtrip () =
  let points = Array.init 20 (fun i -> Array.init 4 (fun d -> (i * 10) + d)) in
  let decoded = Mr_job.decode_points (Mr_job.encode_points points) ~dims:4 in
  Alcotest.(check bool) "points roundtrip" true (points = decoded)

let test_cxl_kmeans_converges () =
  let arena = Shm.create ~cfg:mr_cfg () in
  let master = Shm.join arena () in
  (* Two well-separated clusters in 2-D. *)
  let rng = Random.State.make [| 9 |] in
  let points =
    Array.init 200 (fun i ->
        let cx = if i mod 2 = 0 then 10_000 else 90_000 in
        Array.init 2 (fun _ -> cx + Random.State.int rng 1000))
  in
  let chunk_pts n = Array.sub points (n * 50) 50 in
  let raw = List.init 4 (fun n -> Mr_job.encode_points (chunk_pts n)) in
  let session = Mr.start ~arena ~master ~executors:2 in
  let chunks = List.map (Mr.store_chunk master) raw in
  let centroids = Mr.kmeans session ~chunks ~k:2 ~dims:2 ~iters:20 in
  Mr.stop session;
  List.iter Cxl_ref.drop chunks;
  let sorted = Array.copy centroids in
  Array.sort compare sorted;
  Alcotest.(check bool)
    (Printf.sprintf "centroid 0 near 10500 (got %d)" sorted.(0).(0))
    true
    (abs (sorted.(0).(0) - 10_500) < 1_500);
  Alcotest.(check bool)
    (Printf.sprintf "centroid 1 near 90500 (got %d)" sorted.(1).(0))
    true
    (abs (sorted.(1).(0) - 90_500) < 1_500)

let test_phoenix_kmeans_matches () =
  (* One iteration of the assign step must agree between Phoenix and the
     sequential oracle. *)
  let centroids = [| [| 0; 0 |]; [| 100; 100 |] |] in
  let points = Array.init 40 (fun i -> [| i * 5; i * 5 |]) in
  let job = Mr_job.kmeans_assign ~centroids ~dims:2 in
  let chunks =
    [ Mr_job.encode_points (Array.sub points 0 20);
      Mr_job.encode_points (Array.sub points 20 20) ]
  in
  let seq =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun c ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tbl k (v + (try Hashtbl.find tbl k with Not_found -> 0)))
          (job.Mr_job.map c))
      chunks;
    List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) tbl [])
  in
  let par = Phoenix.run ~executors:2 ~chunks ~job in
  Alcotest.(check (list (pair int int))) "phoenix kmeans = oracle" seq par

let suite =
  [
    Alcotest.test_case "textgen" `Quick test_textgen;
    Alcotest.test_case "phoenix wordcount" `Quick test_phoenix_wordcount;
    Alcotest.test_case "cxl wordcount" `Quick test_cxl_wordcount;
    Alcotest.test_case "cxl wordcount, long phase" `Quick
      test_cxl_wordcount_long_phase;
    Alcotest.test_case "kmeans points roundtrip" `Quick test_kmeans_points_roundtrip;
    Alcotest.test_case "cxl kmeans converges" `Quick test_cxl_kmeans_converges;
    Alcotest.test_case "phoenix kmeans = oracle" `Quick test_phoenix_kmeans_matches;
  ]
