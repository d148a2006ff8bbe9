open Cxlshm
open Cxlshm_rpc
module Mem = Cxlshm_shmem.Mem

type session = {
  arena : Shm.arena;
  master : Ctx.t;
  clients : Cxl_rpc.client array;
  stops : bool Atomic.t;
  domains : unit Domain.t list;
}

let executors s = Array.length s.clients

(* ------------------------------------------------------------------ *)
(* Chunk objects: word 0 = byte length, payload from word 1.           *)
(* ------------------------------------------------------------------ *)

let store_chunk ctx b =
  let len = Bytes.length b in
  let data_words = 1 + Mem.bytes_words len in
  let r = Shm.cxl_malloc_words ctx ~data_words () in
  Cxl_ref.write_word r 0 len;
  let base = Obj_header.data_of_obj (Cxl_ref.obj r) + 1 in
  Mem.write_bytes ctx.Ctx.mem ~st:ctx.Ctx.st ~lines:ctx.Ctx.lines base b;
  r

let chunk_bytes v =
  let len = Message.read_word v 0 in
  Message.read_bytes_at v ~word_off:1 ~len

(* ------------------------------------------------------------------ *)

let func_wordcount = 1
let func_kmeans = 2

(* Write [(k, v); ...] into an output view as [n; k1; v1; ...]. *)
let write_pairs out pairs =
  let n = List.length pairs in
  Message.write_word out 0 n;
  List.iteri
    (fun i (k, v) ->
      Message.write_word out (1 + (2 * i)) k;
      Message.write_word out (2 + (2 * i)) v)
    pairs

let read_pairs out =
  let n = Message.read_word out 0 in
  List.init n (fun i ->
      (Message.read_word out (1 + (2 * i)), Message.read_word out (2 + (2 * i))))

let handler ~func ~args ~output =
  match func with
  | f when f = func_wordcount ->
      let chunk =
        match args with [ c ] -> c | _ -> failwith "wordcount: 1 arg expected"
      in
      let job = Mr_job.wordcount ~vocab:max_int in
      let text = chunk_bytes chunk in
      write_pairs output (job.Mr_job.map text)
  | f when f = func_kmeans ->
      let chunk, cents =
        match args with
        | [ c; cc ] -> (c, cc)
        | _ -> failwith "kmeans: 2 args expected"
      in
      let k = Message.read_word cents 0 in
      let dims = Message.read_word cents 1 in
      let centroids =
        Array.init k (fun c ->
            Array.init dims (fun d -> Message.read_word cents (2 + (c * dims) + d)))
      in
      let job = Mr_job.kmeans_assign ~centroids ~dims in
      write_pairs output (job.Mr_job.map (chunk_bytes chunk))
  | f -> failwith (Printf.sprintf "Cxl_mapreduce: unknown function id %d" f)

let task_handler : Cxl_rpc.handler = handler

(* A served call's message stays in its ring slot, holding the call's
   output, until the slot is lent again: a short ring leaves most of a
   channel's sub-heap to outputs [run_maps] can free by merging them. The
   sub-heap must hold [ring + 1] calls' messages and outputs. *)
let ring = 8

let start ~arena ~master ~executors:n =
  if n < 1 then invalid_arg "Cxl_mapreduce.start";
  let stops = Atomic.make false in
  let ready = Array.init n (fun _ -> Atomic.make 0) in
  let domains =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            let ctx = Shm.join arena () in
            Atomic.set ready.(i) (ctx.Ctx.cid + 1);
            let server =
              Cxl_rpc.accept ctx ~client_cid:master.Ctx.cid ~capacity:ring
            in
            (* Chunks and the centroid table are master-allocated shared
               objects passed by reference across every executor's channel
               — the attached-shared-heap pattern, not a smuggled pointer. *)
            Cxl_rpc.allow_peer_segments server;
            Cxl_rpc.serve_until server ~handler ~stop:stops;
            Cxl_rpc.close_server server;
            Shm.leave ctx))
  in
  let clients =
    Array.init n (fun i ->
        let rec wait () =
          let c = Atomic.get ready.(i) in
          if c = 0 then (Domain.cpu_relax (); wait ()) else c - 1
        in
        let cid = wait () in
        (* The largest sub-heap a directory slot can register: the more
           outputs fit, the fewer calls [run_maps] must finish early. *)
        Cxl_rpc.connect master ~server_cid:cid ~capacity:ring
          ~sub_heap_segments:Layout.queue_max_channel_segs)
  in
  { arena; master; clients; stops; domains }

let stop s =
  Atomic.set s.stops true;
  List.iter Domain.join s.domains;
  Array.iter Cxl_rpc.close_client s.clients

(* Dispatch one map task per chunk, round-robin, merging outputs as they
   are collected. A channel's sub-heap bounds its calls in flight: when a
   call does not fit, the channel's oldest call is finished and merged and
   its output freed, and the call is retried. *)
let run_maps s ~func ~chunk_args ~output_words ~combine =
  let merged = Hashtbl.create 1024 in
  let merge p =
    let out = Cxl_rpc.finish p in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace merged k
          (match Hashtbl.find_opt merged k with
          | Some v0 -> combine v0 v
          | None -> v))
      (read_pairs (Message.view_of_ref out));
    Cxl_ref.drop out
  in
  let in_flight = Array.map (fun _ -> Queue.create ()) s.clients in
  List.iteri
    (fun i args ->
      let c = i mod Array.length s.clients in
      let client = s.clients.(c) and q = in_flight.(c) in
      let rec call () =
        match
          Cxl_rpc.call_async client ~func ~args ~output_bytes:(output_words * 7)
        with
        | p -> Queue.push p q
        | exception Alloc.Out_of_shared_memory when not (Queue.is_empty q) ->
            merge (Queue.pop q);
            (* Under epoch batching the drop only parked the output. *)
            Reclaim.flush_retired s.master;
            call ()
      in
      call ())
    chunk_args;
  Array.iter (Queue.iter merge) in_flight;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])

let wordcount s ~chunks ~vocab =
  (* A chunk cannot produce more distinct keys than min(vocab, tokens). *)
  run_maps s ~func:func_wordcount
    ~chunk_args:(List.map (fun c -> [ c ]) chunks)
    ~output_words:(1 + (2 * min vocab 4096))
    ~combine:( + )

let kmeans s ~chunks ~k ~dims ~iters =
  (* Centroids: one shared object, master-written, executor-read. *)
  let cents =
    Shm.cxl_malloc_words s.master ~data_words:(2 + (k * dims)) ()
  in
  Cxl_ref.write_word cents 0 k;
  Cxl_ref.write_word cents 1 dims;
  let centroids =
    Array.init k (fun c -> Array.init dims (fun d -> ((c * 37) + d) * 1000))
  in
  let publish () =
    Array.iteri
      (fun c row ->
        Array.iteri
          (fun d x -> Cxl_ref.write_word cents (2 + (c * dims) + d) x)
          row)
      centroids
  in
  let rec iterate i =
    if i < iters then begin
      publish ();
      let combined =
        run_maps s ~func:func_kmeans
          ~chunk_args:(List.map (fun c -> [ c; cents ]) chunks)
          ~output_words:(1 + (2 * k * (dims + 1)))
          ~combine:( + )
      in
      let moved = Mr_job.kmeans_update ~k ~dims combined centroids in
      if moved then iterate (i + 1)
    end
  in
  iterate 0;
  Cxl_ref.drop cents;
  centroids
