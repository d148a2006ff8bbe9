(* CXL-RPC and the RDMA baseline: serialization, zero-copy calls with
   pointer isolation, concurrency, liveness under endpoint failure. *)

open Cxlshm
open Cxlshm_rpc
module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats

let mid_cfg =
  { Config.small with Config.num_segments = 16; pages_per_segment = 8 }

let test_serialize_roundtrip () =
  let e =
    { Serialize.func = 42; args = [ Bytes.of_string "alpha"; Bytes.of_string "" ] }
  in
  let d = Serialize.decode (Serialize.encode e) in
  Alcotest.(check int) "func" 42 d.Serialize.func;
  Alcotest.(check (list string)) "args" [ "alpha"; "" ]
    (List.map Bytes.to_string d.Serialize.args)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize roundtrip" ~count:200
    QCheck.(pair (int_bound 10_000) (list (string_of_size Gen.(0 -- 64))))
    (fun (func, args) ->
      let e = { Serialize.func; args = List.map Bytes.of_string args } in
      let d = Serialize.decode (Serialize.encode e) in
      d.Serialize.func = func
      && List.map Bytes.to_string d.Serialize.args = args)

let test_rdma_rpc () =
  let cl, sv = Rdma_rpc.pair () in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Rdma_rpc.serve_loop sv ~stop ~handler:(fun ~func ~args ->
            match args with
            | [ a ] ->
                Bytes.of_string
                  (Printf.sprintf "f%d:%s" func (Bytes.to_string a))
            | _ -> Bytes.of_string "bad"))
  in
  let r = Rdma_rpc.call cl ~func:7 ~args:[ Bytes.of_string "ping" ] in
  Alcotest.(check string) "reply" "f7:ping" (Bytes.to_string r);
  Alcotest.(check bool) "client clock advanced" true
    (Rdma_rpc.client_modeled_ns cl >= Rdma_sim.message_latency_ns);
  Atomic.set stop true;
  Domain.join server

let check_clean arena ~live =
  let v = Shm.validate arena in
  Alcotest.(check bool) ("clean: " ^ String.concat ";" v.Validate.errors) true
    (Validate.is_clean v);
  Alcotest.(check int) "live objects" live v.Validate.live_objects

let test_cxl_rpc_inline () =
  (* Client and server driven from one thread — deterministic. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:32 () in
  Cxl_ref.write_bytes arg (Bytes.of_string "zero copy!");
  let p = Cxl_rpc.call_async client ~func:5 ~args:[ arg ] ~output_bytes:32 in
  Alcotest.(check bool) "not done before serve" false (Cxl_rpc.is_done p);
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func ~args ~output ->
        Alcotest.(check int) "func" 5 func;
        match args with
        | [ a ] ->
            let payload = Message.read_bytes a ~len:10 in
            Message.write_bytes output
              (Bytes.of_string (String.uppercase_ascii (Bytes.to_string payload)))
        | _ -> Alcotest.fail "one arg expected")
  in
  Alcotest.(check bool) "served" true served;
  Alcotest.(check int) "nothing rejected" 0 (Cxl_rpc.rejected_calls server);
  Alcotest.(check bool) "done after serve" true (Cxl_rpc.is_done p);
  let out = Cxl_rpc.finish p in
  Alcotest.(check string) "in-place result" "ZERO COPY!"
    (Bytes.to_string (Cxl_ref.read_bytes out ~len:10));
  Cxl_ref.drop arg;
  Cxl_ref.drop out;
  Cxl_rpc.close_server server;
  let segs = Cxl_rpc.channel_segments client in
  Cxl_rpc.close_client client;
  (* Revocation returned the emptied sub-heap to the arena. *)
  List.iter
    (fun seg ->
      Alcotest.(check bool)
        (Printf.sprintf "sub-heap segment %d released" seg)
        true
        (Segment.state c seg = Segment.Free))
    segs;
  check_clean arena ~live:0

let test_cxl_rpc_parallel () =
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let stop = Atomic.make false in
  let server_cid = Atomic.make (-1) in
  let server =
    Domain.spawn (fun () ->
        let s = Shm.join arena () in
        Atomic.set server_cid s.Ctx.cid;
        let srv = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
        Cxl_rpc.serve_until srv ~stop ~handler:(fun ~func ~args ~output ->
            match args with
            | [ a ] ->
                Message.write_word output 0 (func + Message.read_word a 0)
            | _ -> failwith "bad");
        Cxl_rpc.close_server srv)
  in
  let rec wait_cid () =
    let v = Atomic.get server_cid in
    if v < 0 then (Domain.cpu_relax (); wait_cid ()) else v
  in
  let client = Cxl_rpc.connect c ~server_cid:(wait_cid ()) ~capacity:8 in
  for i = 1 to 100 do
    let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
    Cxl_ref.write_word arg 0 (i * 10);
    let out = Cxl_rpc.call client ~func:3 ~args:[ arg ] ~output_bytes:8 in
    Alcotest.(check int)
      (Printf.sprintf "call %d" i)
      ((i * 10) + 3)
      (Cxl_ref.read_word out 0);
    Cxl_ref.drop arg;
    Cxl_ref.drop out
  done;
  Atomic.set stop true;
  Domain.join server;
  Cxl_rpc.close_client client

let test_out_of_channel_rejected () =
  (* An argument allocated outside the channel sub-heap must be refused by
     the server's validation walk — handler never runs, client sees
     Call_rejected — and leave the arena clean. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let smuggled = Shm.cxl_malloc c ~size_bytes:16 () in
  let p =
    Cxl_rpc.call_async client ~func:9 ~args:[ smuggled ] ~output_bytes:8
  in
  let handled = ref false in
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args:_ ~output:_ ->
        handled := true)
  in
  Alcotest.(check bool) "request consumed" true served;
  Alcotest.(check bool) "handler never ran" false !handled;
  Alcotest.(check int) "rejection counted" 1 (Cxl_rpc.rejected_calls server);
  (match Cxl_rpc.finish p with
  | exception Cxl_rpc.Call_rejected _ -> ()
  | _ -> Alcotest.fail "expected Call_rejected");
  Cxl_ref.drop smuggled;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

let test_wild_pointer_rejected () =
  (* A wild word planted in an in-channel argument's embedded slot: the walk
     must reject without dereferencing it, and disposal must neutralise the
     slot so teardown never chases it. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:16 ~emb_cnt:1 () in
  (* Raw poke, not set_emb: a corrupted/hostile pointer, no count behind it. *)
  Ctx.store c (Obj_header.emb_slot (Cxl_ref.obj arg) 0) 0xDEADBEEF;
  let p = Cxl_rpc.call_async client ~func:2 ~args:[ arg ] ~output_bytes:8 in
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args:_ ~output:_ ->
        Alcotest.fail "handler must not run on a wild closure")
  in
  Alcotest.(check bool) "request consumed" true served;
  Alcotest.(check int) "rejection counted" 1 (Cxl_rpc.rejected_calls server);
  (match Cxl_rpc.finish p with
  | exception Cxl_rpc.Call_rejected _ -> ()
  | _ -> Alcotest.fail "expected Call_rejected");
  Cxl_ref.drop arg;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

let test_huge_continuation_rejected () =
  (* An argument's embedded word names the first word of a huge run's
     continuation segment, in a segment the client owns and the server
     trusts. That word is payload, not a block base: the walk must reject
     the call rather than size it as a block. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  Cxl_rpc.allow_peer_segments server;
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let lay = Shm.layout arena in
  let huge =
    Shm.cxl_malloc_words c ~data_words:(lay.Layout.segment_words + 100) ()
  in
  let cont = Layout.segment_of_addr lay (Cxl_ref.obj huge) + 1 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:16 ~emb_cnt:1 () in
  Ctx.store c
    (Obj_header.emb_slot (Cxl_ref.obj arg) 0)
    (Layout.segment_base lay cont + lay.Layout.seg_hdr_words);
  let p = Cxl_rpc.call_async client ~func:2 ~args:[ arg ] ~output_bytes:8 in
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args:_ ~output:_ ->
        Alcotest.fail "handler must not run on a continuation word")
  in
  Alcotest.(check bool) "request consumed" true served;
  Alcotest.(check int) "rejection counted" 1 (Cxl_rpc.rejected_calls server);
  (match Cxl_rpc.finish p with
  | exception Cxl_rpc.Call_rejected _ -> ()
  | _ -> Alcotest.fail "expected Call_rejected");
  Cxl_ref.drop arg;
  Cxl_ref.drop huge;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

let test_double_finish_rejected () =
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  let p = Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
  ignore
    (Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args:_ ~output:_ -> ()));
  let out = Cxl_rpc.finish p in
  (match Cxl_rpc.finish p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "second finish must raise Invalid_argument");
  (match Cxl_rpc.try_finish p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "try_finish after finish must raise Invalid_argument");
  Cxl_ref.drop arg;
  Cxl_ref.drop out;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

let test_server_dies_mid_call () =
  (* The server dies with a request in flight: the client's finish must
     unblock with Peer_failed (bounded, not an infinite spin) and the arena
     must come back clean after revocation. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let _server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:16 () in
  let p = Cxl_rpc.call_async client ~func:4 ~args:[ arg ] ~output_bytes:16 in
  (* Server crashes before serving; the membership layer notices. *)
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:s.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:s.Ctx.cid);
  (match Cxl_rpc.finish p with
  | exception Cxl_rpc.Peer_failed _ -> ()
  | _ -> Alcotest.fail "expected Peer_failed");
  Cxl_ref.drop arg;
  let segs = Cxl_rpc.channel_segments client in
  Cxl_rpc.close_client client;
  List.iter
    (fun seg ->
      Alcotest.(check bool)
        (Printf.sprintf "sub-heap segment %d released" seg)
        true
        (Segment.state c seg = Segment.Free))
    segs;
  check_clean arena ~live:0

let test_send_to_dead_server_unblocks () =
  (* Full ring + dead server used to spin forever in call_async; the lease
     check now bounds the wait with Peer_failed. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let _server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:2 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:2 in
  let fire () =
    let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
    let p = Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
    Cxl_ref.drop arg;
    p
  in
  (* Fill the ring while the server (which never serves) is still alive. *)
  let cap = 2 in
  let inflight = List.init cap (fun _ -> fire ()) in
  (* Server dies; the next send finds the ring full and must give up. *)
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:s.Ctx.cid;
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  (match Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 with
  | exception Cxl_rpc.Peer_failed _ -> ()
  | _p -> Alcotest.fail "send into a full ring of a dead server must fail");
  Cxl_ref.drop arg;
  (* Abandoning the stuck calls also reports Peer_failed and releases the
     client-held handles. *)
  List.iter
    (fun p ->
      match Cxl_rpc.finish p with
      | exception Cxl_rpc.Peer_failed _ -> ()
      | _ -> Alcotest.fail "expected Peer_failed")
    inflight;
  ignore (Recovery.recover svc ~failed_cid:s.Ctx.cid);
  Cxl_rpc.close_client client;
  ignore (Shm.scan_leaking arena);
  check_clean arena ~live:0

let test_client_dies_mid_call () =
  (* Client fires a request then dies; recovery must reap the in-flight
     message, its argument and the output object. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let _server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:16 () in
  let _p = Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:16 in
  (* c crashes before the server touches the queue. *)
  let svc = Shm.service_ctx arena in
  Client.declare_failed svc ~cid:c.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:c.Ctx.cid);
  (* server also exits *)
  Client.declare_failed svc ~cid:s.Ctx.cid;
  ignore (Recovery.recover svc ~failed_cid:s.Ctx.cid);
  ignore (Shm.scan_leaking arena);
  check_clean arena ~live:0

let test_forged_nargs_rejected () =
  (* The client rewrites its in-flight message's count word from 1 to 2.
     Were the count word trusted, the output slot would be the func word
     read as a pointer — here, a block in a third client's heap — and the
     handler's output write would clobber it. The argument count must come
     from the validated meta, and the disagreeing count word must reject
     the call. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let third = Shm.join arena () in
  let victim = Shm.cxl_malloc third ~size_bytes:8 () in
  Cxl_ref.write_word victim 0 42;
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  let func = Cxl_ref.obj victim in
  let p = Cxl_rpc.call_async client ~func ~args:[ arg ] ~output_bytes:8 in
  (* Find the message's count word in the sub-heap: it follows the func
     word. *)
  let mem = Shm.mem arena and lay = Shm.layout arena in
  let count_words =
    List.concat_map
      (fun seg ->
        let base = Layout.segment_base lay seg in
        List.filter
          (fun a -> Mem.unsafe_peek mem a = func && Mem.unsafe_peek mem (a + 1) = 1)
          (List.init (lay.Layout.segment_words - 1) (fun k -> base + k))
        |> List.map (fun a -> a + 1))
      (Cxl_rpc.channel_segments client)
  in
  (match count_words with
  | [ a ] -> Mem.unsafe_poke mem a 2
  | l -> Alcotest.failf "expected one message count word, found %d" (List.length l));
  let handled = ref false in
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args:_ ~output ->
        handled := true;
        Message.write_word output 0 0xBAD)
  in
  Alcotest.(check bool) "request consumed" true served;
  Alcotest.(check bool) "handler never ran" false !handled;
  Alcotest.(check int) "rejection counted" 1 (Cxl_rpc.rejected_calls server);
  (match Cxl_rpc.finish p with
  | exception Cxl_rpc.Call_rejected _ -> ()
  | _ -> Alcotest.fail "expected Call_rejected");
  Alcotest.(check int) "victim untouched" 42 (Cxl_ref.read_word victim 0);
  Cxl_ref.drop arg;
  Cxl_ref.drop victim;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

let test_forged_meta_rejected () =
  (* The client widens its argument's meta [data_words] by one block
     before sending, so the view's last word lands on the first data word
     of the next block in the channel page. The walk must bound the meta
     by the page's block size and reject the call before the handler can
     write through the widened view. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  let neighbour = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  Cxl_ref.write_word neighbour 0 77;
  let mem = Shm.mem arena and lay = Shm.layout arena in
  let a = Cxl_ref.obj arg in
  let bw =
    Mem.unsafe_peek mem
      (Layout.page_block_words lay ~gid:(Layout.page_gid_of_addr lay a))
  in
  Alcotest.(check int) "neighbour is the next block" (a + bw)
    (Cxl_ref.obj neighbour);
  let meta = Mem.unsafe_peek mem (Obj_header.meta_of_obj a) in
  Mem.unsafe_poke mem (Obj_header.meta_of_obj a)
    (Obj_header.pack_meta ~kind:(Obj_header.meta_kind meta)
       ~emb_cnt:(Obj_header.meta_emb_cnt meta) ~data_words:(bw + 1));
  let p = Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
  let handled = ref false in
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args ~output:_ ->
        handled := true;
        List.iter
          (fun v -> Message.write_word v (Message.data_words v - 1) 0xBAD)
          args)
  in
  Alcotest.(check bool) "request consumed" true served;
  Alcotest.(check bool) "handler never ran" false !handled;
  Alcotest.(check int) "rejection counted" 1 (Cxl_rpc.rejected_calls server);
  (match Cxl_rpc.finish p with
  | exception Cxl_rpc.Call_rejected _ -> ()
  | _ -> Alcotest.fail "expected Call_rejected");
  Alcotest.(check int) "neighbour untouched" 77 (Cxl_ref.read_word neighbour 0);
  Mem.unsafe_poke mem (Obj_header.meta_of_obj a) meta;
  Cxl_ref.drop arg;
  Cxl_ref.drop neighbour;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

(* The request queue's ring slot [i] (one channel in the arena). *)
let ring_slot arena i ~capacity =
  let mem = Shm.mem arena and lay = Shm.layout arena in
  match Transfer.directory_refs ~read:(Mem.unsafe_peek mem) lay with
  | [ q ] -> Obj_header.emb_slot q (i mod capacity)
  | qs -> Alcotest.failf "expected one queue, found %d" (List.length qs)

let test_forged_ring_slot () =
  (* The client overwrites its published ring slot with a live block that
     a third client owns. The server must reject the call, and it must not
     drop a count it never held: the victim keeps its one count, so its
     owner's drop is the one that frees it. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let third = Shm.join arena () in
  let victim = Shm.cxl_malloc third ~size_bytes:8 () in
  Cxl_ref.write_word victim 0 42;
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  let p = Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
  let mem = Shm.mem arena in
  let slot = ring_slot arena 0 ~capacity:8 in
  let msg = Mem.unsafe_peek mem slot in
  Mem.unsafe_poke mem slot (Cxl_ref.obj victim);
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args:_ ~output:_ ->
        Alcotest.fail "handler must not run on a forged slot")
  in
  Alcotest.(check bool) "request consumed" true served;
  Alcotest.(check int) "rejection counted" 1 (Cxl_rpc.rejected_calls server);
  Reclaim.flush_retired s;
  Alcotest.(check int) "victim keeps its one count" 1
    (Refc.ref_cnt third (Cxl_ref.obj victim));
  Alcotest.(check int) "victim untouched" 42 (Cxl_ref.read_word victim 0);
  (* The lent message is still the client's: put it back so the queue's
     teardown frees it. The forged slot named no message, so the call
     never completes. *)
  Mem.unsafe_poke mem slot msg;
  Cxl_rpc.discard p;
  Cxl_ref.drop arg;
  Cxl_ref.drop victim;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

(* In-use RootRefs in the segments [ctx] owns. *)
let rootrefs_in_use arena (ctx : Ctx.t) =
  let mem = Shm.mem arena and lay = Shm.layout arena in
  let n = ref 0 in
  List.iter
    (fun seg ->
      Heap.iter_rootrefs ~read:(Mem.unsafe_peek mem) lay seg (fun rr ->
          if Rootref.peek_in_use mem rr then incr n))
    (Segment.owned_by ctx ~cid:ctx.Ctx.cid);
  !n

let test_served_message_one_holder () =
  (* A lent message is held by its ring slot alone: the client keeps only
     a view, and the server serves it in place with no reference and no
     RootRef of its own. *)
  let arena = Shm.create ~cfg:mid_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:4 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:4 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  (* The first serve opens the server's endpoint, whose queue reference is
     a RootRef: count after it. *)
  Alcotest.(check bool) "empty ring" false
    (Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args:_ ~output:_ -> ()));
  let base = rootrefs_in_use arena s in
  for i = 0 to 99 do
    let p = Cxl_rpc.call_async client ~func:i ~args:[ arg ] ~output_bytes:8 in
    let msg = Mem.unsafe_peek (Shm.mem arena) (ring_slot arena i ~capacity:4) in
    let served =
      Cxl_rpc.serve_one server ~handler:(fun ~func ~args:_ ~output ->
          Alcotest.(check int)
            (Printf.sprintf "call %d: one holder" i)
            1 (Refc.ref_cnt s msg);
          Alcotest.(check int)
            (Printf.sprintf "call %d: server RootRefs" i)
            base (rootrefs_in_use arena s);
          Message.write_word output 0 func)
    in
    Alcotest.(check bool) "served" true served;
    let out = Cxl_rpc.finish p in
    Alcotest.(check int) "output" i (Cxl_ref.read_word out 0);
    Cxl_ref.drop out
  done;
  Alcotest.(check int) "server RootRefs after the calls" base
    (rootrefs_in_use arena s);
  Cxl_ref.drop arg;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

(* Write-backs on a fresh channel: the server's across one served call,
   once a first call has opened its endpoint, and the client's across
   raising one completion word by hand. *)
let served_flushes cfg =
  let arena = Shm.create ~cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:4 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:4 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
  let handler ~func ~args:_ ~output = Message.write_word output 0 func in
  let serve_call func =
    let p = Cxl_rpc.call_async client ~func ~args:[ arg ] ~output_bytes:8 in
    let before = s.Ctx.st.Stats.flushes in
    Alcotest.(check bool) "served" true (Cxl_rpc.serve_one server ~handler);
    let n = s.Ctx.st.Stats.flushes - before in
    let out = Cxl_rpc.finish p in
    Alcotest.(check int) "output" func (Cxl_ref.read_word out 0);
    Cxl_ref.drop out;
    n
  in
  ignore (serve_call 1);
  let served = serve_call 2 in
  let out = Shm.cxl_malloc c ~size_bytes:8 () in
  let msg = Message.build c ~func:3 ~args:[] ~output:out in
  let v = Message.view_of_ref msg in
  let before = c.Ctx.st.Stats.flushes in
  Message.set_status v 1;
  let raised = c.Ctx.st.Stats.flushes - before in
  Alcotest.(check int) "status raised" 1 (Message.status v);
  Cxl_ref.drop msg;
  Cxl_ref.drop out;
  Cxl_ref.drop arg;
  Cxl_rpc.close_server server;
  (* the server's queue reference may be parked for retirement *)
  Reclaim.flush_retired s;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0;
  (served, raised)

(* Epoch mode elides the completion word's write-back with the RootRef
   link's: serving a call costs the server none. An eager context writes
   the word back exactly once, and serving also writes back the ring
   head, which [Ctx.flush_deferred] flushes at once there. *)
let test_serve_write_backs () =
  let served, raised = served_flushes { mid_cfg with Config.epoch_batch = 16 } in
  Alcotest.(check int) "epoch: served call" 0 served;
  Alcotest.(check int) "epoch: completion word" 0 raised;
  let served, raised = served_flushes mid_cfg in
  Alcotest.(check int) "eager: completion word" 1 raised;
  Alcotest.(check int) "eager: served call (completion word, ring head)" 2
    served

(* Epoch mode raises the completion word with no write-back, so a server
   crash may lose the raised line. Stand in for that loss by storing the
   pending state back after the serve, then kill the server and let its
   lease lapse: the client's [finish] must see a dead server, as after a
   crash at [Rpc_before_status], and the message must still be reclaimed,
   by the next lend into its slot or by [close_client]. *)
let test_lost_completion_word () =
  let run ~reclaim =
    let arena = Shm.create ~cfg:{ mid_cfg with Config.epoch_batch = 16 } () in
    let c = Shm.join arena () in
    let s = Shm.join arena () in
    let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:1 in
    let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:1 in
    let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
    let p = Cxl_rpc.call_async client ~func:7 ~args:[ arg ] ~output_bytes:8 in
    let msg = Mem.unsafe_peek (Shm.mem arena) (ring_slot arena 0 ~capacity:1) in
    Alcotest.(check bool) "served" true
      (Cxl_rpc.serve_one server ~handler:(fun ~func ~args:_ ~output ->
           Message.write_word output 0 func));
    let v = Message.view s msg in
    Alcotest.(check int) "completion raised" 1 (Message.status v);
    Message.set_status v 0;
    (* the server dies; its lease lapses with no monitor to condemn it *)
    let svc = Shm.service_ctx arena in
    for _ = 0 to Lease.ttl svc do
      ignore (Lease.tick svc)
    done;
    Alcotest.(check bool) "lease lapsed" true (Lease.expired svc ~cid:s.Ctx.cid);
    (match Cxl_rpc.finish p with
    | exception Cxl_rpc.Peer_failed _ -> ()
    | _ -> Alcotest.fail "a pending completion must fail the call");
    (match reclaim with
    | `Lend -> (
        match Cxl_rpc.call_async client ~func:8 ~args:[ arg ] ~output_bytes:8 with
        | p2 ->
            (* the lend's release may be parked for retirement *)
            Reclaim.flush_retired c;
            Alcotest.(check int) "the lend reclaimed the message" 0
              (Refc.ref_cnt c msg);
            (match Cxl_rpc.finish p2 with
            | exception Cxl_rpc.Peer_failed _ -> ()
            | _ -> Alcotest.fail "no server serves the second call")
        | exception Cxl_rpc.Peer_failed _ ->
            Alcotest.fail "the ring had room for the lend")
    | `Close -> ());
    Client.declare_failed svc ~cid:s.Ctx.cid;
    ignore (Shm.recover arena ~failed_cid:s.Ctx.cid);
    Cxl_ref.drop arg;
    Cxl_rpc.close_client client;
    ignore (Shm.scan_leaking arena);
    check_clean arena ~live:0
  in
  run ~reclaim:`Lend;
  run ~reclaim:`Close

(* Kill the client at every crash-point hit of a [call_async] whose lend
   reclaims the previous call's message, then the server at every hit of
   a [serve_one], eagerly and under epoch retirement. After recovery and
   the survivor's close, every message, argument and output is reclaimed:
   each was owned by the ring, by the dead client's RootRefs or by the
   survivor, never by two and never by none. *)
let test_loan_crash_windows () =
  let crossed = Hashtbl.create 8 in
  let handler ~func ~args:_ ~output = Message.write_word output 0 func in
  let setup cfg =
    let arena = Shm.create ~cfg () in
    let c = Shm.join arena () in
    let s = Shm.join arena () in
    let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:1 in
    let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:1 in
    let arg = Cxl_rpc.alloc_arg client ~size_bytes:8 () in
    (* a first call, served and collected: its message is the leftover *)
    let p = Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
    Alcotest.(check bool) "served" true (Cxl_rpc.serve_one server ~handler);
    Cxl_ref.drop (Cxl_rpc.finish p);
    (arena, c, s, server, client, arg)
  in
  let call client arg =
    Cxl_rpc.call_async client ~func:2 ~args:[ arg ] ~output_bytes:8
  in
  let sweep cfg ~victim =
    let hits =
      let _, c, s, server, client, arg = setup cfg in
      let plan = Fault.nth_point ~n:max_int in
      (match victim with
      | `Client ->
          c.Ctx.fault <- plan;
          ignore (call client arg)
      | `Server ->
          ignore (call client arg);
          s.Ctx.fault <- plan;
          ignore (Cxl_rpc.serve_one server ~handler));
      Fault.hits plan
    in
    Alcotest.(check bool) "the sweep crosses crash points" true (hits > 0);
    for n = 1 to hits do
      let arena, c, s, server, client, arg = setup cfg in
      let label =
        Printf.sprintf "%s crash %d (epoch batch %d)"
          (match victim with `Client -> "client" | `Server -> "server")
          n cfg.Config.epoch_batch
      in
      let svc = Shm.service_ctx arena in
      let crashed f =
        match f () with
        | _ -> Alcotest.failf "%s: expected a crash" label
        | exception Fault.Crashed point -> Hashtbl.replace crossed point ()
      in
      (match victim with
      | `Client ->
          c.Ctx.fault <- Fault.nth_point ~n;
          crashed (fun () -> ignore (call client arg));
          Client.declare_failed svc ~cid:c.Ctx.cid;
          ignore (Shm.recover arena ~failed_cid:c.Ctx.cid);
          (* the server serves whatever was published, then revokes *)
          ignore (Cxl_rpc.serve_one server ~handler);
          Cxl_rpc.close_server server;
          (* the server's queue reference may be parked for retirement *)
          Reclaim.flush_retired s
      | `Server ->
          let p = call client arg in
          s.Ctx.fault <- Fault.nth_point ~n;
          crashed (fun () -> ignore (Cxl_rpc.serve_one server ~handler));
          Client.declare_failed svc ~cid:s.Ctx.cid;
          ignore (Shm.recover arena ~failed_cid:s.Ctx.cid);
          (match Cxl_rpc.finish p with
          | out ->
              Alcotest.(check int) (label ^ ": output") 2 (Cxl_ref.read_word out 0);
              Cxl_ref.drop out
          | exception Cxl_rpc.Peer_failed _ -> ());
          Cxl_ref.drop arg;
          Cxl_rpc.close_client client);
      ignore (Shm.scan_leaking arena);
      let v = Shm.validate arena in
      Alcotest.(check bool)
        (label ^ ": clean: " ^ String.concat ";" v.Validate.errors)
        true (Validate.is_clean v);
      Alcotest.(check int) (label ^ ": no stranded objects") 0
        v.Validate.live_objects
    done
  in
  List.iter
    (fun cfg ->
      sweep cfg ~victim:`Client;
      sweep cfg ~victim:`Server)
    [ mid_cfg; { mid_cfg with Config.epoch_batch = 2 } ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("crossed " ^ Fault.point_name p)
        true
        (Hashtbl.mem crossed (Fault.point_name p)))
    Fault.
      [
        Txn_after_redo;
        Swap_after_link;
        Swap_after_store;
        Send_after_attach;
        Rpc_before_status;
        Recv_after_advance;
      ]

(* ---- accessor traffic, counted on the deterministic backend ---- *)

let counting_cfg =
  { mid_cfg with Config.backend = Mem.Counting_fast; page_words = 1024 }

(* Shared accesses (loads, stores and CAS, cache hits included) [f] costs
   on [ctx]. *)
let accesses (ctx : Ctx.t) f =
  let before = Stats.total_accesses ctx.Ctx.st in
  let r = f () in
  (r, Stats.total_accesses ctx.Ctx.st - before)

let raises name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* A handle remembers the block it resolved: its first access reads the
   RootRef, the meta and the word; every later one only the word, until an
   era transaction of its context moves the counter the memo is stamped
   with, or the RootRef names another block. *)
let test_cxl_ref_word_traffic () =
  let arena = Shm.create ~cfg:counting_cfg () in
  let c = Shm.join arena () in
  let r = Shm.cxl_malloc c ~size_bytes:32 ~emb_cnt:1 () in
  let _, n = accesses c (fun () -> Cxl_ref.read_word r 1) in
  Alcotest.(check int) "first read: rootref + meta + word" 3 n;
  let (), n = accesses c (fun () -> Cxl_ref.write_word r 1 7) in
  Alcotest.(check int) "warm write: word" 1 n;
  let v, n = accesses c (fun () -> Cxl_ref.read_word r 1) in
  Alcotest.(check int) "value" 7 v;
  Alcotest.(check int) "warm read: word" 1 n;
  let _, n = accesses c (fun () -> Cxl_ref.get_emb r 0) in
  Alcotest.(check int) "warm get_emb: slot" 1 n;
  let dw = Cxl_ref.data_words r in
  let (), n = accesses c (fun () -> Cxl_ref.write_word r (dw - 1) 8) in
  Alcotest.(check int) "warm write at the end: word" 1 n;
  raises "embedded slot" (fun () -> Cxl_ref.read_word r 0);
  raises "data_words" (fun () -> Cxl_ref.read_word r dw);
  raises "write past the end" (fun () -> Cxl_ref.write_word r dw 0);
  raises "embedded slot past emb_cnt" (fun () -> Cxl_ref.get_emb r 1);
  (* One swap re-points the warmed handle's RootRef at a same-shape copy
     that a second handle holds (and the second RootRef at the original):
     the next access misses the memo, resolves the copy and reads its data. *)
  let s = Shm.cxl_malloc c ~size_bytes:32 ~emb_cnt:1 () in
  Cxl_ref.write_word s 1 9;
  Cxl_ref.write_word s (dw - 1) (Cxl_ref.read_word r (dw - 1));
  Refc.swap c
    ~ref_addr:(Rootref.pptr_slot (Cxl_ref.rootref r))
    ~rr:(Cxl_ref.rootref s) ~from_obj:(Cxl_ref.obj r) ~to_obj:(Cxl_ref.obj s);
  let v, n = accesses c (fun () -> Cxl_ref.read_word r 1) in
  Alcotest.(check int) "reads the copy" 9 v;
  Alcotest.(check int) "after a move: rootref + meta + word" 3 n;
  let v, n = accesses c (fun () -> Cxl_ref.read_word r (dw - 1)) in
  Alcotest.(check int) "payload copied" 8 v;
  Alcotest.(check int) "then one word again" 1 n;
  Cxl_ref.drop s;
  Cxl_ref.drop r;
  check_clean arena ~live:0

(* The re-point [Limbo.park ~unlink] makes in a COW replace: a handle
   [fresh] names a record, a parent's embedded slot names [old], and one
   swap on [fresh]'s RootRef trades the two, so the RootRef ends up naming
   [old]. A clone made (and warmed) before the swap shares that RootRef;
   returns what the clone reads afterwards, 11 from [old] or the stale 22
   from the record it first resolved. *)
let clone_read_after_repoint () =
  let arena = Shm.create ~cfg:counting_cfg () in
  let c = Shm.join arena () in
  let parent = Shm.cxl_malloc c ~size_bytes:16 ~emb_cnt:1 () in
  let old = Shm.cxl_malloc c ~size_bytes:16 () in
  Cxl_ref.write_word old 1 11;
  Cxl_ref.set_emb parent 0 old;
  Cxl_ref.drop old;
  let fresh = Shm.cxl_malloc c ~size_bytes:16 () in
  Cxl_ref.write_word fresh 1 22;
  let k = Cxl_ref.clone fresh in
  Alcotest.(check int) "clone warm on the fresh record" 22
    (Cxl_ref.read_word k 1);
  let old_obj = Cxl_ref.get_emb parent 0 in
  Refc.swap c
    ~ref_addr:(Obj_header.emb_slot (Cxl_ref.obj parent) 0)
    ~rr:(Cxl_ref.rootref fresh) ~from_obj:old_obj ~to_obj:(Cxl_ref.obj fresh);
  let v = Cxl_ref.read_word k 1 in
  Cxl_ref.drop k;
  Cxl_ref.drop fresh;
  Cxl_ref.drop parent;
  check_clean arena ~live:0;
  v

let test_clone_reads_repointed_rootref () =
  Alcotest.(check int) "clone reads the re-pointed object" 11
    (clone_read_after_repoint ())

(* The must-fail mutation: a memo that ignores the era-advance counter
   keeps addressing the record the clone resolved first. *)
let test_stale_memo_mutation () =
  Cxlshm_check.Mutation.with_flag Cxl_ref.mutation_stale_memo @@ fun () ->
  Alcotest.(check int) "stale-memo mutation reads the old record" 22
    (clone_read_after_repoint ())

(* An era transaction on an unrelated object invalidates every memo of the
   context: the next access re-reads the RootRef (still naming the memoised
   block, so no meta), and the one after costs the word alone. *)
let test_era_transaction_reloads_rootref () =
  let arena = Shm.create ~cfg:counting_cfg () in
  let c = Shm.join arena () in
  let r = Shm.cxl_malloc c ~size_bytes:32 () in
  Cxl_ref.write_word r 1 5;
  let p = Shm.cxl_malloc c ~size_bytes:16 ~emb_cnt:1 () in
  let q = Shm.cxl_malloc c ~size_bytes:16 () in
  Cxl_ref.set_emb p 0 q;
  let v, n = accesses c (fun () -> Cxl_ref.read_word r 1) in
  Alcotest.(check int) "value" 5 v;
  Alcotest.(check int) "after an era transaction: rootref + word" 2 n;
  let _, n = accesses c (fun () -> Cxl_ref.read_word r 1) in
  Alcotest.(check int) "then one word" 1 n;
  List.iter Cxl_ref.drop [ q; p; r ];
  check_clean arena ~live:0

(* A warm memo never outlives its handle: a dropped handle raises while a
   clone sharing its RootRef keeps its one-access reads. *)
let test_dropped_handle_raises () =
  let arena = Shm.create ~cfg:counting_cfg () in
  let c = Shm.join arena () in
  let r = Shm.cxl_malloc c ~size_bytes:32 () in
  Cxl_ref.write_word r 1 3;
  let k = Cxl_ref.clone r in
  Cxl_ref.drop r;
  raises "read after drop" (fun () -> Cxl_ref.read_word r 1);
  raises "write after drop" (fun () -> Cxl_ref.write_word r 1 0);
  let v, n = accesses c (fun () -> Cxl_ref.read_word k 1) in
  Alcotest.(check int) "clone still reads" 3 v;
  Alcotest.(check int) "clone warm: word" 1 n;
  Cxl_ref.drop k;
  raises "clone read after drop" (fun () -> Cxl_ref.read_word k 1);
  check_clean arena ~live:0

let test_message_view_traffic () =
  let arena = Shm.create ~cfg:counting_cfg () in
  let c = Shm.join arena () in
  let r = Shm.cxl_malloc c ~size_bytes:32 () in
  Cxl_ref.write_word r 2 9;
  let v = Message.view_of_ref r in
  let x, n = accesses c (fun () -> Message.read_word v 2) in
  Alcotest.(check int) "value" 9 x;
  Alcotest.(check int) "one access per word" 1 n;
  let (), n = accesses c (fun () -> Message.write_word v 3 1) in
  Alcotest.(check int) "one access per write" 1 n;
  raises "negative index" (fun () -> Message.read_word v (-1));
  raises "data_words" (fun () -> Message.read_word v (Message.data_words v));
  Cxl_ref.drop r;
  check_clean arena ~live:0

let test_handler_streams_sequentially () =
  (* With the argument's meta read once by the walk, streaming its words is
     one sequential run: no per-line random miss. *)
  let words = 128 in
  let arena = Shm.create ~cfg:counting_cfg () in
  let c = Shm.join arena () in
  let s = Shm.join arena () in
  let server = Cxl_rpc.accept s ~client_cid:c.Ctx.cid ~capacity:8 in
  let client = Cxl_rpc.connect c ~server_cid:s.Ctx.cid ~capacity:8 in
  let arg = Cxl_rpc.alloc_arg client ~size_bytes:(words * 8) () in
  for j = 0 to words - 1 do
    Cxl_ref.write_word arg j j
  done;
  let p = Cxl_rpc.call_async client ~func:1 ~args:[ arg ] ~output_bytes:8 in
  let rand = ref (-1) in
  let served =
    Cxl_rpc.serve_one server ~handler:(fun ~func:_ ~args ~output ->
        match args with
        | [ a ] ->
            let before = s.Ctx.st.Stats.rand_accesses in
            let sum = ref 0 in
            for j = 0 to words - 1 do
              sum := !sum + Message.read_word a j
            done;
            rand := s.Ctx.st.Stats.rand_accesses - before;
            Message.write_word output 0 !sum
        | _ -> Alcotest.fail "one arg expected")
  in
  Alcotest.(check bool) "served" true served;
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 random accesses (got %d)" !rand)
    true
    (!rand >= 0 && !rand <= 2);
  let out = Cxl_rpc.finish p in
  Alcotest.(check int) "sum" (words * (words - 1) / 2) (Cxl_ref.read_word out 0);
  Cxl_ref.drop out;
  Cxl_ref.drop arg;
  Cxl_rpc.close_server server;
  Cxl_rpc.close_client client;
  check_clean arena ~live:0

let suite =
  [
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Generators.to_alcotest prop_serialize_roundtrip;
    Alcotest.test_case "rdma rpc" `Quick test_rdma_rpc;
    Alcotest.test_case "cxl rpc inline" `Quick test_cxl_rpc_inline;
    Alcotest.test_case "cxl rpc parallel" `Quick test_cxl_rpc_parallel;
    Alcotest.test_case "out-of-channel arg rejected" `Quick
      test_out_of_channel_rejected;
    Alcotest.test_case "wild pointer rejected" `Quick
      test_wild_pointer_rejected;
    Alcotest.test_case "huge continuation word rejected" `Quick
      test_huge_continuation_rejected;
    Alcotest.test_case "double finish rejected" `Quick
      test_double_finish_rejected;
    Alcotest.test_case "server dies mid-call" `Quick test_server_dies_mid_call;
    Alcotest.test_case "full ring, dead server unblocks" `Quick
      test_send_to_dead_server_unblocks;
    Alcotest.test_case "client dies mid-call" `Quick test_client_dies_mid_call;
    Alcotest.test_case "forged nargs rejected" `Quick test_forged_nargs_rejected;
    Alcotest.test_case "forged meta rejected" `Quick test_forged_meta_rejected;
    Alcotest.test_case
      "forged ring slot cannot make the server release a third party's object"
      `Quick test_forged_ring_slot;
    Alcotest.test_case "a served message has exactly one counted holder"
      `Quick test_served_message_one_holder;
    Alcotest.test_case "loan crash windows" `Quick test_loan_crash_windows;
    Alcotest.test_case "served call write-backs" `Quick test_serve_write_backs;
    Alcotest.test_case "a lost completion word fails the call cleanly" `Quick
      test_lost_completion_word;
    Alcotest.test_case "cxl_ref word traffic" `Quick test_cxl_ref_word_traffic;
    Alcotest.test_case "a clone reads a re-pointed RootRef" `Quick
      test_clone_reads_repointed_rootref;
    Alcotest.test_case "stale-memo mutation reads the old object" `Quick
      test_stale_memo_mutation;
    Alcotest.test_case "an era transaction reloads the RootRef once" `Quick
      test_era_transaction_reloads_rootref;
    Alcotest.test_case "a dropped handle raises" `Quick
      test_dropped_handle_raises;
    Alcotest.test_case "message view traffic" `Quick test_message_view_traffic;
    Alcotest.test_case "handler streams sequentially" `Quick
      test_handler_streams_sequentially;
  ]
