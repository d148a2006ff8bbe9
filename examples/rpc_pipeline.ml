(* Pass-by-reference RPC (§2.2.1, §6.3): a two-stage microservice pipeline.

   A "gateway" client calls a "tokeniser" service, whose output object is
   then passed — by reference, never copied — to a "scorer" service. The
   intermediate object moves between three isolation domains without a
   single serialisation step. Each service runs in its own domain, like a
   microservice in its own failure domain.

   Run: dune exec examples/rpc_pipeline.exe *)

open Cxlshm
open Cxlshm_rpc

let tokenise_func = 1
let score_func = 2

let service_body arena ~gateway_cid ~announce =
  let ctx = Shm.join arena () in
  announce ctx.Ctx.cid;
  let server = Cxl_rpc.accept ctx ~client_cid:gateway_cid ~capacity:8 in
  (* The request text and the tokeniser's output are gateway objects
     outside this channel's sub-heap: accept blocks the gateway itself
     owns (RPCool's attached shared heap). *)
  Cxl_rpc.allow_peer_segments server;
  let handled = ref 0 in
  let handler ~func ~args ~output =
    match (func, args) with
    | f, [ text ] when f = tokenise_func ->
        (* split into words, store count + first-word hash in the output *)
        let len = Message.read_word text 0 in
        let s = Bytes.to_string (Message.read_bytes_at text ~word_off:1 ~len) in
        let words = List.filter (( <> ) "") (String.split_on_char ' ' s) in
        Message.write_word output 0 (List.length words);
        Message.write_word output 1
          (match words with w :: _ -> Hashtbl.hash w land 0xFFFF | [] -> 0)
    | f, [ tokens ] when f = score_func ->
        (* score = 10 * word count + hash fragment — reads the tokeniser's
           output object in place *)
        let count = Message.read_word tokens 0 in
        let h = Message.read_word tokens 1 in
        Message.write_word output 0 ((10 * count) + (h land 0xF))
    | _ -> failwith "unknown function"
  in
  while !handled < 3 do
    if Cxl_rpc.serve_one server ~handler then incr handled
    else Domain.cpu_relax ()
  done;
  Cxl_rpc.close_server server;
  Shm.leave ctx

let () =
  let arena = Shm.create () in
  let gateway = Shm.join arena () in
  let tok_cid = Atomic.make (-1) and score_cid = Atomic.make (-1) in
  let tok_domain =
    Domain.spawn (fun () ->
        service_body arena ~gateway_cid:gateway.Ctx.cid
          ~announce:(Atomic.set tok_cid))
  in
  let score_domain =
    Domain.spawn (fun () ->
        service_body arena ~gateway_cid:gateway.Ctx.cid
          ~announce:(Atomic.set score_cid))
  in
  let rec wait cell =
    match Atomic.get cell with
    | -1 ->
        Domain.cpu_relax ();
        wait cell
    | c -> c
  in
  let tokeniser = Cxl_rpc.connect gateway ~server_cid:(wait tok_cid) ~capacity:8 in
  let scorer = Cxl_rpc.connect gateway ~server_cid:(wait score_cid) ~capacity:8 in

  List.iter
    (fun sentence ->
      (* stage 0: put the request payload in the pool *)
      let text =
        Shm.cxl_malloc gateway ~size_bytes:(8 + String.length sentence) ()
      in
      Cxl_ref.write_word text 0 (String.length sentence);
      Cxlshm_shmem.Mem.write_bytes gateway.Ctx.mem ~st:gateway.Ctx.st
        ~lines:gateway.Ctx.lines
        (Obj_header.data_of_obj (Cxl_ref.obj text) + 1)
        (Bytes.of_string sentence);
      (* stage 1: tokenise *)
      let tokens =
        Cxl_rpc.call tokeniser ~func:tokenise_func ~args:[ text ]
          ~output_bytes:16
      in
      (* stage 2: score — the tokeniser's OUTPUT object is the argument,
         passed by reference *)
      let score =
        Cxl_rpc.call scorer ~func:score_func ~args:[ tokens ] ~output_bytes:8
      in
      Printf.printf "%-28s -> %d words, score %d\n" sentence
        (Cxl_ref.read_word tokens 0)
        (Cxl_ref.read_word score 0);
      List.iter Cxl_ref.drop [ text; tokens; score ])
    [ "memory wants to be shared"; "no copies were made"; "references travel light" ];

  (* the tokeniser handled 3 calls, the scorer handled 3 calls *)
  Domain.join tok_domain;
  Domain.join score_domain;
  Cxl_rpc.close_client tokeniser;
  Cxl_rpc.close_client scorer;
  Shm.leave gateway;
  let v = Shm.validate arena in
  assert (Validate.is_clean v);
  print_endline "pipeline OK — three isolation domains, zero copies"
