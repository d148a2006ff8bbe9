open Cxlshm

exception Peer_failed of string
exception Call_rejected of string

(* Test-only mutation switches (docs/TESTING.md "Mutation self-check"). *)
let mutation_skip_validate = ref false
let mutation_unfenced_status = ref false
let mutation_early_advance = ref false

let status_pending = 0
let status_done = 1
let status_rejected = 2

(* Client-side only, never stored in shared memory: the ring slot came back
   while the call's completion word was still pending. *)
let status_lost = 3

type client = {
  ctx : Ctx.t;
  server_cid : int;
  req : Transfer.t; (* client → server *)
  chan_segs : int list; (* the channel's private sub-heap, client-owned *)
  mutable cclosed : bool;
  ring : pending option array;
      (* the call lent into each ring slot, by position: its message lives
         until the next lend into that slot *)
  mutable lent : int;  (* loans so far: the queue's tail *)
}

and pending = {
  pc : client;
  mv : Message.view;  (* over the lent message, which the ring slot keeps alive *)
  output : Cxl_ref.t;
  mutable settled : int;
      (* status_pending until the message is about to be reclaimed; then the
         completion word as last read *)
  mutable finished : bool;
}

type server = {
  mutable peer_segs_ok : bool;
      (* RPCool's attached-shared-heap escape hatch: also accept blocks
         homed in segments the peer client itself owns (see mli). *)
  sctx : Ctx.t;
  client_cid : int;
  mutable sreq : Transfer.t option;  (** opened lazily once the client connects *)
  mutable chan : int list; (* sub-heap read from the slot registry at open *)
  mutable rejected : int;
}

(* A peer is gone when the membership layer says so: declared failed, or its
   lease lapsed without renewal. Checking the lease word directly (rather
   than waiting for a monitor to condemn the peer) bounds every spin below
   by the lease term even when no monitor is running. *)
let peer_alive ctx ~cid = Client.is_alive ctx ~cid && not (Lease.expired ctx ~cid)

(* Poll pacing from the context's Retry ladder: spin [backoff/base] relaxes
   at rung [attempt] (capped at the policy's last rung), so liveness
   re-checks decay geometrically exactly like transient-fault retries do. *)
let relax_ladder (ctx : Ctx.t) attempt =
  let policy = ctx.Ctx.retry in
  let ns = Retry.backoff_ns policy (min attempt policy.Retry.max_attempts) in
  let spins = int_of_float (ns /. Float.max policy.Retry.base_backoff_ns 1.0) in
  for _ = 1 to max 1 spins do
    Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* Channel setup: queue + private sub-heap                             *)
(* ------------------------------------------------------------------ *)

let claim_sub_heap (ctx : Ctx.t) n =
  let num = (Ctx.cfg ctx).Config.num_segments in
  let rec go s acc k =
    if k = n then List.rev acc
    else if s >= num then begin
      List.iter (fun seg -> Segment.release ctx seg) acc;
      raise Alloc.Out_of_shared_memory
    end
    else if Segment.claim ctx s then go (s + 1) (s :: acc) (k + 1)
    else go (s + 1) acc k
  in
  go 0 [] 0

let connect ?(sub_heap_segments = 1) ctx ~server_cid ~capacity =
  if sub_heap_segments < 1 || sub_heap_segments > Layout.queue_max_channel_segs
  then invalid_arg "Cxl_rpc.connect: sub_heap_segments out of range";
  let chan_segs = claim_sub_heap ctx sub_heap_segments in
  (* Exclude before the queue object is allocated: the queue must live in
     the ordinary heap — a dead client's sub-heap segments must never be
     pinned by the directory slot's counted queue pointer. *)
  List.iter (Ctx.exclude_segment ctx) chan_segs;
  let req =
    try Transfer.connect ~channel_segs:chan_segs ctx ~receiver:server_cid ~capacity
    with
    | Fault.Crashed _ as e ->
        (* A dead client runs no compensation: recovery reclaims the
           sub-heap through the failure path. *)
        raise e
    | e ->
      List.iter
        (fun seg ->
          Ctx.unexclude_segment ctx seg;
          Segment.release ctx seg)
        chan_segs;
      raise e
  in
  {
    ctx;
    server_cid;
    req;
    chan_segs;
    cclosed = false;
    ring = Array.make capacity None;
    lent = 0;
  }

let channel_segments c = c.chan_segs

let accept sctx ~client_cid ~capacity =
  ignore capacity;
  { peer_segs_ok = false; sctx; client_cid; sreq = None; chan = []; rejected = 0 }

let rejected_calls s = s.rejected

let allow_peer_segments s = s.peer_segs_ok <- true

let rec server_req s =
  match s.sreq with
  | Some q -> q
  | None -> (
      match Transfer.open_from s.sctx ~sender:s.client_cid with
      | Some q ->
          s.sreq <- Some q;
          (* The registry is published before the slot turns active, so this
             one read fixes the channel's sub-heap for its lifetime. *)
          let segs = Transfer.channel_segs s.sctx (Transfer.dir_index q) in
          s.chan <- segs;
          List.iter (Ctx.exclude_segment s.sctx) segs;
          q
      | None ->
          if not (peer_alive s.sctx ~cid:s.client_cid) then
            raise (Peer_failed "Cxl_rpc.serve: client failed before connecting");
          Domain.cpu_relax ();
          server_req s)

(* ------------------------------------------------------------------ *)
(* Client: in-channel allocation and bounded calls                     *)
(* ------------------------------------------------------------------ *)

let check_open c =
  if c.cclosed then invalid_arg "Cxl_rpc: client channel is closed"

let alloc_arg c ~size_bytes ?(emb_cnt = 0) () =
  check_open c;
  Ctx.with_pin c.ctx c.chan_segs (fun () ->
      Shm.cxl_malloc c.ctx ~size_bytes ~emb_cnt ())

(* The completion word, or its last reading once the message is gone. *)
let status p =
  if p.settled <> status_pending then p.settled else Message.status p.mv

let unsettled p = (not p.finished) && p.settled = status_pending

(* Keep an unfinished call's completion word before its message is
   reclaimed: by the next lend into its slot, or by queue teardown. The
   server hands a slot back only after raising the word, so a word still
   pending here means the server broke the protocol. *)
let settle p =
  p.settled <-
    (match Message.status p.mv with
    | s when s = status_pending -> status_lost
    | s -> s)

(* Bounded lend: a full ring under a live server is back-pressure, but a
   full ring whose server is dead used to spin forever. Every retry
   re-reads the server's membership and lease words, so the wait is bounded
   by failure detection, not by luck. *)
let send_bounded c p msg =
  let fail reason =
    Cxl_ref.drop msg;
    Cxl_ref.drop p.output;
    raise (Peer_failed reason)
  in
  let cap = Array.length c.ring in
  let pos = c.lent mod cap in
  let rec go attempt =
    (* An unfinished call in this slot loses its message to the lend: read
       its completion word first, once the ring has room (the head passed
       it, so the server is done with it). *)
    (match c.ring.(pos) with
    | Some old when unsettled old && Transfer.pending c.req < cap ->
        settle old
    | Some _ | None -> ());
    match Transfer.lend c.req msg with
    | Transfer.Sent ->
        c.ring.(pos) <- Some p;
        c.lent <- c.lent + 1
    | Transfer.Closed -> fail "Cxl_rpc.call: server closed the channel"
    | Transfer.Full ->
        if not (peer_alive c.ctx ~cid:c.server_cid) then
          fail "Cxl_rpc.call: server failed (ring full, lease lapsed)";
        relax_ladder c.ctx attempt;
        go (attempt + 1)
  in
  go 1

let call_async c ~func ~args ~output_bytes =
  check_open c;
  (* Everything the message closure reaches is carved inside the channel's
     sub-heap — the pin turns any placement that cannot stay in-channel
     (e.g. a huge payload) into Out_of_shared_memory at the caller. *)
  let output, msg =
    Ctx.with_pin c.ctx c.chan_segs (fun () ->
        let output = Shm.cxl_malloc c.ctx ~size_bytes:output_bytes () in
        match Message.build c.ctx ~func ~args ~output with
        | msg -> (output, msg)
        | exception (Fault.Crashed _ as e) ->
            (* Dead clients run no compensation — the half-built message is
               the recovery service's to reap, and dropping here would
               overwrite the redo record of the very transaction recovery
               must resume. *)
            raise e
        | exception e ->
            Cxl_ref.drop output;
            raise e)
  in
  (* The lend moves our only reference into the ring slot, which keeps the
     message alive until our next lend into that slot. The completion word
     is polled through a view made while the message's lines are still
     cached. *)
  let p =
    {
      pc = c;
      mv = Message.view_of_ref msg;
      output;
      settled = status_pending;
      finished = false;
    }
  in
  send_bounded c p msg;
  p

let can_call c =
  check_open c;
  Transfer.pending c.req < Array.length c.ring

let check_unfinished p =
  if p.finished then invalid_arg "Cxl_rpc.finish: pending already finished"

let is_done p =
  if status p = status_pending then false
  else begin
    (* Acquire side of the completion handshake: order the status read
       before the caller's in-place output reads, pairing with the server's
       pre-status release fence. Without it the caller can observe the
       raised completion word yet read pre-call output bytes. *)
    Ctx.fence p.pc.ctx;
    true
  end

(* The message is the channel's, so finishing drops only the output when
   the call failed; the caller keeps its own argument handles. *)
let abandon p exn =
  p.finished <- true;
  Cxl_ref.drop p.output;
  raise exn

let finish_now p =
  let st = status p in
  if st = status_rejected then
    abandon p
      (Call_rejected
         "Cxl_rpc: server rejected the call (out-of-channel or wild pointer, \
          or malformed message)")
  else if st = status_lost then
    abandon p
      (Peer_failed
         "Cxl_rpc: the call's message was reclaimed before its completion \
          (slot returned early, or channel closed)")
  else begin
    p.finished <- true;
    p.output
  end

let try_finish p =
  check_unfinished p;
  if is_done p then Some (finish_now p) else None

let discard p =
  if not p.finished then begin
    p.finished <- true;
    Cxl_ref.drop p.output
  end

let finish p =
  check_unfinished p;
  let c = p.pc in
  let rec go attempt =
    if is_done p then finish_now p
    else if
      Transfer.peer_closed c.req || not (peer_alive c.ctx ~cid:c.server_cid)
    then
      (* One last look: the server may have raised the completion word
         right before dying or closing. *)
      if is_done p then finish_now p
      else abandon p (Peer_failed "Cxl_rpc.finish: server failed mid-call")
    else begin
      relax_ladder c.ctx attempt;
      go (attempt + 1)
    end
  in
  go 1

let call c ~func ~args ~output_bytes =
  finish (call_async c ~func ~args ~output_bytes)

(* ------------------------------------------------------------------ *)
(* Server: pointer-isolation walk + serve loop                         *)
(* ------------------------------------------------------------------ *)

type handler = func:int -> args:Message.view list -> output:Message.view -> unit

let in_channel lay chan addr =
  match Layout.segment_of_addr lay addr with
  | exception Invalid_argument _ -> false
  | seg -> List.mem seg chan

(* The opt-in trust extension: a block is also acceptable when it is homed
   in a segment the peer client itself owns (never a third party's, never
   a free segment). The walk still recurses through it, so a peer-owned
   object cannot launder a reference into someone else's heap. *)
let peer_owned (s : server) addr =
  s.peer_segs_ok
  &&
  match Layout.segment_of_addr s.sctx.Ctx.lay addr with
  | exception Invalid_argument _ -> false
  | seg -> Segment.owner s.sctx seg = Some s.client_cid

type verdict =
  | Valid of Message.view * Message.view list * Message.view
      (** message, arguments, output *)
  | Invalid of Message.view * int list
      (** the message, and the wild slots to neutralise *)
  | Not_a_message  (** the slot names no block of the channel *)

(* The RPCool receive-side walk: every reference the message closure can
   reach must be the base of a live block inside the channel's sub-heap,
   and its meta must fit inside that block. Discipline: a node's embedded
   slots are read only after the node itself passed
   {!Heap.block_capacity} (metadata reads only) and its meta was
   bounded by the block's capacity, so a hostile word is never
   dereferenced and a forged meta never reaches past its block. Every read
   is charged to the server. Each block's meta is read once, and the
   message, argument and output views are built from the walk's own
   reads, so the handler sees exactly the slots and meta that were
   validated. Wild slots are collected so disposal can neutralise them
   before any teardown walk would chase them. *)
let validate_message (s : server) msg_obj =
  let ctx = s.sctx in
  let lay = ctx.Ctx.lay in
  let vet w =
    if !mutation_skip_validate then `Ok max_int
    else
      match Heap.block_capacity ~read:(Ctx.load ctx) lay w with
      | None -> `Wild
      | Some cap ->
          if in_channel lay s.chan w || peer_owned s w then `Ok cap
          else `Foreign
  in
  let ok = ref true in
  let wild = ref [] in
  let metas = Hashtbl.create 8 in
  let view obj = Message.of_meta ctx obj ~meta:(Hashtbl.find metas obj) in
  (* Read [obj]'s meta, bound it by the block's capacity, vet and walk its
     embedded slots, and return the slot words as read (none when the meta
     overreaches). *)
  let rec node obj cap depth =
    let meta = Ctx.load ctx (Obj_header.meta_of_obj obj) in
    Hashtbl.add metas obj meta;
    let dw = Obj_header.meta_data_words meta in
    let emb = Obj_header.meta_emb_cnt meta in
    if dw > cap || emb > dw then begin
      ok := false;
      [||]
    end
    else
      Array.init emb (fun i ->
          let slot = Obj_header.emb_slot obj i in
          let w = Ctx.load ctx slot in
          (if w <> 0 && not (Hashtbl.mem metas w) then
             match vet w with
             | `Ok cap -> if depth < 64 then ignore (node w cap (depth + 1))
             | `Wild ->
                 (* Not the base of any live block: following it would be a
                    wild dereference. Record the slot for neutralisation. *)
                 ok := false;
                 wild := slot :: !wild
             | `Foreign ->
                 (* A structurally valid block outside the sub-heap (and
                    outside any opted-in peer-owned segment): a smuggled
                    pointer into someone else's heap. Reject without
                    recursing — its closure is not ours to walk, and the
                    slot itself is counted (Message.build attached it), so
                    the teardown detach at disposal is safe. *)
                 ok := false);
          w)
  in
  match vet msg_obj with
  | `Wild | `Foreign -> Not_a_message
  | `Ok cap ->
      let slots = node msg_obj cap 0 in
      let v = view msg_obj in
      (* The argument count is the validated meta's, never the client's
         count word: a message whose count word disagrees, or with a null
         slot, is malformed. *)
      if
        !ok && Message.well_formed v
        && Message.count_word v = Message.nargs v
        && Array.for_all (fun w -> w <> 0) slots
      then
        let n = Message.nargs v in
        Valid (v, List.init n (fun i -> view slots.(i)), view slots.(n))
      else Invalid (v, !wild)

(* Serve the head loan in place. The ring slot keeps the message alive,
   so the server takes no reference, allocates no RootRef and releases
   nothing: advancing the head after the completion word is raised hands
   the slot back, and the client frees the message at its next lend. *)
let serve_one s ~handler =
  let q = server_req s in
  match Transfer.peek q with
  | None -> false
  | Some msg_obj ->
      (* Mutation self-check switch: hand the slot back before the call is
         served, so the client can reclaim the message under the
         handler. *)
      if !mutation_early_advance then Transfer.advance q;
      (match validate_message s msg_obj with
      | Not_a_message ->
          s.rejected <- s.rejected + 1;
          (* Cleared with a plain store, no count change: were the word a
             forged reference to another client's object, the queue's
             teardown would drop a count nobody holds. No completion is
             raised into a block outside the channel. *)
          Transfer.clear_head q
      | Invalid (v, wild) ->
          s.rejected <- s.rejected + 1;
          (* Neutralise wild slots with raw stores — they name no block, so
             no count is owed — or a teardown walk would chase them. *)
          List.iter (fun slot -> Ctx.store s.sctx slot 0) wild;
          Ctx.fence s.sctx;
          (* Error completion: raise the client's poll word to the rejected
             state. Nothing in the closure was dereferenced. A block without
             the message layout has no status word to raise. *)
          if Message.well_formed v then Message.set_status v status_rejected
      | Valid (v, args, output) ->
          (* Mutation self-check switch: the historical unfenced completion
             publish. The simulator's memory is sequentially consistent, so
             the mutation applies the reordering the missing release/acquire
             pair permitted on hardware — the completion word becomes
             visible before the handler's in-place output writes. *)
          if !mutation_unfenced_status then Message.set_status v status_done;
          handler ~func:(Message.func v) ~args ~output;
          (* Release: publish the in-place results before raising the
             completion word the client polls. *)
          Ctx.fence s.sctx;
          Ctx.crash_point s.sctx Fault.Rpc_before_status;
          if not !mutation_unfenced_status then
            Message.set_status v status_done);
      if not !mutation_early_advance then Transfer.advance q;
      true

let serve_until s ~handler ~stop =
  while not (Atomic.get stop) do
    if not (serve_one s ~handler) then Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* Teardown / revocation                                               *)
(* ------------------------------------------------------------------ *)

(* Return emptied sub-heap segments to the arena. Era-safe: batched
   retirements are flushed first so dead channel blocks actually reach
   count zero, and only provably empty segments (no live block, no in-use
   RootRef — {!Reclaim.segment_all_zero}) are reset. A segment something
   still references (an undrained in-flight message, a caller-retained
   output) simply stays claimed until those references die. *)
let release_sub_heap (ctx : Ctx.t) segs =
  Reclaim.flush_retired ctx;
  List.iter
    (fun seg ->
      if
        Segment.owner ctx seg = Some ctx.Ctx.cid
        && Reclaim.segment_all_zero ctx seg
      then Reclaim.recycle_plain_segment ctx seg)
    segs

let close_client c =
  if not c.cclosed then begin
    c.cclosed <- true;
    (* The queue's teardown may free the lent messages. *)
    Array.iter
      (Option.iter (fun p -> if unsettled p then settle p))
      c.ring;
    Transfer.close c.req;
    List.iter (fun seg -> Ctx.unexclude_segment c.ctx seg) c.chan_segs;
    release_sub_heap c.ctx c.chan_segs
  end

let close_server s =
  match s.sreq with
  | Some q ->
      (* The queue teardown reaps any never-consumed in-flight messages
         while the sub-heap is still excluded on this side; the freed
         channel blocks go to their own segments' client-free lists. *)
      Transfer.close q;
      let segs = s.chan in
      List.iter (fun seg -> Ctx.unexclude_segment s.sctx seg) segs;
      s.chan <- [];
      s.sreq <- None;
      (* Revoke a dead claimant's sub-heap. While this side held the
         channel, recovery of the dead client left its segments orphaned
         rather than recycling them under our in-flight frees (and our own
         reap of its messages may have re-marked them leaking); now that
         the queue is torn down and nothing else touches the sub-heap,
         recycle whatever is empty. A live claimant keeps ownership and
         releases in [close_client] instead. *)
      List.iter
        (fun seg ->
          match Segment.owner s.sctx seg with
          | Some owner
            when owner <> s.sctx.Ctx.cid
                 && (not (Client.is_alive s.sctx ~cid:owner))
                 && (match Segment.state s.sctx seg with
                    | Segment.Orphaned | Segment.Leaking -> true
                    | _ -> false) ->
              ignore (Reclaim.scan_segment s.sctx seg)
          | Some _ | None -> ())
        segs
  | None -> ()
