module Mem = Cxlshm_shmem.Mem
module Histogram = Cxlshm_shmem.Histogram

type endpoint = Sender | Receiver

type t = {
  ctx : Ctx.t;
  qref : Cxl_ref.t;
  dir_idx : int;
  endpoint : endpoint;
  capacity : int;
}

let capacity t = t.capacity
let endpoint t = t.endpoint
let queue_ref t = t.qref
let dir_index t = t.dir_idx

(* Test-only: see the mutation comment in [receive]. *)
let mutation_unfenced_advance = ref false

(* Queue-object data layout: ring slots are the emb slots [0..cap-1];
   plain words after them hold the queue header fields of Fig 5. *)
let w_capacity = 0
let w_head = 1
let w_tail = 2
let w_sender = 3
let w_receiver = 4
let w_flags = 5
let extra_words = 6
let flag_sender_closed = 1
let flag_receiver_closed = 2

let qword (_ctx : Ctx.t) qobj ~cap i =
  Obj_header.data_of_obj qobj + cap + i

let qload t i = Ctx.load t.ctx (qword t.ctx (Cxl_ref.obj t.qref) ~cap:t.capacity i)
let qstore t i v = Ctx.store t.ctx (qword t.ctx (Cxl_ref.obj t.qref) ~cap:t.capacity i) v

let peer t = if t.endpoint = Sender then qload t w_receiver - 1 else qload t w_sender - 1
let pending t = qload t w_tail - qload t w_head

let peer_closed t =
  let bit =
    if t.endpoint = Sender then flag_receiver_closed else flag_sender_closed
  in
  qload t w_flags land bit <> 0

(* Directory slot: +0 state {phase:4, owner_cid+1:10}, +1 sender cid+1,
   +2 receiver cid+1, +3 counted queue pointer. *)
let phase_free = 0
let phase_claiming = 1
let phase_active = 2
let phase_cleaning = 3

let pack_state ~phase ~owner = phase lor ((owner + 1) lsl 4)
let phase_of s = s land 0xf
let owner_of s = (s lsr 4) - 1

let slot_state lay q = Layout.queue_slot lay q
let slot_sender lay q = Layout.queue_slot lay q + 1
let slot_receiver lay q = Layout.queue_slot lay q + 2
let slot_qptr lay q = Layout.queue_slot lay q + 3

(* Channel sub-heap registry: the directory slot's four spare words record
   which segments an RPC channel carved out as its private sub-heap, so the
   peer (validation walk) and recovery (revocation) can find them without
   any out-of-band state. *)
let set_channel_segs (ctx : Ctx.t) q segs =
  let lay = ctx.Ctx.lay in
  let n = List.length segs in
  if n > Layout.queue_max_channel_segs then
    invalid_arg "Transfer.set_channel_segs: too many segments";
  List.iteri
    (fun k s -> Ctx.store ctx (Layout.queue_slot_seg lay q k) (s + 1))
    segs;
  Ctx.store ctx (Layout.queue_slot_nsegs lay q) n;
  Ctx.fence ctx

let channel_segs (ctx : Ctx.t) q =
  let lay = ctx.Ctx.lay in
  let n =
    min
      (Ctx.load ctx (Layout.queue_slot_nsegs lay q))
      Layout.queue_max_channel_segs
  in
  List.filter_map
    (fun k ->
      let v = Ctx.load ctx (Layout.queue_slot_seg lay q k) in
      if v = 0 then None else Some (v - 1))
    (List.init (max n 0) Fun.id)

let clear_channel_segs (ctx : Ctx.t) q =
  let lay = ctx.Ctx.lay in
  Ctx.store ctx (Layout.queue_slot_nsegs lay q) 0;
  for k = 0 to Layout.queue_max_channel_segs - 1 do
    Ctx.store ctx (Layout.queue_slot_seg lay q k) 0
  done

(* True when [seg] is registered as a channel sub-heap on some in-use
   directory slot with an endpoint other than [dead_cid] still alive.
   Recovery consults this before recycling a dead claimant's segment: the
   surviving peer is still operating on the sub-heap — frees of reaped
   messages may be in flight — so the segment must stay (orphaned) until
   that peer revokes the channel or dies in turn. *)
let seg_held_by_live_peer (ctx : Ctx.t) ~seg ~dead_cid =
  let lay = ctx.Ctx.lay in
  let nslots = lay.Layout.cfg.Config.queue_slots in
  let live c = c >= 0 && c <> dead_cid && Client.is_alive ctx ~cid:c in
  let rec go q =
    if q >= nslots then false
    else
      let st = Ctx.load ctx (slot_state lay q) in
      (phase_of st <> phase_free
      && List.mem seg (channel_segs ctx q)
      && (live (owner_of st)
         || live (Ctx.load ctx (slot_sender lay q) - 1)
         || live (Ctx.load ctx (slot_receiver lay q) - 1)))
      || go (q + 1)
  in
  go 0

let connect ?(channel_segs = []) (ctx : Ctx.t) ~receiver ~capacity:cap =
  if cap < 1 then invalid_arg "Transfer.connect: capacity must be positive";
  if List.length channel_segs > Layout.queue_max_channel_segs then
    invalid_arg "Transfer.connect: too many channel segments";
  let lay = ctx.Ctx.lay in
  let nslots = (Ctx.cfg ctx).Config.queue_slots in
  let rec claim q =
    if q >= nslots then failwith "Transfer.connect: queue directory full"
    else if
      Ctx.cas ctx (slot_state lay q) ~expected:phase_free
        ~desired:(pack_state ~phase:phase_claiming ~owner:ctx.cid)
    then q
    else claim (q + 1)
  in
  let q = claim 0 in
  let rr, qobj = Alloc.alloc_obj ctx ~data_words:(cap + extra_words) ~emb_cnt:cap in
  let qref = Cxl_ref.of_rootref ctx rr in
  Ctx.store ctx (slot_sender lay q) (ctx.cid + 1);
  Ctx.store ctx (slot_receiver lay q) (receiver + 1);
  (* The directory holds a counted reference so the queue survives either
     endpoint — attached with the standard era transaction. *)
  Refc.attach ctx ~ref_addr:(slot_qptr lay q) ~refed:qobj;
  let qw = qword ctx qobj ~cap in
  Ctx.store ctx (qw w_capacity) cap;
  Ctx.store ctx (qw w_head) 0;
  Ctx.store ctx (qw w_tail) 0;
  Ctx.store ctx (qw w_sender) (ctx.cid + 1);
  Ctx.store ctx (qw w_receiver) (receiver + 1);
  Ctx.store ctx (qw w_flags) 0;
  (* The sub-heap registry must be in place before the slot turns active:
     the receiver reads it exactly once, at open. *)
  if channel_segs <> [] then set_channel_segs ctx q channel_segs;
  Ctx.fence ctx;
  Ctx.store ctx (slot_state lay q) (pack_state ~phase:phase_active ~owner:ctx.cid);
  { ctx; qref; dir_idx = q; endpoint = Sender; capacity = cap }

let open_from (ctx : Ctx.t) ~sender =
  let lay = ctx.Ctx.lay in
  let nslots = (Ctx.cfg ctx).Config.queue_slots in
  let rec find q =
    if q >= nslots then None
    else if
      phase_of (Ctx.load ctx (slot_state lay q)) = phase_active
      && Ctx.load ctx (slot_sender lay q) = sender + 1
      && Ctx.load ctx (slot_receiver lay q) = ctx.cid + 1
    then Some q
    else find (q + 1)
  in
  match find 0 with
  | None -> None
  | Some q ->
      let qobj = Ctx.load ctx (slot_qptr lay q) in
      if qobj = 0 then None
      else begin
        let rr = Alloc.alloc_rootref ctx in
        Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:qobj;
        let qref = Cxl_ref.of_rootref ctx rr in
        (* The ring capacity is the queue object's embedded-slot count. *)
        let cap =
          Obj_header.meta_emb_cnt (Ctx.load ctx (Obj_header.meta_of_obj qobj))
        in
        assert (Ctx.load ctx (qword ctx qobj ~cap w_capacity) = cap);
        Some { ctx; qref; dir_idx = q; endpoint = Receiver; capacity = cap }
      end

type send_result = Sent | Full | Closed

(* Send (§5.2): attach up to [room] payloads to consecutive tail slots,
   then publish the whole prefix with ONE fence and ONE tail store. The
   single tail advance is the only commit point, so the receiver either
   sees none of the batch or a dense prefix of it — per-message
   exactly-once semantics are untouched. A crash between an attach and the
   tail store leaves the slot references owned by the queue object. The
   tail-line write-back rides the next batch boundary under epoch batching
   ({!Ctx.flush_deferred}): the tail value is recoverable from the attached
   slots, so the flush only bounds how much a post-crash receiver
   re-sees. *)
let send_batch t payloads =
  assert (t.endpoint = Sender);
  Trace.with_span t.ctx Histogram.Transfer_send ~addr:(Cxl_ref.obj t.qref)
  @@ fun () ->
  let flags = qload t w_flags in
  if flags land flag_receiver_closed <> 0 then (0, Closed)
  else begin
    let tail = qload t w_tail in
    let head = qload t w_head in
    let room = t.capacity - (tail - head) in
    if room <= 0 then (0, Full)
    else begin
      let qobj = Cxl_ref.obj t.qref in
      let n = ref 0 in
      List.iteri
        (fun i p ->
          if i < room then begin
            let slot = Obj_header.emb_slot qobj ((tail + i) mod t.capacity) in
            Refc.attach t.ctx ~ref_addr:slot ~refed:(Cxl_ref.obj p);
            Ctx.crash_point t.ctx Fault.Send_after_attach;
            incr n
          end)
        payloads;
      Ctx.fence t.ctx;
      (* Ownership of all [!n] messages transfers here. *)
      qstore t w_tail (tail + !n);
      Ctx.flush_deferred t.ctx (qword t.ctx qobj ~cap:t.capacity w_tail);
      (!n, if !n = List.length payloads then Sent else Full)
    end
  end

let send t payload = snd (send_batch t [ payload ])

(* Lend (the RPC request path): the sender keeps owning what it sends. One
   count-neutral swap moves the caller's only reference into the tail slot
   and the slot's leftover — a message the receiver already consumed, or
   null — back into the caller's RootRef, which the caller then releases.
   So the slot keeps the message alive while the receiver serves it in
   place, and the sender frees it when it next lends into the slot. A
   crash after the swap leaves the new message owned by the queue (not yet
   published) and the leftover by the caller's RootRef, which recovery
   reaps with the caller. *)
let lend t r =
  assert (t.endpoint = Sender);
  let qobj = Cxl_ref.obj t.qref in
  Trace.with_span t.ctx Histogram.Transfer_send ~addr:qobj @@ fun () ->
  let qw = qword t.ctx qobj ~cap:t.capacity in
  if Ctx.load t.ctx (qw w_flags) land flag_receiver_closed <> 0 then Closed
  else begin
    let tail = Ctx.load t.ctx (qw w_tail) in
    if tail - Ctx.load t.ctx (qw w_head) >= t.capacity then Full
    else begin
      let obj = Cxl_ref.obj r in
      let rr = Cxl_ref.into_rootref r in
      let slot = Obj_header.emb_slot qobj (tail mod t.capacity) in
      let leftover = Ctx.load t.ctx slot in
      Refc.swap t.ctx ~ref_addr:slot ~rr ~from_obj:leftover ~to_obj:obj;
      Ctx.crash_point t.ctx Fault.Send_after_attach;
      if leftover <> 0 then Reclaim.release_rootref t.ctx rr
      else Alloc.free_rootref t.ctx rr;
      Ctx.fence t.ctx;
      Ctx.store t.ctx (qw w_tail) (tail + 1);
      Ctx.flush_deferred t.ctx (qw w_tail);
      Sent
    end
  end

(* Final teardown of a directory slot once both endpoints are closed, or
   the undo of a half-built registration: the [as_cid] identity performs
   the resumable release of the directory's counted reference
   ({!Reclaim.release_as}). Idempotent: a re-run sees qptr = 0 and just
   frees the slot. *)
let cleanup_slot (ctx : Ctx.t) ~as_cid ~reclaim q =
  let lay = ctx.Ctx.lay in
  let qptr = Ctx.load ctx (slot_qptr lay q) in
  if qptr <> 0 then
    Reclaim.release_as ctx ~as_cid ~reclaim ~ref_addr:(slot_qptr lay q)
      ~obj:qptr;
  clear_channel_segs ctx q;
  Ctx.store ctx (slot_sender lay q) 0;
  Ctx.store ctx (slot_receiver lay q) 0;
  Ctx.fence ctx;
  Ctx.store ctx (slot_state lay q) phase_free

let try_cleanup (ctx : Ctx.t) ~as_cid ~reclaim q =
  let lay = ctx.Ctx.lay in
  let st = Ctx.load ctx (slot_state lay q) in
  if
    phase_of st = phase_active
    && Ctx.cas ctx (slot_state lay q) ~expected:st
         ~desired:(pack_state ~phase:phase_cleaning ~owner:as_cid)
  then cleanup_slot ctx ~as_cid ~reclaim q

let set_flag t bit =
  let qobj = Cxl_ref.obj t.qref in
  let addr = qword t.ctx qobj ~cap:t.capacity w_flags in
  let rec loop () =
    let cur = Ctx.load t.ctx addr in
    if cur land bit = 0 then
      if not (Ctx.cas t.ctx addr ~expected:cur ~desired:(cur lor bit)) then
        loop ()
  in
  loop ()

let close t =
  let bit = if t.endpoint = Sender then flag_sender_closed else flag_receiver_closed in
  set_flag t bit;
  let flags = qload t w_flags in
  if
    flags land flag_sender_closed <> 0
    && flags land flag_receiver_closed <> 0
  then
    try_cleanup t.ctx ~as_cid:t.ctx.Ctx.cid
      ~reclaim:(Alloc.free_obj_block t.ctx) t.dir_idx;
  Cxl_ref.drop t.qref

type recv_result = Received of Cxl_ref.t | Empty | Drained
type recv_batch = Received_batch of Cxl_ref.t list | Batch_empty | Batch_drained

(* Receive (§5.2): consume up to [max] messages. Each slot's counted
   reference is relinked to a fresh RootRef by one count-neutral swap era
   transaction — two plain stores under one redo record, no header CAS, and
   the object's count never transits zero. A crash mid-batch leaves the
   relinked messages owned by this client's RootRefs (reaped with the
   client) and the rest owned by the queue. *)
let receive_batch t ~max =
  assert (t.endpoint = Receiver);
  Trace.with_span t.ctx Histogram.Transfer_recv ~addr:(Cxl_ref.obj t.qref)
  @@ fun () ->
  let head = qload t w_head in
  let tail = qload t w_tail in
  if head = tail then
    if qload t w_flags land flag_sender_closed <> 0 then Batch_drained
    else Batch_empty
  else begin
    let n = min max (tail - head) in
    if n <= 0 then Batch_empty
    else begin
      let qobj = Cxl_ref.obj t.qref in
      (* Mutation self-check switch: re-introduces the pre-fix unfenced head
         advance. As with [Spsc_queue.mutation_unfenced_pop], the
         simulator's atomics are sequentially consistent, so the mutation
         applies the reordering the missing fence permitted on hardware —
         the head store becomes visible before the slot relinks, handing the
         slots back to the sender while they still hold the old counted
         references. *)
      if !mutation_unfenced_advance then qstore t w_head (head + n);
      let out = ref [] in
      for i = 0 to n - 1 do
        let slot = Obj_header.emb_slot qobj ((head + i) mod t.capacity) in
        let obj = Ctx.load t.ctx slot in
        assert (obj <> 0);
        let rr = Alloc.alloc_rootref t.ctx in
        Refc.swap t.ctx ~ref_addr:slot ~rr ~from_obj:obj ~to_obj:0;
        out := Cxl_ref.of_rootref t.ctx rr :: !out
      done;
      (* The slot clears must be visible before the one head store that
         returns the slots to the sender, or the sender sees the advanced
         head while a slot still holds the old reference; and the head must
         be persistent before the results are handed out, or a crash
         replays messages the caller already consumed. Under epoch batching
         the head-line write-back rides the batch boundary: that replay is
         count-safe because each relink is a recoverable swap, not a
         committed decrement. *)
      if not !mutation_unfenced_advance then begin
        Ctx.fence t.ctx;
        qstore t w_head (head + n);
        Ctx.flush_deferred t.ctx (qword t.ctx qobj ~cap:t.capacity w_head)
      end;
      Ctx.crash_point t.ctx Fault.Recv_after_advance;
      Received_batch (List.rev !out)
    end
  end

(* The receiving half of a loan: the head slot's word, read in place. It
   is the sender's to keep counted, so the receiver takes no reference. *)
let peek t =
  assert (t.endpoint = Receiver);
  let qobj = Cxl_ref.obj t.qref in
  Trace.with_span t.ctx Histogram.Transfer_recv ~addr:qobj @@ fun () ->
  let qw = qword t.ctx qobj ~cap:t.capacity in
  let head = Ctx.load t.ctx (qw w_head) in
  if head = Ctx.load t.ctx (qw w_tail) then None
  else Some (Ctx.load t.ctx (Obj_header.emb_slot qobj (head mod t.capacity)))

(* Null a head slot whose word vetting refused: a plain store, since a
   forged word carries no count, and queue teardown must not drop one
   through it. *)
let clear_head t =
  assert (t.endpoint = Receiver);
  let qobj = Cxl_ref.obj t.qref in
  let head = Ctx.load t.ctx (qword t.ctx qobj ~cap:t.capacity w_head) in
  Ctx.store t.ctx (Obj_header.emb_slot qobj (head mod t.capacity)) 0

(* Return the head slot to the sender. The fence orders everything the
   receiver wrote into the lent message (its completion word) before the
   head store that lets the sender reclaim it. The head's write-back is
   deferred: a crash that loses it only makes the slot look unconsumed,
   and the receiver holds no count that a replay could double. *)
let advance t =
  assert (t.endpoint = Receiver);
  let qw = qword t.ctx (Cxl_ref.obj t.qref) ~cap:t.capacity in
  let head = Ctx.load t.ctx (qw w_head) in
  Ctx.fence t.ctx;
  Ctx.store t.ctx (qw w_head) (head + 1);
  Ctx.flush_deferred t.ctx (qw w_head);
  Ctx.crash_point t.ctx Fault.Recv_after_advance

let receive t =
  match receive_batch t ~max:1 with
  | Received_batch rs -> Received (List.hd rs)
  | Batch_empty -> Empty
  | Batch_drained -> Drained

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let queue_flags_addr (ctx : Ctx.t) qobj =
  let cap =
    Obj_header.meta_emb_cnt (Ctx.load ctx (Obj_header.meta_of_obj qobj))
  in
  qword ctx qobj ~cap w_flags

let set_flag_raw (ctx : Ctx.t) addr bit =
  let rec loop () =
    let cur = Ctx.load ctx addr in
    if cur land bit = 0 then
      if not (Ctx.cas ctx addr ~expected:cur ~desired:(cur lor bit)) then loop ()
  in
  loop ()

let recover_endpoints (ctx : Ctx.t) ~failed_cid ~reclaim =
  let lay = ctx.Ctx.lay in
  let nslots = lay.Layout.cfg.Config.queue_slots in
  for q = 0 to nslots - 1 do
    let st = Ctx.load ctx (slot_state lay q) in
    let phase = phase_of st in
    if
      (phase = phase_claiming || phase = phase_cleaning)
      && owner_of st = failed_cid
    then
      (* A half-built registration (undo it) or a cleanup the dead client
         crashed in (finish it): both release the directory's reference
         and free the slot. *)
      cleanup_slot ctx ~as_cid:failed_cid ~reclaim q
    else if phase = phase_active then begin
      let sender = Ctx.load ctx (slot_sender lay q) - 1 in
      let receiver = Ctx.load ctx (slot_receiver lay q) - 1 in
      if sender = failed_cid || receiver = failed_cid then begin
        let qptr = Ctx.load ctx (slot_qptr lay q) in
        if qptr <> 0 then begin
          let flags_addr = queue_flags_addr ctx qptr in
          if sender = failed_cid then set_flag_raw ctx flags_addr flag_sender_closed;
          if receiver = failed_cid then
            set_flag_raw ctx flags_addr flag_receiver_closed;
          let flags = Ctx.load ctx flags_addr in
          if
            flags land flag_sender_closed <> 0
            && flags land flag_receiver_closed <> 0
          then try_cleanup ctx ~as_cid:failed_cid ~reclaim q
        end
      end
    end
  done

let directory_refs ~read lay =
  let nslots = lay.Layout.cfg.Config.queue_slots in
  let rec go q acc =
    if q >= nslots then List.rev acc
    else
      let st = read (slot_state lay q) in
      if phase_of st = phase_free then go (q + 1) acc
      else
        let qptr = read (slot_qptr lay q) in
        go (q + 1) (if qptr = 0 then acc else qptr :: acc)
  in
  go 0 []

let clear_wild_directory_refs mem lay ~valid =
  let nslots = lay.Layout.cfg.Config.queue_slots in
  let cleared = ref 0 in
  for q = 0 to nslots - 1 do
    let st = Mem.unsafe_peek mem (slot_state lay q) in
    if phase_of st <> phase_free then begin
      let qptr = Mem.unsafe_peek mem (slot_qptr lay q) in
      if qptr <> 0 && not (valid qptr) then begin
        Mem.unsafe_poke mem (slot_qptr lay q) 0;
        Mem.unsafe_poke mem (slot_state lay q) phase_free;
        incr cleared
      end
    end
  done;
  !cleared
