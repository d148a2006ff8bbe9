open Cxlshm

type store = {
  index_obj : int;
  buckets : int;
  partitions : int;
  value_words : int;
}

type handle = {
  ctx : Ctx.t;
  store : store;
  index_rr : int;  (** our RootRef keeping the index alive *)
  limbo : Limbo.t;  (** displaced records awaiting a quiescent era *)
}

let name = "CXL-KV"

let walk_hook : (unit -> unit) ref = ref (fun () -> ())

(* Index data layout (after the [buckets] embedded slots):
   +0 partitions, +1 value_words, +2.. writer table (cid+1 per partition).
   Record: emb slot 0 = next; data words +1 = key, +2.. = value. *)
let idx_word store i = Obj_header.data_of_obj store.index_obj + store.buckets + i
let writer_word store p = idx_word store (2 + p)
let bucket_slot store b = Obj_header.emb_slot store.index_obj b
let rec_next r = Obj_header.emb_slot r 0
let rec_key r = Obj_header.data_of_obj r + 1
let rec_val r i = Obj_header.data_of_obj r + 2 + i

(* Fibonacci hashing spreads dense integer keys. *)
let hash key = (key * 0x2545F4914F6CDD1D) land max_int

let bucket_of store key = hash key mod store.buckets
let partition_of_key store key = key mod store.partitions

let create ctx ~buckets ~partitions ~value_words =
  if buckets < 1 || partitions < 1 || value_words < 1 then
    invalid_arg "Cxl_kv.create";
  let data_words = buckets + 2 + partitions in
  let r = Shm.cxl_malloc_words ctx ~data_words ~emb_cnt:buckets () in
  let store =
    { index_obj = Cxl_ref.obj r; buckets; partitions; value_words }
  in
  Ctx.store ctx (idx_word store 0) partitions;
  Ctx.store ctx (idx_word store 1) value_words;
  for p = 0 to partitions - 1 do
    Ctx.store ctx (writer_word store p) 0
  done;
  (store, { ctx; store; index_rr = Cxl_ref.rootref r; limbo = Limbo.create ctx })

let open_store ctx store =
  let rr = Alloc.alloc_rootref ctx in
  Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:store.index_obj;
  { ctx; store; index_rr = rr; limbo = Limbo.create ctx }

let quiesce h = Limbo.quiesce h.limbo
let deferred_count h = Limbo.count h.limbo

let close h =
  (* Quiesced use only: force-drops whatever is still parked, so no reader
     may be mid-walk. A departing writer with live readers hands its parked
     records to a successor first (see {!handoff_deferred}). *)
  Limbo.close h.limbo;
  Reclaim.release_rootref h.ctx h.index_rr

let claim_partition h p =
  Ctx.cas h.ctx (writer_word h.store p) ~expected:0 ~desired:(h.ctx.Ctx.cid + 1)

let takeover_partition h p =
  let w = writer_word h.store p in
  let rec loop () =
    let cur = Ctx.load h.ctx w in
    cur = h.ctx.Ctx.cid + 1
    || Ctx.cas h.ctx w ~expected:cur ~desired:(h.ctx.Ctx.cid + 1)
    || loop ()
  in
  loop ()

let writer_of_partition h p =
  let v = Ctx.load h.ctx (writer_word h.store p) in
  if v = 0 then None else Some (v - 1)

let check_writer h key =
  let p = partition_of_key h.store key in
  if Ctx.load h.ctx (writer_word h.store p) <> h.ctx.Ctx.cid + 1 then
    failwith
      (Printf.sprintf "Cxl_kv: client %d is not the writer of partition %d"
         h.ctx.Ctx.cid p)

let find h key =
  let rec walk r =
    if r = 0 then None
    else begin
      !walk_hook ();
      if Ctx.load h.ctx (rec_key r) = key then Some r
      else walk (Ctx.load h.ctx (rec_next r))
    end
  in
  walk (Ctx.load h.ctx (bucket_slot h.store (bucket_of h.store key)))

let get h ~key =
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | None -> None
      | Some r -> Some (Ctx.load h.ctx (rec_val r 0)))

let get_all_words h ~key =
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | None -> None
      | Some r ->
          Some
            (Array.init h.store.value_words (fun i ->
                 Ctx.load h.ctx (rec_val r i))))

let write_value h r value =
  (* Full value width is written, modelling YCSB-size payload traffic. *)
  for i = 0 to h.store.value_words - 1 do
    Ctx.store h.ctx (rec_val r i) (value + i)
  done

let find_with_prev h key =
  let slot0 = bucket_slot h.store (bucket_of h.store key) in
  let rec walk prev_slot r =
    if r = 0 then None
    else begin
      !walk_hook ();
      if Ctx.load h.ctx (rec_key r) = key then Some (prev_slot, r)
      else walk (rec_next r) (Ctx.load h.ctx (rec_next r))
    end
  in
  walk slot0 (Ctx.load h.ctx slot0)

(* Insert a freshly allocated record for [key], either replacing [old]
   in-chain or prepending at the bucket. Both publish with one swap on the
   allocation's own RootRef. A replace is count-neutral: that RootRef
   becomes the park reference, and the swap hands it the old record's
   count while the predecessor slot takes the fresh record's. The limbo entry is right in every crash window — before the
   swap its RootRef names the unpublished fresh record, after it the old
   one. The old record keeps its next-link until it is finally reclaimed,
   so a reader paused on it still reaches the chain tail. The caller has
   reserved the limbo entry before touching the store. *)
let insert_fresh h ~key ~value ~existing =
  let rr, fresh =
    Alloc.alloc_obj h.ctx ~data_words:(2 + h.store.value_words) ~emb_cnt:1
  in
  Ctx.store h.ctx (rec_key fresh) key;
  write_value h fresh value;
  match existing with
  | Some (prev_slot, old) ->
      Limbo.park h.limbo (Cxl_ref.of_rootref h.ctx rr) ~unlink:(fun () ->
          let next = Ctx.load h.ctx (rec_next old) in
          if next <> 0 then
            Refc.attach h.ctx ~ref_addr:(rec_next fresh) ~refed:next;
          Refc.swap h.ctx ~ref_addr:prev_slot ~rr ~from_obj:old ~to_obj:fresh)
  | None ->
      (* A prepend swaps on the same RootRef: the still-private record
         takes a count on the head first, the swap publishes it and hands
         the RootRef the bucket's count on the head, and the release drops
         that spare count. *)
      let slot = bucket_slot h.store (bucket_of h.store key) in
      let head = Ctx.load h.ctx slot in
      if head <> 0 then
        Refc.attach h.ctx ~ref_addr:(rec_next fresh) ~refed:head;
      Refc.swap h.ctx ~ref_addr:slot ~rr ~from_obj:head ~to_obj:fresh;
      Reclaim.release_rootref h.ctx rr

let put h ~key ~value =
  check_writer h key;
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | Some r -> write_value h r value
      | None -> insert_fresh h ~key ~value ~existing:None)

let put_cow h ~key ~value =
  check_writer h key;
  Limbo.reserve h.limbo 1;
  Hazard.with_protection h.ctx (fun () ->
      insert_fresh h ~key ~value ~existing:(find_with_prev h key))

let rmw h ~key ~delta =
  check_writer h key;
  Hazard.with_protection h.ctx (fun () ->
      match find h key with
      | Some r ->
          let old = Ctx.load h.ctx (rec_val r 0) in
          write_value h r (old + delta);
          Some old
      | None ->
          insert_fresh h ~key ~value:delta ~existing:None;
          None)

let delete h ~key =
  check_writer h key;
  Limbo.reserve h.limbo 1;
  Hazard.with_protection h.ctx (fun () ->
      let slot0 = bucket_slot h.store (bucket_of h.store key) in
      let rec walk prev_slot r =
        if r = 0 then false
        else begin
          !walk_hook ();
          if Ctx.load h.ctx (rec_key r) = key then begin
            (* The park reference takes a count on the successor first;
               the swap then trades it for the predecessor's count on [r]. *)
            let next = Ctx.load h.ctx (rec_next r) in
            let rr = Alloc.alloc_rootref h.ctx in
            if next <> 0 then
              Refc.attach h.ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:next;
            Limbo.park h.limbo (Cxl_ref.of_rootref h.ctx rr) ~unlink:(fun () ->
                Refc.swap h.ctx ~ref_addr:prev_slot ~rr ~from_obj:r
                  ~to_obj:next);
            true
          end
          else walk (rec_next r) (Ctx.load h.ctx (rec_next r))
        end
      in
      walk slot0 (Ctx.load h.ctx slot0))

(* ------------------------------------------------------------------ *)
(* Shard handoff (planned leave): the departing writer's parked records
   ride the §5.2 batched transfer queue to a successor, which re-parks
   them under its own identity. Reader protection survives the handoff:
   the queue slot holds a counted reference for the flight, and the
   adopter re-stamps with a fresh (larger) retire epoch, so no reader
   protected against the original retirement can be exposed. A partial
   send keeps the retained suffix parked here with its original stamps. *)

let handoff_deferred h q =
  Limbo.hand_off h.limbo (fun prefs -> fst (Transfer.send_batch q prefs))

let adopt_deferred h q ~max =
  Limbo.reserve h.limbo max;
  match Transfer.receive_batch q ~max with
  | Transfer.Batch_empty | Transfer.Batch_drained -> 0
  | Transfer.Received_batch refs ->
      List.iter (fun pref -> Limbo.park h.limbo pref ~unlink:ignore) refs;
      List.length refs

(* Successor side of crash adoption: take over every orphaned limbo row,
   original retire stamps intact. *)
let adopt_recovered h = Limbo.adopt h.limbo

let iter h f =
  Hazard.with_protection h.ctx (fun () ->
      for b = 0 to h.store.buckets - 1 do
        let rec walk r =
          if r <> 0 then begin
            !walk_hook ();
            f ~key:(Ctx.load h.ctx (rec_key r))
              ~value:(Ctx.load h.ctx (rec_val r 0));
            walk (Ctx.load h.ctx (rec_next r))
          end
        in
        walk (Ctx.load h.ctx (bucket_slot h.store b))
      done)

let keys h =
  let acc = ref [] in
  iter h (fun ~key ~value:_ -> acc := key :: !acc);
  List.sort compare !acc

let size_estimate h =
  let total = ref 0 in
  Hazard.with_protection h.ctx (fun () ->
      for b = 0 to h.store.buckets - 1 do
        let rec walk r =
          if r <> 0 then (incr total; walk (Ctx.load h.ctx (rec_next r)))
        in
        walk (Ctx.load h.ctx (bucket_slot h.store b))
      done);
  !total
