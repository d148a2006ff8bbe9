open Cxlshm

(* Node layout: emb slot 0 = next; data +1 = key, +2.. = value words.
   The sentinel head is a node with key = min_int. A node the writer
   unlinks is parked in the limbo until every announced reader era has
   passed it. *)
type t = { ctx : Ctx.t; head : Cxl_ref.t; value_words : int; limbo : Limbo.t }

let walk_hook : (unit -> unit) ref = ref (fun () -> ())
let node_next obj = Obj_header.emb_slot obj 0
let node_key (ctx : Ctx.t) obj = Ctx.load ctx (Obj_header.data_of_obj obj + 1)
let node_val_addr obj i = Obj_header.data_of_obj obj + 2 + i

let value_words_of (ctx : Ctx.t) obj =
  Obj_header.meta_data_words (Ctx.load ctx (Obj_header.meta_of_obj obj)) - 2

let create ctx ~value_words =
  if value_words < 1 then invalid_arg "Sorted_list.create";
  let head = Shm.cxl_malloc_words ctx ~data_words:(2 + value_words) ~emb_cnt:1 () in
  Ctx.store ctx (Obj_header.data_of_obj (Cxl_ref.obj head) + 1) min_int;
  { ctx; head; value_words; limbo = Limbo.create ctx }

let handle_ref t = t.head

let attach ctx r =
  {
    ctx;
    head = r;
    value_words = value_words_of ctx (Cxl_ref.obj r);
    limbo = Limbo.create ctx;
  }

let quiesce t = Limbo.quiesce t.limbo

let close t =
  Limbo.close t.limbo;
  Cxl_ref.drop t.head

(* Find the rightmost node with key < [key]; returns (pred, succ). The
   caller holds hazard protection. *)
let locate t ~key =
  let rec go pred =
    let succ = Ctx.load t.ctx (node_next pred) in
    if succ = 0 then (pred, succ)
    else begin
      !walk_hook ();
      if node_key t.ctx succ >= key then (pred, succ) else go succ
    end
  in
  go (Cxl_ref.obj t.head)

let write_value t node value =
  for i = 0 to t.value_words - 1 do
    Ctx.store t.ctx (node_val_addr node i) (value + i)
  done

let alloc_node t ~key ~value =
  let rr, node =
    Alloc.alloc_obj t.ctx ~data_words:(2 + t.value_words) ~emb_cnt:1
  in
  Ctx.store t.ctx (Obj_header.data_of_obj node + 1) key;
  write_value t node value;
  (rr, node)

(* Splice a new node between [pred] and [succ] with one swap on its
   allocation RootRef: the still-private node takes a count on [succ]
   first, the swap publishes it and hands the RootRef [pred]'s count on
   [succ], and the release drops that spare count. Readers always see a
   complete list. *)
let splice t ~pred ~succ ~key ~value =
  let rr, node = alloc_node t ~key ~value in
  if succ <> 0 then Refc.attach t.ctx ~ref_addr:(node_next node) ~refed:succ;
  Refc.swap t.ctx ~ref_addr:(node_next pred) ~rr ~from_obj:succ ~to_obj:node;
  Reclaim.release_rootref t.ctx rr

let insert t ~key ~value =
  Hazard.with_protection t.ctx (fun () ->
      let pred, succ = locate t ~key in
      if succ <> 0 && node_key t.ctx succ = key then false
      else begin
        splice t ~pred ~succ ~key ~value;
        true
      end)

let replace t ~key ~value =
  Limbo.reserve t.limbo 1;
  Hazard.with_protection t.ctx (fun () ->
      let pred, succ = locate t ~key in
      if succ <> 0 && node_key t.ctx succ = key then begin
        (* Out-of-place replace, so readers never see a torn value: the
           new node's allocation RootRef is parked and the swap hands it
           the old node's count. The old node keeps its next link until it
           is released, so a reader paused on it still reaches the tail. *)
        let rr, node = alloc_node t ~key ~value in
        let after = Ctx.load t.ctx (node_next succ) in
        if after <> 0 then
          Refc.attach t.ctx ~ref_addr:(node_next node) ~refed:after;
        Limbo.park t.limbo (Cxl_ref.of_rootref t.ctx rr) ~unlink:(fun () ->
            Refc.swap t.ctx ~ref_addr:(node_next pred) ~rr ~from_obj:succ
              ~to_obj:node)
      end
      else splice t ~pred ~succ ~key ~value)

let delete t ~key =
  Limbo.reserve t.limbo 1;
  Hazard.with_protection t.ctx (fun () ->
      let pred, succ = locate t ~key in
      if succ = 0 || node_key t.ctx succ <> key then false
      else begin
        (* The park RootRef takes a count on the successor first (none at
           the tail); the swap then trades it for [pred]'s count on the
           node. *)
        let after = Ctx.load t.ctx (node_next succ) in
        let rr = Alloc.alloc_rootref t.ctx in
        if after <> 0 then
          Refc.attach t.ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:after;
        Limbo.park t.limbo (Cxl_ref.of_rootref t.ctx rr) ~unlink:(fun () ->
            Refc.swap t.ctx ~ref_addr:(node_next pred) ~rr ~from_obj:succ
              ~to_obj:after);
        true
      end)

let find t ~key =
  Hazard.with_protection t.ctx (fun () ->
      let _, succ = locate t ~key in
      if succ <> 0 && node_key t.ctx succ = key then
        Some (Ctx.load t.ctx (node_val_addr succ 0))
      else None)

let min_binding t =
  Hazard.with_protection t.ctx (fun () ->
      let first = Ctx.load t.ctx (node_next (Cxl_ref.obj t.head)) in
      if first = 0 then None
      else Some (node_key t.ctx first, Ctx.load t.ctx (node_val_addr first 0)))

let iter t f =
  let rec go node =
    if node <> 0 then begin
      !walk_hook ();
      f ~key:(node_key t.ctx node) ~value:(Ctx.load t.ctx (node_val_addr node 0));
      go (Ctx.load t.ctx (node_next node))
    end
  in
  Hazard.with_protection t.ctx (fun () ->
      go (Ctx.load t.ctx (node_next (Cxl_ref.obj t.head))))

let range t ~lo ~hi =
  let rec go node acc =
    if node = 0 then List.rev acc
    else begin
      !walk_hook ();
      let k = node_key t.ctx node in
      if k >= hi then List.rev acc
      else
        go
          (Ctx.load t.ctx (node_next node))
          (if k >= lo then (k, Ctx.load t.ctx (node_val_addr node 0)) :: acc
           else acc)
    end
  in
  Hazard.with_protection t.ctx (fun () ->
      let pred, _ = locate t ~key:lo in
      go (Ctx.load t.ctx (node_next pred)) [])

let length t =
  let n = ref 0 in
  iter t (fun ~key:_ ~value:_ -> incr n);
  !n
