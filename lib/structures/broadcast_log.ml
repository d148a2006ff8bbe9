open Cxlshm

(* Log object: emb slots [0..cap-1] hold the ring's counted references;
   plain data words after them: +0 capacity, +1 published (total appends).
   An overwritten entry is parked in the limbo behind a counted reference
   with its hazard retire-epoch, and released only once every announced
   reader epoch has moved past it. *)
type writer = { ctx : Ctx.t; lref : Cxl_ref.t; cap : int; limbo : Limbo.t }

let attach_hook : (unit -> unit) ref = ref (fun () -> ())

type cursor = { cctx : Ctx.t; clref : Cxl_ref.t; ccap : int; mutable next : int }

let w_capacity = 0
let w_published = 1
let extra_words = 2

let lword (ctx : Ctx.t) lobj ~cap i =
  ignore ctx;
  Obj_header.data_of_obj lobj + cap + i

let create ctx ~capacity =
  if capacity < 1 then invalid_arg "Broadcast_log.create";
  let lref =
    Shm.cxl_malloc_words ctx ~data_words:(capacity + extra_words)
      ~emb_cnt:capacity ()
  in
  let lobj = Cxl_ref.obj lref in
  Ctx.store ctx (lword ctx lobj ~cap:capacity w_capacity) capacity;
  Ctx.store ctx (lword ctx lobj ~cap:capacity w_published) 0;
  { ctx; lref; cap = capacity; limbo = Limbo.create ctx }

let log_ref w = w.lref

let publish w payload =
  let lobj = Cxl_ref.obj w.lref in
  let seq = Ctx.load w.ctx (lword w.ctx lobj ~cap:w.cap w_published) in
  let slot = Obj_header.emb_slot lobj (seq mod w.cap) in
  let old = Ctx.load w.ctx slot in
  let to_obj = Cxl_ref.obj payload in
  (if old = 0 then Refc.attach w.ctx ~ref_addr:slot ~refed:to_obj
   else begin
     (* Park the overwritten entry behind a counted reference taken before
        the slot change, so the change never drops it to count zero while
        a subscriber paused between its slot read and [try_attach] may
        still hold the address, and a writer crash leaves it in the limbo,
        not in an era-blind reap. *)
     Limbo.reserve w.limbo 1;
     let rr = Alloc.alloc_rootref w.ctx in
     Refc.attach w.ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:old;
     Limbo.park w.limbo (Cxl_ref.of_rootref w.ctx rr) ~unlink:(fun () ->
         ignore (Refc.change w.ctx ~ref_addr:slot ~from_obj:old ~to_obj))
   end);
  Ctx.fence w.ctx;
  Ctx.store w.ctx (lword w.ctx lobj ~cap:w.cap w_published) (seq + 1);
  Limbo.quiesce w.limbo;
  seq

let close_writer w =
  Limbo.close w.limbo;
  Cxl_ref.drop w.lref

let subscribe ctx shared =
  let lobj = Cxl_ref.obj shared in
  let cap =
    Obj_header.meta_emb_cnt (Ctx.load ctx (Obj_header.meta_of_obj lobj))
  in
  let rr = Alloc.alloc_rootref ctx in
  Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:lobj;
  let clref = Cxl_ref.of_rootref ctx rr in
  let published = Ctx.load ctx (lword ctx lobj ~cap w_published) in
  { cctx = ctx; clref; ccap = cap; next = max 0 (published - cap) }

let rec poll c =
  let lobj = Cxl_ref.obj c.clref in
  let published = Ctx.load c.cctx (lword c.cctx lobj ~cap:c.ccap w_published) in
  let oldest = max 0 (published - c.ccap) in
  if c.next < oldest then begin
    let skipped = oldest - c.next in
    c.next <- oldest;
    `Lagged skipped
  end
  else if c.next >= published then `Empty
  else begin
    (* Hazard protection brackets the slot read + attach: the writer will
       not recycle a retired entry while our epoch is announced. *)
    Hazard.enter c.cctx;
    let result =
      let slot = Obj_header.emb_slot lobj (c.next mod c.ccap) in
      let obj = Ctx.load c.cctx slot in
      if obj = 0 then None
      else begin
        !attach_hook ();
        let rr = Alloc.alloc_rootref c.cctx in
        if Refc.try_attach c.cctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:obj
        then Some (Cxl_ref.of_rootref c.cctx rr)
        else begin
          Alloc.free_rootref c.cctx rr;
          None
        end
      end
    in
    Hazard.exit c.cctx;
    match result with
    | Some r ->
        let seq = c.next in
        c.next <- seq + 1;
        `Entry (seq, r)
    | None ->
        (* the entry was overwritten under us: re-evaluate (will lag) *)
        poll c
  end

let close_cursor c = Cxl_ref.drop c.clref
