(* [m_obj], [m_emb] and [m_dw] memoise the handle's last resolution: the
   object its RootRef named, that block's embedded-slot count and its true
   length ([m_obj = 0]: not resolved yet), valid while [Ctx.eras] still
   equals [m_eras]. The first accessor fills them, never [of_rootref], so
   a handle that is only parked or re-pointed costs no meta load. *)
type t = {
  ctx : Ctx.t;
  rr : Cxlshm_shmem.Pptr.t;
  mutable live : bool;
  mutable m_obj : Cxlshm_shmem.Pptr.t;
  mutable m_emb : int;
  mutable m_dw : int;
  mutable m_eras : int;
}

let of_rootref ctx rr =
  { ctx; rr; live = true; m_obj = 0; m_emb = 0; m_dw = 0; m_eras = 0 }

let ctx t = t.ctx
let rootref t = t.rr
let is_live t = t.live

let check t =
  if not t.live then invalid_arg "Cxl_ref: use after drop"

let obj t =
  check t;
  let o = Rootref.obj t.ctx t.rr in
  if o = 0 then invalid_arg "Cxl_ref.obj: unlinked RootRef";
  o

let clone t =
  check t;
  Rootref.set_local_cnt t.ctx t.rr (Rootref.local_cnt t.ctx t.rr + 1);
  { t with live = true }

let drop t =
  check t;
  t.live <- false;
  Reclaim.release_rootref t.ctx t.rr

let into_rootref t =
  check t;
  if Rootref.local_cnt t.ctx t.rr > 1 then
    invalid_arg "Cxl_ref.into_rootref: the RootRef is shared";
  t.live <- false;
  t.rr

(* Test-only: see the mli. *)
let mutation_stale_memo = ref false

(* Every accessor resolves the handle once and checks bounds against,
   and addresses through, the object it names, so the block checked is the
   block touched. Until an era advance, a warm memo stands in for the
   RootRef word, and for the meta until the RootRef names another block. *)
let resolve t =
  check t;
  if t.m_obj = 0 || (t.m_eras <> t.ctx.Ctx.eras && not !mutation_stale_memo)
  then begin
    let o = obj t in
    if o <> t.m_obj then begin
      let meta = Ctx.load t.ctx (Obj_header.meta_of_obj o) in
      t.m_emb <- Obj_header.meta_emb_cnt meta;
      t.m_dw <- Alloc.data_words t.ctx o ~meta;
      t.m_obj <- o
    end;
    t.m_eras <- t.ctx.Ctx.eras
  end;
  t.m_obj

let emb_cnt t =
  ignore (resolve t);
  t.m_emb

let data_words t =
  ignore (resolve t);
  t.m_dw

let data_addr t = Obj_header.data_of_obj (obj t)

let word_addr t i =
  let o = resolve t in
  if i < t.m_emb || i >= t.m_dw then
    invalid_arg
      (Printf.sprintf "Cxl_ref: word index %d outside plain data [%d, %d)" i
         t.m_emb t.m_dw);
  Obj_header.data_of_obj o + i

let read_word t i = Ctx.load t.ctx (word_addr t i)
let write_word t i v = Ctx.store t.ctx (word_addr t i) v

(* The byte payload's base address and its room in words. *)
let byte_area t =
  let o = resolve t in
  (Obj_header.data_of_obj o + t.m_emb, t.m_dw - t.m_emb)

let write_bytes t b =
  let base, room = byte_area t and c = t.ctx in
  if Cxlshm_shmem.Mem.bytes_words (Bytes.length b) > room then
    invalid_arg "Cxl_ref.write_bytes: payload too large";
  Cxlshm_shmem.Mem.write_bytes c.Ctx.mem ~st:c.Ctx.st ~lines:c.Ctx.lines base b

let read_bytes t ~len =
  let base, room = byte_area t and c = t.ctx in
  if Cxlshm_shmem.Mem.bytes_words len > room then
    invalid_arg "Cxl_ref.read_bytes: length too large";
  Cxlshm_shmem.Mem.read_bytes c.Ctx.mem ~st:c.Ctx.st ~lines:c.Ctx.lines base ~len

let emb_addr t i =
  let o = resolve t in
  if i < 0 || i >= t.m_emb then
    invalid_arg (Printf.sprintf "Cxl_ref: embedded slot %d out of range" i);
  Obj_header.emb_slot o i

let get_emb t i = Ctx.load t.ctx (emb_addr t i)

let set_emb t i target =
  let slot = emb_addr t i in
  check target;
  if Ctx.load t.ctx slot <> 0 then
    invalid_arg "Cxl_ref.set_emb: slot is already linked (use change_emb)";
  Refc.attach t.ctx ~ref_addr:slot ~refed:(obj target)

let clear_emb t i =
  let slot = emb_addr t i in
  let child = Ctx.load t.ctx slot in
  if child <> 0 then Reclaim.release_obj t.ctx ~ref_addr:slot ~obj:child

(* The re-point pattern: a fresh RootRef takes a count on the target, one
   swap trades it for the slot's count on the old object, and releasing
   the RootRef drops that count (freeing the old object at zero). *)
let change_emb t i target =
  let slot = emb_addr t i in
  check target;
  let to_obj = obj target in
  let from_obj = Ctx.load t.ctx slot in
  if from_obj = 0 then Refc.attach t.ctx ~ref_addr:slot ~refed:to_obj
  else begin
    let rr = Alloc.alloc_rootref t.ctx in
    Refc.attach t.ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:to_obj;
    Refc.swap t.ctx ~ref_addr:slot ~rr ~from_obj ~to_obj;
    Reclaim.release_rootref t.ctx rr
  end
