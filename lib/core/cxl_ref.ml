type t = { ctx : Ctx.t; rr : Cxlshm_shmem.Pptr.t; mutable live : bool }

let of_rootref ctx rr = { ctx; rr; live = true }
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
  { ctx = t.ctx; rr = t.rr; live = true }

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

(* One rootref read and one meta read name the block, its embedded-slot
   count and its true length. Every accessor below checks bounds against
   and addresses through the same resolution, so the block checked is the
   block touched. *)
type block = { o : Cxlshm_shmem.Pptr.t; emb : int; dw : int }

let resolve t =
  let o = obj t in
  let meta = Ctx.load t.ctx (Obj_header.meta_of_obj o) in
  { o; emb = Obj_header.meta_emb_cnt meta; dw = Alloc.data_words t.ctx o ~meta }

let emb_cnt t = (resolve t).emb
let data_words t = (resolve t).dw
let data_addr t = Obj_header.data_of_obj (obj t)

let word_addr t i =
  let b = resolve t in
  if i < b.emb || i >= b.dw then
    invalid_arg
      (Printf.sprintf "Cxl_ref: word index %d outside plain data [%d, %d)" i
         b.emb b.dw);
  Obj_header.data_of_obj b.o + i

let read_word t i = Ctx.load t.ctx (word_addr t i)
let write_word t i v = Ctx.store t.ctx (word_addr t i) v

let cas_word t i ~expected ~desired =
  Ctx.cas t.ctx (word_addr t i) ~expected ~desired

(* The byte payload's base address and its room in words. *)
let byte_area t =
  let b = resolve t in
  (Obj_header.data_of_obj b.o + b.emb, b.dw - b.emb)

let write_bytes t b =
  let base, room = byte_area t in
  if Cxlshm_shmem.Mem.bytes_words (Bytes.length b) > room then
    invalid_arg "Cxl_ref.write_bytes: payload too large";
  Cxlshm_shmem.Mem.write_bytes t.ctx.Ctx.mem ~st:t.ctx.Ctx.st base b

let read_bytes t ~len =
  let base, room = byte_area t in
  if Cxlshm_shmem.Mem.bytes_words len > room then
    invalid_arg "Cxl_ref.read_bytes: length too large";
  Cxlshm_shmem.Mem.read_bytes t.ctx.Ctx.mem ~st:t.ctx.Ctx.st base ~len

let emb_addr t i =
  let b = resolve t in
  if i < 0 || i >= b.emb then
    invalid_arg (Printf.sprintf "Cxl_ref: embedded slot %d out of range" i);
  Obj_header.emb_slot b.o i

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
