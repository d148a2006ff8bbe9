open Cxlshm
module Mem = Cxlshm_shmem.Mem

(* [meta] is read once, when the view is made (see the mli). *)
type view = { ctx : Ctx.t; obj : int; meta : int }

let of_meta ctx obj ~meta = { ctx; obj; meta }

let view ctx obj =
  if obj = 0 then invalid_arg "Message.view: null object";
  of_meta ctx obj ~meta:(Ctx.load ctx (Obj_header.meta_of_obj obj))

let view_of_ref r = view (Cxl_ref.ctx r) (Cxl_ref.obj r)
let obj v = v.obj
let data_words v = Obj_header.meta_data_words v.meta
let emb_cnt v = Obj_header.meta_emb_cnt v.meta
let data v = Obj_header.data_of_obj v.obj

let read_word v i =
  if i < 0 || i >= data_words v then invalid_arg "Message.read_word";
  Ctx.load v.ctx (data v + i)

let write_word v i x =
  if i < 0 || i >= data_words v then invalid_arg "Message.write_word";
  Ctx.store v.ctx (data v + i) x

let byte_base v = data v + emb_cnt v

let read_at v p ~len =
  let c = v.ctx in
  Mem.read_bytes c.Ctx.mem ~st:c.Ctx.st ~lines:c.Ctx.lines p ~len

let write_at v p b =
  let c = v.ctx in
  Mem.write_bytes c.Ctx.mem ~st:c.Ctx.st ~lines:c.Ctx.lines p b

let read_bytes v ~len = read_at v (byte_base v) ~len

let write_bytes v b =
  if Mem.bytes_words (Bytes.length b) > data_words v - emb_cnt v then
    invalid_arg "Message.write_bytes: payload too large";
  write_at v (byte_base v) b

let read_bytes_at v ~word_off ~len =
  if word_off < emb_cnt v || Mem.bytes_words len > data_words v - word_off then
    invalid_arg "Message.read_bytes_at";
  read_at v (data v + word_off) ~len

let write_bytes_at v ~word_off b =
  if
    word_off < emb_cnt v
    || Mem.bytes_words (Bytes.length b) > data_words v - word_off
  then invalid_arg "Message.write_bytes_at";
  write_at v (data v + word_off) b

(* rpc_msg: emb slots [0..I-1] = args, [I] = output; plain words:
   +0 func id, +1 nargs, +2 completion status (relative to the end of the
   embedded slots). *)
let msg_data_words ~nargs = nargs + 1 + 3

let build ctx ~func ~args ~output =
  let nargs = List.length args in
  let msg =
    Shm.cxl_malloc_words ctx ~data_words:(msg_data_words ~nargs)
      ~emb_cnt:(nargs + 1) ()
  in
  List.iteri (fun i a -> Cxl_ref.set_emb msg i a) args;
  Cxl_ref.set_emb msg nargs output;
  Cxl_ref.write_word msg (nargs + 1) func;
  Cxl_ref.write_word msg (nargs + 2) nargs;
  Cxl_ref.write_word msg (nargs + 3) 0;
  msg

let nargs v = emb_cnt v - 1

let well_formed v =
  let n = nargs v in
  n >= 0 && data_words v = msg_data_words ~nargs:n

let func v = read_word v (emb_cnt v)
let count_word v = read_word v (emb_cnt v + 1)
let status v = read_word v (emb_cnt v + 2)

(* Raised behind the caller's release fence. Epoch contexts elide the
   write-back: a word lost with the server reads pending, and [finish]
   then reports the dead server (docs/RPC.md §3). *)
let set_status v s =
  write_word v (emb_cnt v + 2) s;
  Ctx.flush_unless_elided v.ctx (data v + emb_cnt v + 2)
