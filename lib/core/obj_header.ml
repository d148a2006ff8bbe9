module Word = Cxlshm_shmem.Word

(* 10 + 34 + 18 = 62 bits: up to 1023 clients, ~1.7e10 eras per client,
   262k simultaneous references per object. *)
let f_lcid = Word.field ~shift:52 ~bits:10
let f_lera = Word.field ~shift:18 ~bits:34
let f_cnt = Word.field ~shift:0 ~bits:18

let max_clients_representable = Word.max_value f_lcid - 1

type t = { lcid : int option; lera : int; ref_cnt : int }

let zero = { lcid = None; lera = 0; ref_cnt = 0 }

let pack { lcid; lera; ref_cnt } =
  let lcid_field = match lcid with None -> 0 | Some c -> c + 1 in
  Word.set f_lcid (Word.set f_lera (Word.set f_cnt 0 ref_cnt) lera) lcid_field

let unpack w =
  let lcid_field = Word.get f_lcid w in
  {
    lcid = (if lcid_field = 0 then None else Some (lcid_field - 1));
    lera = Word.get f_lera w;
    ref_cnt = Word.get f_cnt w;
  }

let make ~lcid ~lera ~ref_cnt = pack { lcid = Some lcid; lera; ref_cnt }
let ref_cnt_of w = Word.get f_cnt w
let lera_of w = Word.get f_lera w

let lcid_of w =
  let f = Word.get f_lcid w in
  if f = 0 then None else Some (f - 1)

(* Meta word: kind (8 bits), emb_cnt (26 bits), data_words (26 bits). *)
let f_kind = Word.field ~shift:0 ~bits:8
let f_emb = Word.field ~shift:8 ~bits:26
let f_dw = Word.field ~shift:34 ~bits:26

let pack_meta ~kind ~emb_cnt ~data_words =
  Word.set f_dw (Word.set f_emb (Word.set f_kind 0 kind) emb_cnt) data_words

let meta_kind w = Word.get f_kind w
let meta_emb_cnt w = Word.get f_emb w
let meta_data_words w = Word.get f_dw w
let max_meta_data_words = Word.max_value f_dw

let header_of_obj p = p
let meta_of_obj p = p + 1
let data_of_obj p = p + Config.header_words

let emb_slot p i =
  if i < 0 then invalid_arg "Obj_header.emb_slot: negative index";
  data_of_obj p + i
