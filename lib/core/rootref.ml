module Word = Cxlshm_shmem.Word
module Mem = Cxlshm_shmem.Mem

let f_in_use = Word.field ~shift:48 ~bits:1
let f_cnt = Word.field ~shift:0 ~bits:32

let in_use_of_word w = Word.get f_in_use w = 1
let in_use ctx rr = in_use_of_word (Ctx.load ctx rr)
let local_cnt ctx rr = Word.get f_cnt (Ctx.load ctx rr)

let set_state ctx rr ~in_use ~cnt =
  Ctx.store ctx rr
    (Word.set f_in_use (Word.set f_cnt 0 cnt) (if in_use then 1 else 0))

let set_local_cnt ctx rr cnt =
  Ctx.store ctx rr (Word.set f_cnt (Ctx.load ctx rr) cnt)

let pptr_slot rr = rr + 1
let obj ctx rr = Ctx.load ctx (pptr_slot rr)
let peek_in_use mem rr = in_use_of_word (Mem.unsafe_peek mem rr)
let peek_obj mem rr = Mem.unsafe_peek mem (rr + 1)

let well_formed w =
  w = Word.set f_in_use (Word.set f_cnt 0 (Word.get f_cnt w)) (Word.get f_in_use w)
