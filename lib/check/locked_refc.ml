open Cxlshm

(* Stripe table: one CXL object of [stripes] records, each
   {lock, valid, ref_addr, refed, link, count}. [lock] holds the holder's
   cid + 1; the holder alone writes the rest of its stripe's record. *)
let stripes = 16
let rec_words = 6

type t = { ctx : Ctx.t; table : Cxl_ref.t; base : Cxlshm_shmem.Pptr.t }

let lock_word t s = t.base + (s * rec_words)
let valid_word t s = lock_word t s + 1
let field t s i = lock_word t s + 2 + i

let of_table ctx table =
  { ctx; table; base = Obj_header.data_of_obj (Cxl_ref.obj table) }

let create ctx =
  let t =
    of_table ctx
      (Shm.cxl_malloc_words ctx ~data_words:(stripes * rec_words) ())
  in
  for s = 0 to stripes - 1 do
    Ctx.store ctx (lock_word t s) 0;
    Ctx.store ctx (valid_word t s) 0
  done;
  t

let share t ctx =
  let rr = Alloc.alloc_rootref ctx in
  Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr)
    ~refed:(Cxl_ref.obj t.table);
  of_table ctx (Cxl_ref.of_rootref ctx rr)

let close t = Cxl_ref.drop t.table

let stripe_of obj = ((obj * 0x2545F4914F6CDD1D) land max_int) mod stripes

let try_acquire t s =
  Ctx.cas t.ctx (lock_word t s) ~expected:0 ~desired:(t.ctx.Ctx.cid + 1)

(* Invalidate the record before the unlock, so the next holder's crash
   before it logs can never replay this one. *)
let release t s =
  Ctx.store t.ctx (valid_word t s) 0;
  Ctx.store t.ctx (lock_word t s) 0

let holder t obj =
  let v = Ctx.load t.ctx (lock_word t (stripe_of obj)) in
  if v = 0 then None else Some (v - 1)

(* The critical section: read the count, log the ABSOLUTE new count (that
   is what makes replay idempotent — Lightning's trick), apply both writes.
   No CAS on the header is needed: the lock serialises writers. *)
let locked_op t ~ref_addr ~refed ~delta =
  let ctx = t.ctx in
  let hdr = Obj_header.header_of_obj refed in
  let cnt = Obj_header.ref_cnt_of (Ctx.load ctx hdr) in
  if cnt + delta < 0 then
    raise (Refc.Refcount_violation "locked detach below zero");
  let new_cnt = cnt + delta in
  let s = stripe_of refed in
  Ctx.store ctx (field t s 0) ref_addr;
  Ctx.store ctx (field t s 1) refed;
  Ctx.store ctx (field t s 2) (if delta > 0 then 1 else 0);
  Ctx.store ctx (field t s 3) new_cnt;
  Ctx.fence ctx;
  Ctx.store ctx (valid_word t s) 1;
  Ctx.crash_point ctx Fault.Txn_after_redo;
  Ctx.store ctx hdr
    (Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = new_cnt });
  Ctx.crash_point ctx Fault.Txn_after_cas;
  Ctx.store ctx ref_addr (if delta > 0 then refed else 0);
  Ctx.crash_point ctx Fault.Txn_after_modify_ref;
  new_cnt

(* NB: a simulated crash must leave the lock held — a dead process runs no
   cleanup. Only genuine exceptions release it. *)
let run_locked t s f =
  match f () with
  | v ->
      release t s;
      v
  | exception (Fault.Crashed _ as e) -> raise e
  | exception e ->
      release t s;
      raise e

let with_stripe t refed f =
  let s = stripe_of refed in
  while not (try_acquire t s) do
    ()
  done;
  run_locked t s f

let attach t ~ref_addr ~refed =
  with_stripe t refed (fun () ->
      ignore (locked_op t ~ref_addr ~refed ~delta:1))

let detach t ~ref_addr ~refed =
  with_stripe t refed (fun () -> locked_op t ~ref_addr ~refed ~delta:(-1))

let attach_bounded t ~ref_addr ~refed ~spins =
  let s = stripe_of refed in
  let rec spin k = k < spins && (try_acquire t s || spin (k + 1)) in
  spin 0
  && begin
       run_locked t s (fun () -> ignore (locked_op t ~ref_addr ~refed ~delta:1));
       true
     end

let recover t ~failed_cid =
  let ctx = t.ctx in
  let released = ref 0 in
  for s = 0 to stripes - 1 do
    if Ctx.load ctx (lock_word t s) = failed_cid + 1 then begin
      if Ctx.load ctx (valid_word t s) = 1 then begin
        (* Replay the logged operation: idempotent because the count is
           absolute and the dead holder cannot race us. *)
        let refed = Ctx.load ctx (field t s 1) in
        Ctx.store ctx
          (Obj_header.header_of_obj refed)
          (Obj_header.pack
             {
               Obj_header.lcid = None;
               lera = 0;
               ref_cnt = Ctx.load ctx (field t s 3);
             });
        Ctx.store ctx
          (Ctx.load ctx (field t s 0))
          (if Ctx.load ctx (field t s 2) = 1 then refed else 0)
      end;
      release t s;
      incr released
    end
  done;
  !released
