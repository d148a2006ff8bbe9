type op = Attach | Detach | Change | Locked | Swap

let op_to_int = function
  | Attach -> 1
  | Detach -> 2
  | Change -> 3
  | Locked -> 4
  | Swap -> 5

let op_of_int = function
  | 1 -> Attach
  | 2 -> Detach
  | 3 -> Change
  | 4 -> Locked
  | 5 -> Swap
  | n -> invalid_arg (Printf.sprintf "Redo_log.op_of_int: %d" n)

type t = {
  op : op;
  era : int;
  ref_addr : Cxlshm_shmem.Pptr.t;
  refed : Cxlshm_shmem.Pptr.t;
  refed2 : Cxlshm_shmem.Pptr.t;
  saved_cnt : int;
}

(* Record layout within the 8-word redo area:
   +0 valid, +1 op, +2 era, +3 ref_addr, +4 refed, +5 refed2, +6 saved_cnt *)

let write_at (ctx : Ctx.t) base r =
  Ctx.store ctx (base + 1) (op_to_int r.op);
  Ctx.store ctx (base + 2) r.era;
  Ctx.store ctx (base + 3) r.ref_addr;
  Ctx.store ctx (base + 4) r.refed;
  Ctx.store ctx (base + 5) r.refed2;
  Ctx.store ctx (base + 6) r.saved_cnt;
  Ctx.fence ctx;
  (* No clwb here: the paper's fast path flushes only the RootRef line
     during allocation (§6.1); redo entries reach the pool through normal
     write-back (or eADR-like persistence on failure). *)
  Ctx.store ctx base 1

let record (ctx : Ctx.t) r = write_at ctx (Layout.redo_base ctx.lay ctx.cid) r
let record_for ctx ~cid r = write_at ctx (Layout.redo_base ctx.Ctx.lay cid) r

let read (ctx : Ctx.t) ~cid =
  let base = Layout.redo_base ctx.lay cid in
  if Ctx.load ctx base = 0 then None
  else
    Some
      {
        op = op_of_int (Ctx.load ctx (base + 1));
        era = Ctx.load ctx (base + 2);
        ref_addr = Ctx.load ctx (base + 3);
        refed = Ctx.load ctx (base + 4);
        refed2 = Ctx.load ctx (base + 5);
        saved_cnt = Ctx.load ctx (base + 6);
      }

let clear_for (ctx : Ctx.t) ~cid =
  let base = Layout.redo_base ctx.lay cid in
  Ctx.store ctx base 0;
  Ctx.flush ctx base
