(* Observability layer: spans around hot-path operations feed the client's
   in-heap latency histograms and a per-client event ring in shared memory.

   Ring writes use the control-plane primitives (Mem.ctl_peek/ctl_poke):
   they bypass fault injection and the stats accumulator, so tracing never
   perturbs the modeled clock and keeps working while the data plane is
   faulting. That is the point — the ring is forensic state. A client killed
   at a crash point leaves its Begin (and possibly Err) event in shared
   memory, where the monitor and [cxlshm trace] can read it back. *)

module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats
module Histogram = Cxlshm_shmem.Histogram

type phase = Begin | End | Err

let phase_index = function Begin -> 0 | End -> 1 | Err -> 2
let phase_of_index = function 0 -> Begin | 1 -> End | _ -> Err
let phase_name = function Begin -> "begin" | End -> "end" | Err -> "err"

(* Slot word 0 packs op and phase: tag = op_index * 4 + phase. Two spare
   tag values per op (phase 3 unused) keep decoding strict enough that
   fsck can tell a torn slot from a real one. *)
let tag_of ~op ~phase = (Histogram.op_index op * 4) + phase_index phase

let decode_tag tag =
  if tag < 0 || tag >= Histogram.num_ops * 4 then None
  else
    let p = tag land 3 in
    if p > 2 then None
    else Some (Histogram.op_of_index (tag lsr 2), phase_of_index p)

(* Reads the tag first and the duration and clock words only if it
   decodes, so a validity check costs exactly the loads it needs. *)
let slot_ok ~read slot =
  decode_tag (read slot) <> None && read (slot + 3) >= 0 && read (slot + 4) >= 0

let set ctx on = ctx.Ctx.trace_on <- on

let emit ctx ~op ~phase ~addr ~dur_ns =
  let mem = ctx.Ctx.mem and lay = ctx.Ctx.lay and cid = ctx.Ctx.cid in
  let cfg = lay.Layout.cfg in
  let cur_p = Layout.trace_cursor lay cid in
  let n = Mem.ctl_peek mem cur_p in
  let n = if n < 0 then 0 else n in
  let slot = Layout.trace_slot lay cid (n mod cfg.Config.trace_slots) in
  let era = Mem.ctl_peek mem (Layout.era_cell lay cid cid) in
  let t_ns =
    int_of_float (Stats.modeled_ns (Mem.cost_model mem) ctx.Ctx.st)
  in
  Mem.ctl_poke mem slot (tag_of ~op ~phase);
  Mem.ctl_poke mem (slot + 1) addr;
  Mem.ctl_poke mem (slot + 2) era;
  Mem.ctl_poke mem (slot + 3) (int_of_float (Float.max 0. dur_ns));
  Mem.ctl_poke mem (slot + 4) t_ns;
  (* Cursor last: a torn crash leaves a stale slot outside the published
     window, never a published slot with garbage. *)
  Mem.ctl_poke mem cur_p (n + 1)

let with_span ctx op ?(addr = 0) f =
  if not ctx.Ctx.trace_on then f ()
  else begin
    let model = Mem.cost_model ctx.Ctx.mem and before = Stats.copy ctx.Ctx.st in
    let span_ns () = Stats.modeled_ns model (Stats.diff ctx.Ctx.st before) in
    emit ctx ~op ~phase:Begin ~addr ~dur_ns:0.;
    match f () with
    | v ->
        let dur_ns = span_ns () in
        Histogram.record ctx.Ctx.hists.(Histogram.op_index op) dur_ns;
        emit ctx ~op ~phase:End ~addr ~dur_ns;
        v
    | exception e ->
        let dur_ns = span_ns () in
        emit ctx ~op ~phase:Err ~addr ~dur_ns;
        raise e
  end

(* {1 Reading rings back} *)

type event = {
  seq : int;
  op : Histogram.op;
  phase : phase;
  addr : int;
  era : int;
  dur_ns : int;
  t_ns : int;
}

let dump mem lay ~cid ?last () =
  let cfg = lay.Layout.cfg in
  let slots = cfg.Config.trace_slots in
  let n = Mem.ctl_peek mem (Layout.trace_cursor lay cid) in
  if n <= 0 then []
  else begin
    let avail = min n slots in
    let want = match last with None -> avail | Some k -> min k avail in
    let first = n - want in
    let out = ref [] in
    for seq = n - 1 downto first do
      let slot = Layout.trace_slot lay cid (seq mod slots) in
      let tag = Mem.ctl_peek mem slot in
      match decode_tag tag with
      | None -> () (* torn/corrupt slot: skip, fsck repairs the ring *)
      | Some (op, phase) ->
          out :=
            {
              seq;
              op;
              phase;
              addr = Mem.ctl_peek mem (slot + 1);
              era = Mem.ctl_peek mem (slot + 2);
              dur_ns = Mem.ctl_peek mem (slot + 3);
              t_ns = Mem.ctl_peek mem (slot + 4);
            }
            :: !out
    done;
    !out
  end

let pp_event ppf e =
  Format.fprintf ppf "#%-6d %-13s %-5s addr=%-8d era=%-4d dur=%6dns t=%dns"
    e.seq (Histogram.op_name e.op) (phase_name e.phase) e.addr e.era e.dur_ns
    e.t_ns
