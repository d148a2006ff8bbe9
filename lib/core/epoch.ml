(* Epoch-batched retirement journal.

   The eager release path pays a fence plus a rootref-line flush for every
   rootref whose local count drops to zero. With batching on
   ([Config.epoch_batch] = K > 0), releases instead park the rootref in the
   context's volatile buffer ([Ctx.epoch]); the rootref stays linked and
   [in_use] in shared memory, so a crash before the seal loses nothing —
   the dead client's rootref scan releases the parked refs like any others.

   Retirement is paced. The release that fills the buffer seals it into
   the client's persistent retirement journal (era + slots, one fence,
   then the count word as commit point, then a flush) and retires
   nothing. Every later release retires one sealed entry, in slot order
   (newest parked first, see [seal]); the one that retires the last entry
   finishes the batch (drains the deferred write-back queue, clears and
   flushes the count). That is the K-th release after the seal — the same
   release that fills the buffer again — so the buffer never overflows,
   and one fence and two flushes still cover K retirements.
   [flush_retired] is the explicit boundary: it finishes the sealed
   remainder, then seals and retires the buffer.

   A retired entry keeps its rootref allocated: the detach nulls the
   rootref's pointer, and the rootref itself goes back to its page only
   after the finish has durably cleared the count — one per release from
   the finishing one on, so the frees are paced too. Were it freed at once, the
   next allocation between two paced entries could take the block while
   the sealed slot still names it, and replay after a crash would release
   whatever the new owner linked there (a limbo-parked version, a stolen
   block mid-allocation).

   Crash windows (see Recovery.recover_journal for the replay):
   - before the count store is durable: no batch exists; parked refs are
     still in_use and the rootref scan releases them.
   - after the seal: entries are processed strictly in slot order, and
     a sealed slot always names the rootref it was sealed with, still
     [in_use]; an entry whose pointer is null is retired, the first one
     still linked is the only one that can carry a committed-but-unfinished
     count decrement, and the rest are untouched. Between two entries the
     client runs ordinary transactions; a crash inside one is resolved by
     [Recovery.resume_txn], which runs before the journal replay, so the
     only era a replayed entry can find consumed is its own.
   - after the batch, before the clear: every entry's pointer is null, so
     replay only frees the rootrefs.
   - after the clear: the finished batch's rootrefs not yet freed are
     [in_use] with a null pointer, and the rootref scan frees them.

   The final clear is flushed eagerly: if the cleared count were allowed to
   linger in a volatile cache, a crash could resurrect the sealed journal
   after its rootrefs were re-allocated, and replay would release live
   objects. *)

let enqueue ctx rr =
  let e = ctx.Ctx.epoch in
  e.Ctx.ebuf.(e.Ctx.elen) <- rr;
  e.Ctx.elen <- e.Ctx.elen + 1

let count_word ctx = Layout.retire_count ctx.Ctx.lay ctx.Ctx.cid

(* Move the buffer into the journal, newest parked rootref in slot 0. The
   count store is the commit point.

   Slot order is retirement order, and newest-first keeps the spread of
   park-to-retire distances the unpaced batch had: 1, 3, ..., 2K-1
   releases here, 0 .. K-1 there. Oldest-first would hold every entry
   exactly K releases, so whichever of two peers releases less often
   would always hold the last reference — in a one-to-one RPC pair, the
   server tearing down and freeing every message in the client's channel
   as a non-owner. Both orders average K, and the newest entries' lines
   are the likeliest to still be cached when they go first. *)
let seal ctx =
  let e = ctx.Ctx.epoch in
  (* Fill and retirement run in lockstep; a drift would overwrite the
     slots of a batch still in flight. *)
  assert (e.Ctx.slen = 0);
  let n = e.Ctx.elen in
  let lay = ctx.Ctx.lay and cid = ctx.Ctx.cid in
  for k = 0 to n - 1 do
    e.Ctx.sealed.(k) <- e.Ctx.ebuf.(n - 1 - k)
  done;
  e.Ctx.slen <- n;
  e.Ctx.snext <- 0;
  e.Ctx.elen <- 0;
  Ctx.store ctx (Layout.retire_era lay cid) (Era.self ctx);
  for k = 0 to n - 1 do
    Ctx.store ctx (Layout.retire_slot lay cid k) e.Ctx.sealed.(k)
  done;
  Ctx.fence ctx;
  let cnt = count_word ctx in
  Ctx.store ctx cnt n;
  Ctx.flush ctx cnt;
  Ctx.crash_point ctx Fault.Retire_after_seal

(* Hand one rootref of the last finished batch back to its page, the
   latest retired first: its lines are the likeliest to still be cached
   when the allocation that follows re-uses it. *)
let free_next ctx =
  let e = ctx.Ctx.epoch in
  if e.Ctx.flen > 0 then begin
    e.Ctx.flen <- e.Ctx.flen - 1;
    Alloc.free_rootref ctx e.Ctx.spent.(e.Ctx.flen)
  end

let free_spent ctx =
  let e = ctx.Ctx.epoch in
  while e.Ctx.flen > 0 do
    free_next ctx
  done

(* Retire the next sealed entry; the last one finishes the batch, whose
   rootrefs become freeable once the cleared count is durable. The
   previous batch's are all freed by then (one per release), so
   [free_spent] is a no-op outside [flush_retired]. *)
let retire_next ctx ~retire_one =
  let e = ctx.Ctx.epoch in
  retire_one e.Ctx.sealed.(e.Ctx.snext);
  e.Ctx.snext <- e.Ctx.snext + 1;
  Ctx.crash_point ctx Fault.Retire_mid_batch;
  if e.Ctx.snext = e.Ctx.slen then begin
    Ctx.drain_dirty ctx;
    Ctx.crash_point ctx Fault.Retire_after_batch;
    let cnt = count_word ctx in
    Ctx.store ctx cnt 0;
    Ctx.flush ctx cnt;
    free_spent ctx;
    Array.blit e.Ctx.sealed 0 e.Ctx.spent 0 e.Ctx.slen;
    e.Ctx.flen <- e.Ctx.slen;
    e.Ctx.slen <- 0
  end

(* The finishing release frees the first of its batch's rootrefs, and the
   K-1 releases after it the rest, all before the next finish. *)
let step ctx ~retire_one =
  let e = ctx.Ctx.epoch in
  if e.Ctx.slen > 0 then retire_next ctx ~retire_one;
  free_next ctx;
  if e.Ctx.elen >= Ctx.epoch_capacity ctx then seal ctx

let flush_retired ctx ~retire_one =
  let e = ctx.Ctx.epoch in
  let finish () =
    while e.Ctx.slen > 0 do
      retire_next ctx ~retire_one
    done
  in
  finish ();
  if e.Ctx.elen > 0 then begin
    seal ctx;
    finish ()
  end
  else Ctx.drain_dirty ctx;
  free_spent ctx

(* Recovery-side view of a dead client's journal. *)

let read_journal ctx ~cid =
  let lay = ctx.Ctx.lay in
  let k = (Ctx.cfg ctx).Config.epoch_batch in
  if k = 0 then None
  else
    let n = Ctx.load ctx (Layout.retire_count lay cid) in
    if n < 1 || n > k then None
    else
      Some (Array.init n (fun i -> Ctx.load ctx (Layout.retire_slot lay cid i)))

let clear_journal ctx ~cid =
  let cnt = Layout.retire_count ctx.Ctx.lay cid in
  Ctx.store ctx cnt 0;
  Ctx.flush ctx cnt
