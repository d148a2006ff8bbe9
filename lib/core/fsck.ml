(* Offline arena verifier and repairer.

   [Validate] answers "is this arena consistent?"; this module makes it so
   again after device-level damage that crash recovery alone cannot undo —
   torn object headers, values swallowed by stuck media, wild pointers into
   pages whose metadata no longer parses. It assumes the pool is quiesced
   (no live clients, fault injection disarmed) and works in passes, each
   idempotent, from raw structure up to the reference graph:

     0. segment metadata sanity (state / occupied in range)
     1. page geometry: a page whose kind/block_words/capacity disagree is
        quarantined — metadata zeroed, kind set to [Config.kind_quarantined]
        so allocation, validation and reclaim all skip the frame; torn
        object headers (ref_cnt > 0 but implausible meta) are cleared; a
        huge head's span word is re-anchored to its run and its true
        length held to [Heap.huge_length_ok]
     2. a crash-recovery sweep of every recorded client, exactly as
        [Shm.load] does — half-done transactions resolve here
     3. mark from the durable roots (RootRefs, queue directory, named
        roots) with [Heap.mark]: wild references are cleared at their
        holder, unreachable ref_cnt > 0 objects are freed, and every
        reachable object's count is rewritten to its actual number of
        holders
     4. free-structure rebuild: per-page free chains are reconstructed from
        block liveness, cross-client free stacks and redo logs are zeroed,
        orphaned huge-continuation segments are released
     5. POTENTIAL_LEAKING scan, then a final [Validate.run]

   Repair is deliberately lossy where the damage is lossy: a torn header
   cannot be un-torn, so the block is either resurrected with its holder
   count or freed; fsck restores the arena's invariants, not its data. *)

module Mem = Cxlshm_shmem.Mem
module Word = Cxlshm_shmem.Word

type report = {
  seg_meta_fixed : int;  (** out-of-range segment state/owner words reset *)
  pages_quarantined : int;
  page_meta_fixed : int;  (** stale metadata of unused pages normalised *)
  torn_headers_cleared : int;
  clients_swept : int;  (** recorded clients put through crash recovery *)
  sweep_errors : int;  (** recovery attempts that raised (state too damaged) *)
  wild_refs_cleared : int;
  unreachable_freed : int;
  counts_fixed : int;
  chains_rebuilt : int;  (** pages whose free chain had to be reconstructed *)
  stacks_cleared : int;  (** non-empty cross-client free stacks zeroed *)
  trace_rings_reset : int;  (** event rings zeroed (bad cursor / torn slot) *)
  limbo_fixed : int;  (** limbo rows re-owned and entries cleared *)
  validation : Validate.t;  (** final post-repair verdict *)
}

let clean r = Validate.is_clean r.validation

let pp ppf r =
  Format.fprintf ppf
    "seg-meta=%d quarantined=%d page-meta=%d torn=%d swept=%d(sweep-errs=%d) \
     wild=%d freed=%d counts=%d chains=%d stacks=%d rings=%d limbo=%d | %a"
    r.seg_meta_fixed r.pages_quarantined r.page_meta_fixed
    r.torn_headers_cleared r.clients_swept r.sweep_errors r.wild_refs_cleared
    r.unreachable_freed r.counts_fixed r.chains_rebuilt r.stacks_cleared
    r.trace_rings_reset r.limbo_fixed Validate.pp r.validation

(* ------------------------------------------------------------------ *)

type acc = {
  mutable segf : int;
  mutable quar : int;
  mutable pmeta : int;
  mutable torn : int;
  mutable swept : int;
  mutable swerr : int;
  mutable wild : int;
  mutable freed : int;
  mutable counts : int;
  mutable chains : int;
  mutable stacks : int;
  mutable rings : int;
  mutable limbo : int;
}

let repair (ctx : Ctx.t) =
  let mem = ctx.Ctx.mem and lay = ctx.Ctx.lay in
  let cfg = lay.Layout.cfg in
  (* Offline servicing: no faults fire while fsck runs (the damage they
     already did is exactly what we are here to fix). *)
  Mem.set_fault_injection mem false;
  let peek = Mem.unsafe_peek mem and poke = Mem.unsafe_poke mem in
  let a =
    { segf = 0; quar = 0; pmeta = 0; torn = 0; swept = 0; swerr = 0; wild = 0;
      freed = 0; counts = 0; chains = 0; stacks = 0; rings = 0; limbo = 0 }
  in
  let ns = cfg.Config.num_segments in
  let rr_kind = Config.kind_rootref cfg in
  let huge_kind = Config.kind_huge cfg in
  let q_kind = Config.kind_quarantined cfg in
  let classify s = Heap.classify ~read:peek lay s in
  (* The head plus its consecutive continuations: what the segment states
     describe, whatever the (possibly stuck) span word says. *)
  let run_span head =
    let rec go k =
      if head + k < ns && classify (head + k) = Heap.Huge_cont then go (k + 1)
      else k
    in
    go 1
  in

  (* ---- pass 0: segment metadata sanity ---- *)
  for s = 0 to ns - 1 do
    let st = peek (Layout.seg_state lay s) in
    if st < 0 || st > 5 then begin
      (* unknown state: pessimistically POTENTIAL_LEAKING so the scan of
         pass 5 walks the segment's blocks *)
      poke (Layout.seg_state lay s) 3;
      a.segf <- a.segf + 1
    end;
    let occ = peek (Layout.seg_occupied lay s) in
    if occ < 0 || occ > cfg.Config.max_clients then begin
      poke (Layout.seg_occupied lay s) 0;
      a.segf <- a.segf + 1
    end
  done;

  (* ---- pass 1: page geometry and torn headers ---- *)
  let zero_page_meta gid =
    poke (Layout.page_free lay ~gid) 0;
    poke (Layout.page_used lay ~gid) 0;
    poke (Layout.page_capacity lay ~gid) 0;
    poke (Layout.page_block_words lay ~gid) 0;
    poke (Layout.page_aux lay ~gid) 0;
    poke (Layout.page_aux2 lay ~gid) 0
  in
  let quarantine gid =
    zero_page_meta gid;
    poke (Layout.page_kind lay ~gid) q_kind;
    a.quar <- a.quar + 1
  in
  (* An in-use header whose meta word cannot describe an object of this
     page's class is torn: clear it to "free block, empty meta" — the
     mark pass then either resurrects it (it still has holders) or the
     chain rebuild absorbs it. *)
  let plausible_meta ~kind ~bw meta =
    let dw = Obj_header.meta_data_words meta in
    Obj_header.meta_kind meta = kind
    && Obj_header.meta_emb_cnt meta <= dw
    && dw >= 1
    && Config.header_words + dw <= bw
  in
  let empty_meta ~kind ~bw =
    Obj_header.pack_meta ~kind ~emb_cnt:0
      ~data_words:(bw - Config.header_words)
  in
  Heap.iter_segments ~read:peek lay (fun s -> function
    | Heap.Huge_cont -> ()
    | Heap.Free | Heap.Class_pages ->
        Heap.iter_pages ~read:peek lay s (fun gid k ->
            let bw = peek (Layout.page_block_words lay ~gid) in
            let cap = peek (Layout.page_capacity lay ~gid) in
            if k = Config.kind_unused || k = q_kind then begin
              if bw <> 0 || cap <> 0 || peek (Layout.page_free lay ~gid) <> 0
              then begin
                (* torn Page.init/reset: kind is published last, so a
                   non-zero remainder under an unused kind is half-written
                   garbage *)
                zero_page_meta gid;
                a.pmeta <- a.pmeta + 1
              end
            end
            else begin
              let expect_bw =
                if k = rr_kind then Some Config.rootref_words
                else
                  match Config.class_of_kind cfg k with
                  | Some c -> Some (Config.class_block_words cfg c)
                  | None -> None (* huge kind outside a huge head, or junk *)
              in
              match expect_bw with
              | None -> quarantine gid
              | Some ebw ->
                  if bw <> ebw || cap <> cfg.Config.page_words / ebw then
                    quarantine gid
                  else if k <> rr_kind then
                    List.iter
                      (fun b ->
                        if
                          Obj_header.ref_cnt_of (peek b) > 0
                          && not (plausible_meta ~kind:k ~bw (peek (b + 1)))
                        then begin
                          poke b 0;
                          poke (b + 1) (empty_meta ~kind:k ~bw);
                          a.torn <- a.torn + 1
                        end)
                      (Heap.page_blocks ~read:peek lay gid)
                  else
                    (* RootRef state words only carry {in_use, local_cnt};
                       stray bits mean a torn store landed *)
                    List.iter
                      (fun b ->
                        if
                          Rootref.peek_in_use mem b
                          && not (Rootref.well_formed (peek b))
                        then begin
                          poke b 0;
                          poke (b + 1) 0;
                          a.torn <- a.torn + 1
                        end)
                      (Heap.page_blocks ~read:peek lay gid)
            end)
    | Heap.Huge_head ->
        let obj = Heap.huge_obj lay s in
        if
          Obj_header.ref_cnt_of (peek obj) > 0
          && Obj_header.meta_kind (peek (Obj_header.meta_of_obj obj))
             <> huge_kind
        then begin
          poke obj 0;
          (* left at count 0: the mark pass frees the whole run *)
          a.torn <- a.torn + 1
        end;
        (* Re-anchor the span word to the run the segment states describe
           — a run half-released by a crashed [free_huge] shrinks here —
           then hold the true length (page_aux2) to {!Heap.huge_length_ok},
           the check Validate applies. *)
        let gid0 = Layout.page_gid lay ~seg:s ~page:0 in
        let span = run_span s in
        if peek (Layout.page_aux lay ~gid:gid0) <> span then begin
          poke (Layout.page_aux lay ~gid:gid0) span;
          a.pmeta <- a.pmeta + 1
        end;
        if not (Heap.huge_length_ok ~read:peek lay s) then begin
          let max_dw = Heap.huge_capacity lay ~span in
          let meta_dw =
            Obj_header.meta_data_words (peek (Obj_header.meta_of_obj obj))
          in
          poke (Layout.page_aux2 lay ~gid:gid0)
            (if meta_dw >= 1 && meta_dw <= max_dw then meta_dw else max_dw);
          a.pmeta <- a.pmeta + 1
        end);

  (* ---- pass 1.5: trace-ring integrity ----
     Checked before the recovery sweep because the sweep itself may append
     events (the service context traces its recovery spans). A ring with a
     negative cursor or an undecodable published slot has been hit by the
     same damage the other passes repair; the events are forensics, not
     invariants, so the whole ring is simply zeroed. *)
  let slots = cfg.Config.trace_slots in
  for cid = 0 to cfg.Config.max_clients - 1 do
    let cur = peek (Layout.trace_cursor lay cid) in
    let window = if cur < 0 then 0 else min cur slots in
    let bad = ref (cur < 0) in
    for k = 0 to window - 1 do
      let n = cur - 1 - k in
      let slot = Layout.trace_slot lay cid (n mod slots) in
      let tag = peek slot in
      if
        tag < 0
        || tag >= Cxlshm_shmem.Histogram.num_ops * 4
        || tag land 3 > 2
        || peek (slot + 3) < 0
        || peek (slot + 4) < 0
      then bad := true
    done;
    if !bad then begin
      poke (Layout.trace_cursor lay cid) 0;
      for k = 0 to slots - 1 do
        let slot = Layout.trace_slot lay cid k in
        for w = 0 to Layout.trace_slot_words - 1 do
          poke (slot + w) 0
        done
      done;
      a.rings <- a.rings + 1
    end
  done;

  (* ---- pass 2: crash-recovery sweep of every recorded client ---- *)
  let force_unlock () = poke (Layout.recovery_lock lay) 0 in
  (try ignore (Recovery.resume_interrupted ctx)
   with _ ->
     a.swerr <- a.swerr + 1;
     force_unlock ());
  for cid = 0 to cfg.Config.max_clients - 1 do
    if Client.status ctx ~cid <> Client.Slot_free then begin
      Client.declare_failed ctx ~cid;
      try
        ignore (Recovery.recover ctx ~failed_cid:cid);
        a.swept <- a.swept + 1
      with _ ->
        (* recovery choked on damage it was never designed for; the later
           structural passes still run, so just make the client slot and
           the lock sane and move on *)
        a.swerr <- a.swerr + 1;
        Client.mark_recovered ctx ~cid;
        force_unlock ()
    end
  done;

  (* ---- pass 2.7: limbo rows ----
     The sweep orphaned every recovered client's rows; a row still owned
     (by a free slot or no client) is orphaned now. Entries of free rows,
     dead rootrefs and duplicates are cleared; valid entries stay for a
     future successor. The orphan count becomes exact. *)
  let parked : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let orphaned = ref 0 in
  for r = 0 to Layout.limbo_rows lay - 1 do
    let owner_w = Layout.limbo_owner lay r in
    let owner = peek owner_w in
    if
      owner <> 0 && owner <> Layout.limbo_orphaned
      && (owner < 0 || owner > cfg.Config.max_clients
         || Client.status ctx ~cid:(owner - 1) = Client.Slot_free)
    then begin
      poke owner_w Layout.limbo_orphaned;
      a.limbo <- a.limbo + 1
    end;
    let live = ref 0 in
    for k = 0 to Layout.limbo_row_entries - 1 do
      let rr_w = Layout.limbo_rr lay r k in
      let rr = peek rr_w in
      if rr <> 0 then
        if
          owner = 0
          || not
               (Heap.live_rootref ~read:peek lay rr
                && Rootref.peek_obj mem rr <> 0)
          || Hashtbl.mem parked rr
        then begin
          poke rr_w 0;
          a.limbo <- a.limbo + 1
        end
        else begin
          Hashtbl.replace parked rr ();
          incr live
        end
    done;
    if peek owner_w = Layout.limbo_orphaned then
      if !live = 0 then poke owner_w 0 else incr orphaned
  done;
  poke (Layout.hdr_limbo_orphans lay) !orphaned;

  (* ---- pass 3: mark from durable roots ---- *)
  (* Wild directory entries are dropped by their subsystems first; the
     shared mark then clears every other wild reference at its holder.
     (A dead client's RootRefs were already dropped by the recovery sweep;
     what is left is either a ghost we keep as a holder — harmless — or
     damage we clear here.) *)
  let valid = Heap.block_base_ok ~read:peek lay in
  a.wild <- a.wild + Transfer.clear_wild_directory_refs mem lay ~valid;
  a.wild <- a.wild + Named_roots.clear_wild_directory_refs mem lay ~valid;
  let expected =
    (Heap.mark ~read:peek lay ~wild:(fun holder _ ->
         match holder with
         | Heap.Rootref rr ->
             poke rr 0;
             poke (rr + 1) 0;
             a.wild <- a.wild + 1
         | Heap.Embedded (obj, i) ->
             poke (Obj_header.emb_slot obj i) 0;
             a.wild <- a.wild + 1
         | Heap.Queue_directory | Heap.Named_root -> (* cleared above *) ()))
      .Heap.holders
  in
  (* Sweep: unreachable counted objects are freed, reachable ones get their
     count rewritten to the number of holders actually found. lcid/lera are
     reset to "never touched" — every transaction was resolved in pass 2. *)
  let fix_count b =
    let exp = try Hashtbl.find expected b with Not_found -> 0 in
    let hdr = peek b in
    let want =
      Obj_header.pack { Obj_header.lcid = None; lera = 0; ref_cnt = exp }
    in
    if hdr <> want then begin
      poke b want;
      if Obj_header.ref_cnt_of hdr <> exp then a.counts <- a.counts + 1
    end
  in
  let release_huge_run head =
    let n = run_span head in
    Heap.iter_pages ~read:peek lay head (fun gid _ ->
        poke (Layout.page_kind lay ~gid) Config.kind_unused;
        zero_page_meta gid);
    for k = n - 1 downto 0 do
      poke (Layout.seg_state lay (head + k)) 0;
      poke (Layout.seg_occupied lay (head + k)) 0
    done
  in
  Heap.iter_segments ~read:peek lay (fun s -> function
    | Heap.Huge_head ->
        let obj = Heap.huge_obj lay s in
        if Hashtbl.mem expected obj then fix_count obj
        else begin
          if Obj_header.ref_cnt_of (peek obj) > 0 then a.freed <- a.freed + 1;
          release_huge_run s
        end
    | Heap.Huge_cont -> ()
    | Heap.Free | Heap.Class_pages ->
        Heap.iter_pages ~read:peek lay s (fun gid k ->
            if Config.class_of_kind cfg k <> None then
              let bw = peek (Layout.page_block_words lay ~gid) in
              List.iter
                (fun b ->
                  if Hashtbl.mem expected b then fix_count b
                  else if Obj_header.ref_cnt_of (peek b) > 0 then begin
                    poke b 0;
                    poke (b + 1) (empty_meta ~kind:k ~bw);
                    a.freed <- a.freed + 1
                  end)
                (Heap.page_blocks ~read:peek lay gid)));
  (* a released huge run may leave cont segments whose head was damaged
     away; release them too (ascending order heals chains) *)
  for s = 0 to ns - 1 do
    if classify s = Heap.Huge_cont && (s = 0 || Heap.is_plain (classify (s - 1)))
    then begin
      poke (Layout.seg_state lay s) 0;
      poke (Layout.seg_occupied lay s) 0;
      a.segf <- a.segf + 1
    end
  done;

  (* ---- pass 4: rebuild free structures from liveness ---- *)
  for s = 0 to ns - 1 do
    if peek (Layout.seg_client_free lay s) <> 0 then begin
      poke (Layout.seg_client_free lay s) 0;
      a.stacks <- a.stacks + 1
    end
  done;
  (* Domain shard stacks are rebuilt the same way as the cross-client
     stacks: drop them wholesale — every dead block re-enters its page
     chain below, and the stamps that made parked entries stealable are
     cleared there too, so nothing keeps pinning segments. *)
  for d = 0 to cfg.Config.num_domains - 1 do
    for c = 0 to Config.num_classes cfg - 1 do
      if peek (Layout.domain_class_head lay d c) <> 0 then begin
        poke (Layout.domain_class_head lay d c) 0;
        a.stacks <- a.stacks + 1
      end
    done
  done;
  Heap.iter_segments ~read:peek lay (fun s -> function
    | Heap.Huge_head | Heap.Huge_cont -> ()
    | Heap.Free | Heap.Class_pages ->
        Heap.iter_pages ~read:peek lay s (fun gid k ->
            let is_rr = k = rr_kind in
            if is_rr || Config.class_of_kind cfg k <> None then begin
              let blocks = Heap.page_blocks ~read:peek lay gid in
              let cap = List.length blocks in
              let off = Page.next_slot_offset ~kind_rootref:is_rr in
              let live b =
                if is_rr then Rootref.peek_in_use mem b
                else Obj_header.ref_cnt_of (peek b) > 0
              in
              let old_head = peek (Layout.page_free lay ~gid) in
              let old_used = peek (Layout.page_used lay ~gid) in
              let head = ref 0 and nfree = ref 0 in
              List.iter
                (fun b ->
                  if not (live b) then begin
                    poke b 0;
                    if not is_rr then begin
                      poke (b + 1) 0;
                      (* A stale shard stamp on a dead block would pin the
                         segment against the §5.3 scan forever. *)
                      poke (Shard.stamp_slot b) 0
                    end;
                    poke (b + off) !head;
                    head := b;
                    incr nfree
                  end)
                (List.rev blocks);
              poke (Layout.page_free lay ~gid) !head;
              poke (Layout.page_used lay ~gid) (cap - !nfree);
              if old_head <> !head || old_used <> cap - !nfree then
                a.chains <- a.chains + 1
            end));
  for cid = 0 to cfg.Config.max_clients - 1 do
    Redo_log.clear_for ctx ~cid;
    (* Retirement journals refer to rootrefs the rebuild above may have
       freed; a sealed batch is meaningless after a full rebuild. *)
    poke (Layout.retire_count lay cid) 0
  done;
  force_unlock ();

  (* ---- pass 5: leak scan, then the verdict ---- *)
  (try ignore (Reclaim.scan_all ctx ~is_client_alive:(fun _ -> false))
   with _ -> a.swerr <- a.swerr + 1);
  {
    seg_meta_fixed = a.segf;
    pages_quarantined = a.quar;
    page_meta_fixed = a.pmeta;
    torn_headers_cleared = a.torn;
    clients_swept = a.swept;
    sweep_errors = a.swerr;
    wild_refs_cleared = a.wild;
    unreachable_freed = a.freed;
    counts_fixed = a.counts;
    chains_rebuilt = a.chains;
    stacks_cleared = a.stacks;
    trace_rings_reset = a.rings;
    limbo_fixed = a.limbo;
    validation = Validate.run mem lay;
  }
