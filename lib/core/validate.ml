module Mem = Cxlshm_shmem.Mem
module Word = Cxlshm_shmem.Word

type t = {
  live_objects : int;
  live_rootrefs : int;
  free_blocks : int;
  pending_scan : int;
  leaks : int;
  double_frees : int;
  wild_pointers : int;
  count_mismatches : int;
  errors : string list;
}

let is_clean t =
  t.leaks = 0 && t.double_frees = 0 && t.wild_pointers = 0
  && t.count_mismatches = 0

let pp ppf t =
  Format.fprintf ppf
    "live=%d rootrefs=%d free=%d pending=%d leaks=%d double-frees=%d wild=%d \
     mismatches=%d"
    t.live_objects t.live_rootrefs t.free_blocks t.pending_scan t.leaks t.double_frees
    t.wild_pointers t.count_mismatches

type acc = {
  mutable live : int;
  mutable live_rr : int;
  mutable free : int;
  mutable pending : int;
  mutable leak : int;
  mutable dfree : int;
  mutable wild : int;
  mutable mism : int;
  mutable errs : string list;
}

let err acc fmt = Printf.ksprintf (fun s -> acc.errs <- s :: acc.errs) fmt

(* The data words a block at [p] can hold, if [p] is the base of a block
   we could legally reference. Only metadata reads through [read] — never
   follows [p] — so it is safe to ask about arbitrary (even hostile) words;
   the RPC validation walk relies on exactly that. *)
let block_capacity ~read:peek lay p =
  let cfg = lay.Layout.cfg in
  let rr_kind = Config.kind_rootref cfg in
  let huge_kind = Config.kind_huge cfg in
  let page_kind gid = peek (Layout.page_kind lay ~gid) in
  if p <= 0 || p >= lay.Layout.total_words then None
  else
    match Layout.segment_of_addr lay p with
    | exception Invalid_argument _ -> None
    | seg -> (
        let st = peek (Layout.seg_state lay seg) in
        let gid0 = Layout.page_gid lay ~seg ~page:0 in
        if st = 4 (* huge head *) || st = 5 (* huge cont *)
           || page_kind gid0 = huge_kind
        then
          if p <> Layout.segment_base lay seg + lay.Layout.seg_hdr_words then
            None
          else
            (* The run's extent: [page_aux] of the head page holds its
               length in segments. *)
            let span = max 1 (peek (Layout.page_aux lay ~gid:gid0)) in
            Some
              (lay.Layout.segment_words - lay.Layout.seg_hdr_words
              + ((span - 1) * lay.Layout.segment_words)
              - Config.header_words)
        else
          match Layout.page_gid_of_addr lay p with
          | exception Invalid_argument _ -> None
          | gid ->
              let k = page_kind gid in
              let bw = peek (Layout.page_block_words lay ~gid) in
              let base = Layout.page_area lay ~gid in
              if
                k <> Config.kind_unused
                && k <> rr_kind
                && bw > 0
                && (p - base) mod bw = 0
                && (p - base) / bw < peek (Layout.page_capacity lay ~gid)
              then Some (bw - Config.header_words)
              else None)

let block_base_ok ~read lay p = block_capacity ~read lay p <> None

let live_rootref mem lay rr =
  let peek = Mem.unsafe_peek mem in
  rr > 0 && rr < lay.Layout.total_words
  && (match Layout.page_gid_of_addr lay rr with
     | exception Invalid_argument _ -> false
     | gid ->
         peek (Layout.page_kind lay ~gid) = Config.kind_rootref lay.Layout.cfg
         && (rr - Layout.page_area lay ~gid) mod Config.rootref_words = 0)
  && Rootref.peek_in_use mem rr

let run mem lay =
  let cfg = lay.Layout.cfg in
  let peek = Mem.unsafe_peek mem in
  let acc =
    { live = 0; live_rr = 0; free = 0; pending = 0; leak = 0; dfree = 0; wild = 0;
      mism = 0; errs = [] }
  in
  let rr_kind = Config.kind_rootref cfg in
  let huge_kind = Config.kind_huge cfg in
  let pps = cfg.Config.pages_per_segment in

  (* ---- enumerate initialised pages and their blocks ---- *)
  let page_kind gid = peek (Layout.page_kind lay ~gid) in
  let page_blocks gid =
    let bw = peek (Layout.page_block_words lay ~gid) in
    let cap = peek (Layout.page_capacity lay ~gid) in
    let base = Layout.page_area lay ~gid in
    if bw = 0 then []
    else List.init cap (fun i -> base + (i * bw))
  in
  let seg_state s = peek (Layout.seg_state lay s) in
  let seg_owner s =
    let v = peek (Layout.seg_occupied lay s) in
    if v = 0 then None else Some (v - 1)
  in
  (* 1 = Alive, 3 = Suspected: a suspected client may still be rescued by
     its own heartbeat, so its segments are not scan-pending. *)
  let client_alive c =
    let f = peek (Layout.client_flags lay c) in
    f = 1 || f = 3
  in

  (* Is [p] the base of a block we could legally reference? *)
  let block_base_ok p = block_base_ok ~read:peek lay p in

  (* ---- collect reference holders ---- *)
  let expected : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let holders : (int, string list) Hashtbl.t = Hashtbl.create 256 in
  let add_ref ~from obj =
    if not (block_base_ok obj) then begin
      acc.wild <- acc.wild + 1;
      err acc "wild pointer @%d held by %s" obj from
    end
    else begin
      Hashtbl.replace expected obj
        (1 + (try Hashtbl.find expected obj with Not_found -> 0));
      Hashtbl.replace holders obj
        (from :: (try Hashtbl.find holders obj with Not_found -> []))
    end
  in

  (* RootRefs *)
  for seg = 0 to cfg.Config.num_segments - 1 do
    for p = 0 to pps - 1 do
      let gid = Layout.page_gid lay ~seg ~page:p in
      if page_kind gid = rr_kind then
        List.iter
          (fun rr ->
            if Rootref.peek_in_use mem rr then begin
              let obj = Rootref.peek_obj mem rr in
              if obj <> 0 then
                add_ref ~from:(Printf.sprintf "rootref@%d" rr) obj
            end)
          (page_blocks gid)
    done
  done;
  (* Queue directory *)
  List.iter
    (fun qptr -> add_ref ~from:"queue-directory" qptr)
    (Transfer.directory_refs mem lay);
  (* Named persistent roots *)
  List.iter
    (fun p -> add_ref ~from:"named-root" p)
    (Named_roots.directory_refs mem lay);
  (* Embedded references of live blocks (incl. huge objects). *)
  let scan_live_obj obj =
    let meta = peek (Obj_header.meta_of_obj obj) in
    let emb = Obj_header.meta_emb_cnt meta in
    for i = 0 to emb - 1 do
      let child = peek (Obj_header.emb_slot obj i) in
      if child <> 0 then
        add_ref ~from:(Printf.sprintf "emb@%d[%d]" obj i) child
    done
  in
  for seg = 0 to cfg.Config.num_segments - 1 do
    let st = seg_state seg in
    if st = 4 || page_kind (Layout.page_gid lay ~seg ~page:0) = huge_kind then begin
      let obj = Layout.segment_base lay seg + lay.Layout.seg_hdr_words in
      if Obj_header.ref_cnt_of (peek obj) > 0 then scan_live_obj obj
    end
    else if st <> 5 then
      for p = 0 to pps - 1 do
        let gid = Layout.page_gid lay ~seg ~page:p in
        let k = page_kind gid in
        if k <> Config.kind_unused && k <> rr_kind && k <> huge_kind then
          List.iter
            (fun b -> if Obj_header.ref_cnt_of (peek b) > 0 then scan_live_obj b)
            (page_blocks gid)
      done
  done;

  (* ---- free structures ---- *)
  let free_set : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let add_free b where =
    if Hashtbl.mem free_set b then begin
      acc.dfree <- acc.dfree + 1;
      err acc "block @%d appears twice in free structures (%s)" b where
    end
    else Hashtbl.replace free_set b ()
  in
  for seg = 0 to cfg.Config.num_segments - 1 do
    let st = seg_state seg in
    if st <> 4 && st <> 5 then begin
      for p = 0 to pps - 1 do
        let gid = Layout.page_gid lay ~seg ~page:p in
        let k = page_kind gid in
        if k <> Config.kind_unused && k <> huge_kind then begin
          let off = Page.next_slot_offset ~kind_rootref:(k = rr_kind) in
          let cap = peek (Layout.page_capacity lay ~gid) in
          let rec walk p fuel =
            if p <> 0 then
              if fuel = 0 then begin
                acc.dfree <- acc.dfree + 1;
                err acc "free chain of page %d longer than capacity (cycle?)" gid
              end
              else begin
                add_free p (Printf.sprintf "page %d free chain" gid);
                walk (peek (p + off)) (fuel - 1)
              end
          in
          walk (peek (Layout.page_free lay ~gid)) (cap + 1)
        end
      done;
      (* cross-client stack *)
      let f_ptr = Word.field ~shift:0 ~bits:46 in
      let rec walk p fuel =
        if p <> 0 && fuel > 0 then begin
          add_free p (Printf.sprintf "segment %d client_free" seg);
          let rr = page_kind (Layout.page_gid_of_addr lay p) = rr_kind in
          walk (peek (p + Page.next_slot_offset ~kind_rootref:rr)) (fuel - 1)
        end
      in
      walk (Word.get f_ptr (peek (Layout.seg_client_free lay seg))) 10_000
    end
  done;

  (* ---- domain shard stacks ---- *)
  (* Parked entries are free blocks too. On-stack implies stamped (the
     stamp store precedes the head CAS and nothing unstamps a linked
     entry), so a stamp or kind mismatch is a real inconsistency — and
     the entry's next pointer can no longer be trusted, so stop there. *)
  if cfg.Config.num_domains > 0 then begin
    let f_ptr = Word.field ~shift:0 ~bits:46 in
    for d = 0 to cfg.Config.num_domains - 1 do
      for c = 0 to Config.num_classes cfg - 1 do
        let rec walk p fuel =
          if p <> 0 && fuel > 0 then
            if peek (Shard.stamp_slot p) <> Shard.stamp_of p then begin
              acc.dfree <- acc.dfree + 1;
              err acc "shard stack d%d/c%d: entry @%d bad stamp" d c p
            end
            else if page_kind (Layout.page_gid_of_addr lay p)
                    <> Config.kind_of_class c
            then begin
              acc.dfree <- acc.dfree + 1;
              err acc "shard stack d%d/c%d: entry @%d wrong class" d c p
            end
            else begin
              add_free p (Printf.sprintf "shard stack d%d/c%d" d c);
              walk (peek (p + Config.header_words)) (fuel - 1)
            end
        in
        walk
          (Word.get f_ptr (peek (Layout.domain_class_head lay d c)))
          10_000
      done
    done
  end;

  (* ---- limbo rows ---- *)
  (* Entries are rootrefs, already counted as holders above. The rows: an
     owner word names a free row, a live client or the orphaned state; a
     free row holds no entry; an entry names a live rootref with a target,
     parked once; the orphan count covers every orphaned row. *)
  let mism fmt = acc.mism <- acc.mism + 1; err acc fmt in
  let parked : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let orphaned = ref 0 in
  for r = 0 to Layout.limbo_rows lay - 1 do
    let owner = peek (Layout.limbo_owner lay r) in
    if owner = Layout.limbo_orphaned then incr orphaned
    else if owner < 0 || owner > cfg.Config.max_clients then
      mism "limbo row %d: owner word %d names no client" r owner
    else if owner > 0 && peek (Layout.client_flags lay (owner - 1)) = 0 then
      mism "limbo row %d: owned by c%d whose slot is free" r (owner - 1);
    for k = 0 to Layout.limbo_row_entries - 1 do
      let rr = peek (Layout.limbo_rr lay r k) in
      if rr = 0 then ()
      else if owner = 0 then
        mism "limbo row %d: free row holds entry %d (rr @%d)" r k rr
      else if not (live_rootref mem lay rr) then begin
        acc.wild <- acc.wild + 1;
        err acc "limbo row %d[%d]: rr @%d is not a live rootref" r k rr
      end
      else if Rootref.peek_obj mem rr = 0 then
        mism "limbo row %d[%d]: rr @%d parks no object" r k rr
      else
        match Hashtbl.find_opt parked rr with
        | Some r' ->
            acc.dfree <- acc.dfree + 1;
            err acc "limbo row %d[%d]: rr @%d already parked in row %d" r k rr r'
        | None -> Hashtbl.replace parked rr r
    done
  done;
  let hint = peek (Layout.hdr_limbo_orphans lay) in
  if hint < !orphaned then
    mism "limbo: orphan count %d below the %d orphaned rows" hint !orphaned;

  (* ---- classify every block ---- *)
  let scan_pending seg =
    let st = seg_state seg in
    st = 2 || st = 3
    || (match seg_owner seg with Some c -> not (client_alive c) | None -> false)
  in
  for seg = 0 to cfg.Config.num_segments - 1 do
    let st = seg_state seg in
    if st = 4 || page_kind (Layout.page_gid lay ~seg ~page:0) = huge_kind then begin
      let obj = Layout.segment_base lay seg + lay.Layout.seg_hdr_words in
      let cnt = Obj_header.ref_cnt_of (peek obj) in
      if cnt > 0 then begin
        acc.live <- acc.live + 1;
        let exp = try Hashtbl.find expected obj with Not_found -> 0 in
        if cnt <> exp then begin
          acc.mism <- acc.mism + 1;
          err acc "huge object @%d: count %d but %d holders" obj cnt exp
        end;
        (* The head page's true-length word must agree with the packed
           meta field — which saturates at [Obj_header.max_meta_data_words]
           — and fit inside the claimed run. 0 is a legal pre-aux2 image. *)
        let gid0 = Layout.page_gid lay ~seg ~page:0 in
        let span = max 1 (peek (Layout.page_aux lay ~gid:gid0)) in
        let truth = peek (Layout.page_aux2 lay ~gid:gid0) in
        let meta_dw =
          Obj_header.meta_data_words (peek (Obj_header.meta_of_obj obj))
        in
        let max_dw =
          lay.Layout.segment_words - lay.Layout.seg_hdr_words
          + ((span - 1) * lay.Layout.segment_words)
          - Config.header_words
        in
        let truth_ok =
          truth = 0
          || (truth >= 1 && truth <= max_dw
             && (truth = meta_dw
                || (meta_dw = Obj_header.max_meta_data_words
                   && truth >= meta_dw)))
        in
        if not truth_ok then begin
          acc.mism <- acc.mism + 1;
          err acc "huge object @%d: true length %d disagrees with meta %d"
            obj truth meta_dw
        end
      end
      else if scan_pending seg then acc.pending <- acc.pending + 1
      else begin
        acc.leak <- acc.leak + 1;
        err acc "huge object @%d: count 0, not pending any scan" obj
      end
    end
    else if st <> 5 then
      for p = 0 to pps - 1 do
        let gid = Layout.page_gid lay ~seg ~page:p in
        let k = page_kind gid in
        if k <> Config.kind_unused && k <> huge_kind then
          List.iter
            (fun b ->
              let is_rr = k = rr_kind in
              let live =
                if is_rr then Rootref.peek_in_use mem b
                else Obj_header.ref_cnt_of (peek b) > 0
              in
              let in_free = Hashtbl.mem free_set b in
              if live && in_free then begin
                acc.dfree <- acc.dfree + 1;
                err acc "block @%d is both live and free" b
              end
              else if live then begin
                if is_rr then acc.live_rr <- acc.live_rr + 1
                else acc.live <- acc.live + 1;
                if not is_rr then begin
                  let cnt = Obj_header.ref_cnt_of (peek b) in
                  let exp = try Hashtbl.find expected b with Not_found -> 0 in
                  if cnt <> exp then begin
                    acc.mism <- acc.mism + 1;
                    err acc "object @%d: count %d but %d holders (%s)" b cnt exp
                      (String.concat ", "
                         (try Hashtbl.find holders b with Not_found -> []))
                  end
                end
              end
              else if in_free then acc.free <- acc.free + 1
              else if scan_pending seg then acc.pending <- acc.pending + 1
              else begin
                acc.leak <- acc.leak + 1;
                err acc "block @%d: count 0, off-list, segment %d not pending"
                  b seg
              end)
            (page_blocks gid)
      done
  done;

  {
    live_objects = acc.live;
    live_rootrefs = acc.live_rr;
    free_blocks = acc.free;
    pending_scan = acc.pending;
    leaks = acc.leak;
    double_frees = acc.dfree;
    wild_pointers = acc.wild;
    count_mismatches = acc.mism;
    errors = List.rev acc.errs;
  }
