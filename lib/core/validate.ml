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

let run mem lay =
  let cfg = lay.Layout.cfg in
  let peek = Mem.unsafe_peek mem in
  let acc =
    { live = 0; live_rr = 0; free = 0; pending = 0; leak = 0; dfree = 0; wild = 0;
      mism = 0; errs = [] }
  in
  let rr_kind = Config.kind_rootref cfg in
  let huge_kind = Config.kind_huge cfg in
  let page_kind gid = peek (Layout.page_kind lay ~gid) in
  let seg_owner s =
    let v = peek (Layout.seg_occupied lay s) in
    if v = 0 then None else Some (v - 1)
  in
  (* A suspected client may still be rescued by its own heartbeat, so its
     segments are not scan-pending. *)
  let client_alive c = Client.alive_flags (peek (Layout.client_flags lay c)) in
  let live_obj b = Obj_header.ref_cnt_of (peek b) > 0 in

  (* ---- collect reference holders ---- *)
  (* Every in-use RootRef, directory entry and embedded slot of a live
     object (reachable or not: a cycle's members hold each other). *)
  let expected : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let holders : (int, string list) Hashtbl.t = Hashtbl.create 256 in
  let add_ref holder obj =
    let from = Root_set.holder_name holder in
    if not (Heap.block_base_ok ~read:peek lay obj) then begin
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
  Root_set.iter_roots ~read:peek lay add_ref;
  Heap.iter_objects ~read:peek lay (fun obj ->
      if live_obj obj then Root_set.iter_embedded ~read:peek obj add_ref);

  (* ---- free structures ---- *)
  let free_set : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let add_free b where =
    if Hashtbl.mem free_set b then begin
      acc.dfree <- acc.dfree + 1;
      err acc "block @%d appears twice in free structures (%s)" b where
    end
    else Hashtbl.replace free_set b ()
  in
  Heap.iter_segments ~read:peek lay (fun seg -> function
    | Heap.Huge_head | Heap.Huge_cont -> ()
    | Heap.Free | Heap.Class_pages ->
        Heap.iter_pages ~read:peek lay seg (fun gid k ->
            if k <> Config.kind_unused && k <> huge_kind then begin
              let off = Page.next_slot_offset ~kind_rootref:(k = rr_kind) in
              let cap = peek (Layout.page_capacity lay ~gid) in
              let rec walk p fuel =
                if p <> 0 then
                  if fuel = 0 then begin
                    acc.dfree <- acc.dfree + 1;
                    err acc "free chain of page %d longer than capacity (cycle?)"
                      gid
                  end
                  else begin
                    add_free p (Printf.sprintf "page %d free chain" gid);
                    walk (peek (p + off)) (fuel - 1)
                  end
              in
              walk (peek (Layout.page_free lay ~gid)) (cap + 1)
            end);
        (* cross-client stack *)
        let f_ptr = Word.field ~shift:0 ~bits:46 in
        let rec walk p fuel =
          if p <> 0 && fuel > 0 then begin
            add_free p (Printf.sprintf "segment %d client_free" seg);
            let rr = page_kind (Layout.page_gid_of_addr lay p) = rr_kind in
            walk (peek (p + Page.next_slot_offset ~kind_rootref:rr)) (fuel - 1)
          end
        in
        walk (Word.get f_ptr (peek (Layout.seg_client_free lay seg))) 10_000);

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
      else if not (Heap.live_rootref ~read:peek lay rr) then begin
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
    let st = peek (Layout.seg_state lay seg) in
    st = Segment.state_to_int Segment.Orphaned
    || st = Segment.state_to_int Segment.Leaking
    || (match seg_owner seg with Some c -> not (client_alive c) | None -> false)
  in
  let check_count obj cnt what =
    let exp = try Hashtbl.find expected obj with Not_found -> 0 in
    if cnt <> exp then begin
      acc.mism <- acc.mism + 1;
      err acc "%s @%d: count %d but %d holders (%s)" what obj cnt exp
        (String.concat ", " (try Hashtbl.find holders obj with Not_found -> []))
    end
  in
  (* A count-zero block a pending scan covers, unless something still
     names it: then its count was taken from a live holder. *)
  let pending obj what =
    if Hashtbl.mem expected obj then check_count obj 0 what
    else acc.pending <- acc.pending + 1
  in
  Heap.iter_segments ~read:peek lay (fun seg -> function
    | Heap.Huge_cont -> ()
    | Heap.Huge_head ->
        let obj = Heap.huge_obj lay seg in
        let cnt = Obj_header.ref_cnt_of (peek obj) in
        if cnt > 0 then begin
          acc.live <- acc.live + 1;
          check_count obj cnt "huge object";
          if not (Heap.huge_length_ok ~read:peek lay seg) then begin
            acc.mism <- acc.mism + 1;
            err acc "huge object @%d: true length %d disagrees with meta %d" obj
              (peek (Layout.page_aux2 lay ~gid:(Layout.page_gid lay ~seg ~page:0)))
              (Obj_header.meta_data_words (peek (Obj_header.meta_of_obj obj)))
          end
        end
        else if scan_pending seg then pending obj "huge object"
        else begin
          acc.leak <- acc.leak + 1;
          err acc "huge object @%d: count 0, not pending any scan" obj
        end
    | Heap.Free | Heap.Class_pages ->
        Heap.iter_pages ~read:peek lay seg (fun gid k ->
            if k <> Config.kind_unused && k <> huge_kind then
              List.iter
                (fun b ->
                  let is_rr = k = rr_kind in
                  let live =
                    if is_rr then Rootref.peek_in_use mem b else live_obj b
                  in
                  let in_free = Hashtbl.mem free_set b in
                  if live && in_free then begin
                    acc.dfree <- acc.dfree + 1;
                    err acc "block @%d is both live and free" b
                  end
                  else if live then
                    if is_rr then acc.live_rr <- acc.live_rr + 1
                    else begin
                      acc.live <- acc.live + 1;
                      check_count b (Obj_header.ref_cnt_of (peek b)) "object"
                    end
                  else if in_free then acc.free <- acc.free + 1
                  else if scan_pending seg then pending b "object"
                  else begin
                    acc.leak <- acc.leak + 1;
                    err acc "block @%d: count 0, off-list, segment %d not pending"
                      b seg
                  end)
                (Heap.page_blocks ~read:peek lay gid)));

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
