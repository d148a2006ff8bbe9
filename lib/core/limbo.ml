exception Exhausted

(* A row this handle owns; [live] counts its committed entries. *)
type row = { idx : int; mutable live : int }

type t = {
  ctx : Ctx.t;
  mutable rows : row list;
  mutable free : (row * int) list;  (** uncommitted entries of owned rows *)
  parked : (int * row * int * Cxl_ref.t) Queue.t;
      (** oldest first (an adopted row joins at the young end): retire
          stamp, row, entry, park reference *)
  mutable parks : int;  (** parks since the last row-filling park *)
}

let mutation_unconditional_quiesce = ref false
let mutation_crash_reap = ref false
let mutation_volatile_park = ref false
let mutation_no_advance = ref false

let create ctx =
  { ctx; rows = []; free = []; parked = Queue.create (); parks = 0 }

let count t = Queue.length t.parked
let nrows (ctx : Ctx.t) = Layout.limbo_rows ctx.Ctx.lay
let owner (ctx : Ctx.t) r = Layout.limbo_owner ctx.Ctx.lay r
let rr_word (ctx : Ctx.t) r k = Layout.limbo_rr ctx.Ctx.lay r k
let stamp_word (ctx : Ctx.t) r k = Layout.limbo_stamp ctx.Ctx.lay r k
let orphans (ctx : Ctx.t) = Layout.hdr_limbo_orphans ctx.Ctx.lay

(* Rows a handle keeps claimed across quiesce passes: its client's share
   of the pool. Rows beyond the share go back once they empty. *)
let share (ctx : Ctx.t) =
  ((Ctx.cfg ctx).Config.park_slots + Layout.limbo_row_entries - 1)
  / Layout.limbo_row_entries

(* The stamp of an entry committed before its unlink finished: it pins
   until an adopter re-stamps it, and no quiesce ever releases it. *)
let pending = max_int

(* Take over the committed entries of an adopted row. *)
let add_row t r =
  let row = { idx = r; live = 0 } in
  t.rows <- row :: t.rows;
  for k = Layout.limbo_row_entries - 1 downto 0 do
    let rr = Ctx.load t.ctx (rr_word t.ctx r k) in
    if rr = 0 then t.free <- (row, k) :: t.free
    else begin
      row.live <- row.live + 1;
      let stamp =
        match Ctx.load t.ctx (stamp_word t.ctx r k) with
        | s when s = pending ->
            (* The owner died between commit and stamp; any unlink it made
               happened before this load. *)
            let s = Hazard.retire_epoch t.ctx in
            Ctx.store t.ctx (stamp_word t.ctx r k) s;
            s
        | s -> s
      in
      Queue.push (stamp, row, k, Cxl_ref.of_rootref t.ctx rr) t.parked
    end
  done;
  row.live

(* Claim a free row with one CAS, starting at this client's share so
   clients rarely contend for the same row. *)
let claim_row t =
  let ctx = t.ctx in
  let n = nrows ctx in
  let home = ctx.Ctx.cid * n / (Ctx.cfg ctx).Config.max_clients in
  let rec go i =
    i < n
    &&
    let r = (home + i) mod n in
    (Ctx.load ctx (owner ctx r) = 0
    && Ctx.cas ctx (owner ctx r) ~expected:0 ~desired:(ctx.Ctx.cid + 1)
    && add_row t r = 0)
    || go (i + 1)
  in
  go 0

let clear t row k =
  Ctx.store t.ctx (rr_word t.ctx row.idx k) 0;
  row.live <- row.live - 1;
  t.free <- (row, k) :: t.free

let release_spare_rows t =
  let spare = ref (List.length t.rows - share t.ctx) in
  if !spare > 0 then begin
    let gone, kept =
      List.partition
        (fun row -> row.live = 0 && !spare > 0 && (decr spare; true))
        t.rows
    in
    List.iter (fun row -> Ctx.store t.ctx (owner t.ctx row.idx) 0) gone;
    t.rows <- kept;
    t.free <- List.filter (fun (row, _) -> not (List.memq row gone)) t.free
  end

(* Stamps are loads, so a reader that announces after an unlink may
   announce the stamp itself and pin the entry. When an announcement pins
   what a scan keeps, one advance makes every later announcement pass
   it. *)
let advance_if_pinned ctx pinned =
  if pinned && not !mutation_no_advance then Hazard.advance ctx

(* §5.4: release up to [max] of the oldest entries every announced reader
   era has passed; the entries kept stay in order. *)
let release_passed t ~max =
  let safe = Hazard.min_announced t.ctx in
  let kept = Queue.create () in
  let released = ref 0 in
  while !released < max && not (Queue.is_empty t.parked) do
    let ((stamp, row, k, pref) as e) = Queue.pop t.parked in
    if stamp < safe || !mutation_unconditional_quiesce then begin
      (* Entry first, reference second: a crash in between leaves an
         unparked live rootref for the rootref scan, whose release is safe
         because the era has already passed. *)
      clear t row k;
      Cxl_ref.drop pref;
      incr released
    end
    else Queue.push e kept
  done;
  advance_if_pinned t.ctx (not (Queue.is_empty kept));
  (* the kept entries, then the ones the bound left unvisited *)
  Queue.transfer t.parked kept;
  Queue.transfer kept t.parked

let quiesce t =
  release_passed t ~max:max_int;
  release_spare_rows t

let rec room l n = n <= 0 || match l with [] -> false | _ :: l -> room l (n - 1)

(* Entries one bounded release may free: two rows' worth. *)
let batch = 2 * Layout.limbo_row_entries

(* Claim rows freely up to the client's share; beyond it, release a
   bounded batch first and claim only what that could not free. *)
let reserve t n =
  while (not (room t.free n)) && List.length t.rows < share t.ctx && claim_row t do
    ()
  done;
  if not (room t.free n) then begin
    release_passed t ~max:batch;
    while not (room t.free n) do
      if not (claim_row t) then raise Exhausted
    done
  end

let park t pref ~unlink =
  reserve t 1;
  match t.free with
  | [] -> assert false
  | (row, k) :: rest ->
      t.free <- rest;
      row.live <- row.live + 1;
      let persist = not !mutation_volatile_park in
      if persist then begin
        Ctx.store t.ctx (stamp_word t.ctx row.idx k) pending;
        Ctx.fence t.ctx;
        Ctx.store t.ctx (rr_word t.ctx row.idx k) (Cxl_ref.rootref pref)
      end;
      Ctx.crash_point t.ctx Fault.Park_after_append;
      unlink ();
      (* Stamped after the unlink: every reader that can still reach the
         object announced this epoch or an older one. *)
      let stamp = Hazard.retire_epoch t.ctx in
      if persist then Ctx.store t.ctx (stamp_word t.ctx row.idx k) stamp;
      Queue.push (stamp, row, k, pref) t.parked;
      (* Releasing two rows per row parked keeps pace with parking while
         bounding what any one call frees. *)
      t.parks <- t.parks + 1;
      if t.parks = Layout.limbo_row_entries then begin
        t.parks <- 0;
        release_passed t ~max:batch
      end

let hand_off t send =
  if Queue.is_empty t.parked then 0
  else begin
    let parked = List.of_seq (Queue.to_seq t.parked) in
    let sent = send (List.map (fun (_, _, _, pref) -> pref) parked) in
    (* Exactly the first [sent] moved; the rest keep their entries and
       original stamps. *)
    Queue.clear t.parked;
    List.iteri
      (fun i ((_, row, k, pref) as e) ->
        if i < sent then begin
          clear t row k;
          Cxl_ref.drop pref
        end
        else Queue.push e t.parked)
      parked;
    sent
  end

let close t =
  ignore (hand_off t List.length);
  List.iter (fun row -> Ctx.store t.ctx (owner t.ctx row.idx) 0) t.rows;
  t.rows <- [];
  t.free <- []

(* Visit the orphaned rows, stopping once as many as the orphan count
   allows have been seen (the count never undercounts). *)
let orphaned_rows (ctx : Ctx.t) f =
  let bound = Ctx.load ctx (orphans ctx) in
  let rec go r seen =
    if seen < bound && r < nrows ctx then
      if Ctx.load ctx (owner ctx r) = Layout.limbo_orphaned then begin
        f r;
        go (r + 1) (seen + 1)
      end
      else go (r + 1) seen
  in
  go 0 0

let adopt t =
  let ctx = t.ctx in
  let n = ref 0 in
  orphaned_rows ctx (fun r ->
      if
        Ctx.cas ctx (owner ctx r) ~expected:Layout.limbo_orphaned
          ~desired:(ctx.Ctx.cid + 1)
      then begin
        ignore (Ctx.fetch_add ctx (orphans ctx) (-1));
        Ctx.crash_point ctx Fault.Adopt_after_claim;
        n := !n + add_row t r
      end);
  !n

let entries ~read lay r =
  List.filter_map
    (fun k ->
      let rr = read (Layout.limbo_rr lay r k) in
      if rr = 0 then None else Some (k, rr))
    (List.init Layout.limbo_row_entries Fun.id)

let live_entries (ctx : Ctx.t) r = entries ~read:(Ctx.load ctx) ctx.Ctx.lay r

let orphan_rows (ctx : Ctx.t) ~cid =
  let records = ref 0 in
  for r = 0 to nrows ctx - 1 do
    if Ctx.load ctx (owner ctx r) = cid + 1 then begin
      (* An entry whose rootref parks nothing pins nothing: a delete at
         the chain end died before its swap. Drop it; the rootref scan
         then frees the rootref as an incomplete allocation. *)
      let empty, live =
        List.partition (fun (_, rr) -> Rootref.obj ctx rr = 0) (live_entries ctx r)
      in
      List.iter (fun (k, _) -> Ctx.store ctx (rr_word ctx r k) 0) empty;
      match live with
      | [] -> Ctx.store ctx (owner ctx r) 0
      | live when !mutation_crash_reap ->
          (* The historical era-blind reap: free on sight. *)
          List.iter
            (fun (k, rr) ->
              Ctx.store ctx (rr_word ctx r k) 0;
              if Rootref.in_use ctx rr then Reclaim.release_rootref ctx rr)
            live;
          Ctx.store ctx (owner ctx r) 0
      | live ->
          (* Count first: a crash before the flip only overcounts. *)
          ignore (Ctx.fetch_add ctx (orphans ctx) 1);
          Ctx.store ctx (owner ctx r) Layout.limbo_orphaned;
          records := !records + List.length live
    end
  done;
  !records

let holders (ctx : Ctx.t) =
  let tbl = Hashtbl.create 16 in
  for r = 0 to nrows ctx - 1 do
    if Ctx.load ctx (owner ctx r) <> 0 then
      List.iter (fun (_, rr) -> Hashtbl.replace tbl rr ()) (live_entries ctx r)
  done;
  tbl

let peek_entries mem lay ~owner =
  let peek = Cxlshm_shmem.Mem.unsafe_peek mem in
  List.concat_map
    (fun r ->
      if peek (Layout.limbo_owner lay r) <> owner then []
      else
        List.map
          (fun (k, rr) -> (rr, peek (Layout.limbo_stamp lay r k)))
          (entries ~read:peek lay r))
    (List.init (Layout.limbo_rows lay) Fun.id)

(* A pending stamp counts as drainable: the drain's adoption re-stamps it.
   When every orphaned entry is pinned, the probe advances the epoch; a
   drain that adopts leaves that to its own quiesce. *)
let drain (probe : Ctx.t) =
  let drainable () =
    let safe = Hazard.min_announced probe in
    let found = ref false and pinned = ref false in
    orphaned_rows probe (fun r ->
        List.iter
          (fun (k, _) ->
            let stamp = Ctx.load probe (stamp_word probe r k) in
            if stamp < safe || stamp = pending then found := true
            else pinned := true)
          (live_entries probe r));
    advance_if_pinned probe (!pinned && not !found);
    !found
  in
  if Ctx.load probe (orphans probe) <= 0 || not (drainable ()) then 0
  else
    match Client.register ~mem:probe.Ctx.mem ~lay:probe.Ctx.lay () with
    | exception Failure _ -> 0
    | ctx ->
        let t = create ctx in
        let adopted = adopt t in
        quiesce t;
        let left = orphan_rows ctx ~cid:ctx.Ctx.cid in
        Client.unregister ctx;
        adopted - left
