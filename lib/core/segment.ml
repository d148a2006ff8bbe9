module Word = Cxlshm_shmem.Word

type state = Free | Active | Orphaned | Leaking | Huge_head | Huge_cont

let state_to_int = function
  | Free -> 0
  | Active -> 1
  | Orphaned -> 2
  | Leaking -> 3
  | Huge_head -> 4
  | Huge_cont -> 5

let state_of_word = function
  | 0 -> Some Free
  | 1 -> Some Active
  | 2 -> Some Orphaned
  | 3 -> Some Leaking
  | 4 -> Some Huge_head
  | 5 -> Some Huge_cont
  | _ -> None

let state_of_int n =
  match state_of_word n with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Segment.state_of_int: %d" n)

let owner (ctx : Ctx.t) s =
  let v = Ctx.load ctx (Layout.seg_occupied ctx.lay s) in
  if v = 0 then None else Some (v - 1)

let state (ctx : Ctx.t) s = state_of_int (Ctx.load ctx (Layout.seg_state ctx.lay s))
let set_state (ctx : Ctx.t) s st = Ctx.store ctx (Layout.seg_state ctx.lay s) (state_to_int st)
let version (ctx : Ctx.t) s = Ctx.load ctx (Layout.seg_version ctx.lay s)

let bump_version (ctx : Ctx.t) s =
  let v = Layout.seg_version ctx.lay s in
  Ctx.store ctx v (Ctx.load ctx v + 1)

let claim (ctx : Ctx.t) s =
  let occ = Layout.seg_occupied ctx.lay s in
  if Ctx.cas ctx occ ~expected:0 ~desired:(ctx.cid + 1) then begin
    bump_version ctx s;
    set_state ctx s Active;
    Ctx.cache_note_claim ctx s;
    true
  end
  else false

let adopt (ctx : Ctx.t) s =
  match owner ctx s with
  | None -> false
  | Some prev ->
      state ctx s = Orphaned
      && Ctx.cas ctx (Layout.seg_occupied ctx.lay s) ~expected:(prev + 1)
           ~desired:(ctx.cid + 1)
      && begin
           bump_version ctx s;
           set_state ctx s Active;
           Ctx.cache_note_claim ctx s;
           (* The orphan's pages arrive in every state: rebuild the page
              sets rather than sort them in one by one. *)
           Ctx.page_sets_drop ctx;
           true
         end

let release (ctx : Ctx.t) s =
  (* Drop any parked cross-client frees: the blocks die with the segment
     (release implies every block is count-zero), and a stale entry
     surviving into the next claimant's lifetime would feed the deferred
     drain a pointer into a since-reset page. *)
  Ctx.store ctx (Layout.seg_client_free ctx.lay s) 0;
  set_state ctx s Free;
  bump_version ctx s;
  Ctx.store ctx (Layout.seg_occupied ctx.lay s) 0;
  Ctx.cache_note_release ctx s

(* A POTENTIAL_LEAKING segment keeps its mark. Only the §5.3 full scan
   reclaims its count-zero off-list blocks; an adopter would make it Active
   and turn them into permanent leaks. *)
let orphan (ctx : Ctx.t) ~cid s =
  match owner ctx s with
  | Some o when o = cid && state ctx s <> Leaking -> set_state ctx s Orphaned
  | Some _ | None -> ()

let mark_leaking (ctx : Ctx.t) s = set_state ctx s Leaking

let owned_by (ctx : Ctx.t) ~cid =
  (* A client's own set comes from the cache mirror once populated (its
     [seg_occupied] words change only under its own CAS while it lives).
     Other clients and a cold context scan the dense table upward: one
     stream of lines, where a downward walk pays a random read per line. *)
  if cid = ctx.Ctx.cid && Ctx.cache_owned_known ctx then
    Ctx.cache_owned_list ctx
  else begin
    let n = (Ctx.cfg ctx).Config.num_segments in
    let rec go s acc =
      if s >= n then List.rev acc
      else go (s + 1) (if owner ctx s = Some cid then s :: acc else acc)
    in
    let segs = go 0 [] in
    if cid = ctx.Ctx.cid then Ctx.cache_install_owned ctx segs;
    segs
  end

(* Cross-client free stack. The head word packs a 16-bit tag with the block
   pointer; the tag increments on every pop-all, defeating ABA between a
   pusher's read of the head and its CAS. A free block's next pointer lives
   where its page's own free chain keeps it ({!Page.next_slot_offset}): the
   first data word of an object block (the header words stay zero so the
   §5.3 full scan still reads ref_cnt = 0), the pointer word of a RootRef.
   A RootRef is two words long, so the data-word offset would overwrite the
   next RootRef's in_use word. *)
let f_tag = Word.field ~shift:46 ~bits:16
let f_ptr = Word.field ~shift:0 ~bits:46

let next_slot ~rootref block =
  block + Page.next_slot_offset ~kind_rootref:rootref

let push_client_free (ctx : Ctx.t) ~seg ~rootref block =
  let head = Layout.seg_client_free ctx.lay seg in
  let rec loop () =
    let cur = Ctx.load ctx head in
    Ctx.store ctx (next_slot ~rootref block) (Word.get f_ptr cur);
    let desired = Word.set f_ptr cur block in
    if not (Ctx.cas ctx head ~expected:cur ~desired) then loop ()
  in
  loop ()

let pop_all_client_free (ctx : Ctx.t) ~seg =
  let head = Layout.seg_client_free ctx.lay seg in
  let rec swap () =
    let cur = Ctx.load ctx head in
    if Word.get f_ptr cur = 0 then 0
    else
      let tag = (Word.get f_tag cur + 1) land Word.max_value f_tag in
      let empty = Word.set f_tag (Word.set f_ptr cur 0) tag in
      if Ctx.cas ctx head ~expected:cur ~desired:empty then Word.get f_ptr cur
      else swap ()
  in
  let rootref p =
    Page.kind ctx ~gid:(Layout.page_gid_of_addr ctx.lay p)
    = Config.kind_rootref (Ctx.cfg ctx)
  in
  let rec walk p acc =
    if p = 0 then List.rev acc
    else walk (Ctx.load ctx (next_slot ~rootref:(rootref p) p)) (p :: acc)
  in
  walk (swap ()) []
