module Mem = Cxlshm_shmem.Mem
module Word = Cxlshm_shmem.Word

exception Name_taken of string
exception Directory_full

(* Slot word 0 packs {phase:2, owner_cid+1:10, name_hash:40}; word 1 is the
   counted object pointer (the ModifyRef target of publish/unpublish
   transactions). Phases: 0 free, 1 publishing, 2 published, 3 removing. *)
let f_phase = Word.field ~shift:0 ~bits:2
let f_owner = Word.field ~shift:2 ~bits:10
let f_hash = Word.field ~shift:12 ~bits:40

let pack ~phase ~owner ~hash =
  Word.set f_hash (Word.set f_owner (Word.set f_phase 0 phase) (owner + 1)) hash

let phase_of w = Word.get f_phase w
let owner_of w = Word.get f_owner w - 1
let hash_of w = Word.get f_hash w

let name_hash name = Hashtbl.hash (name, String.length name) land ((1 lsl 40) - 1)

let slot_state (ctx : Ctx.t) i = Layout.root_slot ctx.Ctx.lay i
let slot_ptr (ctx : Ctx.t) i = Layout.root_slot ctx.Ctx.lay i + 1

let find_hash (ctx : Ctx.t) h =
  let rec go i =
    if i >= Layout.root_slots then None
    else
      let w = Ctx.load ctx (slot_state ctx i) in
      if phase_of w = 2 && hash_of w = h then Some i else go (i + 1)
  in
  go 0

let publish (ctx : Ctx.t) ~name r =
  let h = name_hash name in
  if find_hash ctx h <> None then raise (Name_taken name);
  let rec claim i =
    if i >= Layout.root_slots then raise Directory_full
    else if
      Ctx.cas ctx (slot_state ctx i) ~expected:0
        ~desired:(pack ~phase:1 ~owner:ctx.Ctx.cid ~hash:h)
    then i
    else claim (i + 1)
  in
  let i = claim 0 in
  (* the directory takes a counted reference of its own *)
  Refc.attach ctx ~ref_addr:(slot_ptr ctx i) ~refed:(Cxl_ref.obj r);
  Ctx.fence ctx;
  Ctx.store ctx (slot_state ctx i) (pack ~phase:2 ~owner:ctx.Ctx.cid ~hash:h)

let lookup (ctx : Ctx.t) ~name =
  match find_hash ctx (name_hash name) with
  | None -> None
  | Some i ->
      let obj = Ctx.load ctx (slot_ptr ctx i) in
      if obj = 0 then None
      else begin
        let rr = Alloc.alloc_rootref ctx in
        Refc.attach ctx ~ref_addr:(Rootref.pptr_slot rr) ~refed:obj;
        Some (Cxl_ref.of_rootref ctx rr)
      end

let release_slot (ctx : Ctx.t) ~as_cid ~reclaim i =
  let obj = Ctx.load ctx (slot_ptr ctx i) in
  if obj <> 0 then
    Reclaim.release_as ctx ~as_cid ~reclaim ~ref_addr:(slot_ptr ctx i) ~obj;
  Ctx.store ctx (slot_state ctx i) 0

let unpublish (ctx : Ctx.t) ~name =
  match find_hash ctx (name_hash name) with
  | None -> false
  | Some i ->
      let w = Ctx.load ctx (slot_state ctx i) in
      if
        Ctx.cas ctx (slot_state ctx i) ~expected:w
          ~desired:(pack ~phase:3 ~owner:ctx.Ctx.cid ~hash:(hash_of w))
      then begin
        release_slot ctx ~as_cid:ctx.Ctx.cid
          ~reclaim:(Alloc.free_obj_block ctx) i;
        true
      end
      else false

let names_hashes (ctx : Ctx.t) =
  let rec go i acc =
    if i >= Layout.root_slots then List.rev acc
    else
      let w = Ctx.load ctx (slot_state ctx i) in
      go (i + 1) (if phase_of w = 2 then hash_of w :: acc else acc)
  in
  go 0 []

let recover_endpoints (ctx : Ctx.t) ~failed_cid ~reclaim =
  for i = 0 to Layout.root_slots - 1 do
    let w = Ctx.load ctx (slot_state ctx i) in
    if owner_of w = failed_cid then
      match phase_of w with
      | 1 | 3 ->
          (* died mid-publish (roll back) or mid-unpublish (complete):
             both reduce to dropping the slot's reference, if any, and
             freeing the slot — restart-safe because the detach resumes
             through the standard redo path and a re-run sees ptr = 0. *)
          release_slot ctx ~as_cid:failed_cid ~reclaim i
      | _ -> ()
  done

let directory_refs ~read lay =
  let rec go i acc =
    if i >= Layout.root_slots then List.rev acc
    else
      let w = read (Layout.root_slot lay i) in
      let p = read (Layout.root_slot lay i + 1) in
      go (i + 1) (if phase_of w <> 0 && p <> 0 then p :: acc else acc)
  in
  go 0 []

let clear_wild_directory_refs mem lay ~valid =
  let cleared = ref 0 in
  for i = 0 to Layout.root_slots - 1 do
    let w = Mem.unsafe_peek mem (Layout.root_slot lay i) in
    let p = Mem.unsafe_peek mem (Layout.root_slot lay i + 1) in
    if phase_of w <> 0 && p <> 0 && not (valid p) then begin
      Mem.unsafe_poke mem (Layout.root_slot lay i + 1) 0;
      Mem.unsafe_poke mem (Layout.root_slot lay i) 0;
      incr cleared
    end
  done;
  !cleared
