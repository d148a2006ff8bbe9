type report = { roots : int; marked : int; collected : int }

let collect (ctx : Ctx.t) =
  let read = Ctx.load ctx and lay = ctx.Ctx.lay in
  let m = Root_set.mark ~read lay ~wild:(fun _ _ -> ()) in
  (* Sweep: a positive count outside the marked set can never reach zero —
     cycle garbage. Zero its embedded slots without detaching (its peers
     are dying with it) and reclaim the block. *)
  let doomed = ref [] in
  Heap.iter_objects ~read lay (fun b ->
      if
        Obj_header.ref_cnt_of (read (Obj_header.header_of_obj b)) > 0
        && not (Hashtbl.mem m.Root_set.holders b)
      then doomed := b :: !doomed);
  List.iter
    (fun b ->
      let emb = Obj_header.meta_emb_cnt (read (Obj_header.meta_of_obj b)) in
      for i = 0 to emb - 1 do
        Ctx.store ctx (Obj_header.emb_slot b i) 0
      done)
    !doomed;
  List.iter (fun b -> Alloc.free_obj_block ctx b) !doomed;
  {
    roots = m.Root_set.roots;
    marked = Hashtbl.length m.Root_set.holders;
    collected = List.length !doomed;
  }
