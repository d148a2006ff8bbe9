(* The arena's root set and the mark from it. It sits above [Transfer] and
   [Named_roots], whose directories hold roots; the format it walks is
   [Heap]'s. *)

type holder =
  | Rootref of int
  | Queue_directory
  | Named_root
  | Embedded of int * int

let holder_name = function
  | Rootref rr -> Printf.sprintf "rootref@%d" rr
  | Queue_directory -> "queue-directory"
  | Named_root -> "named-root"
  | Embedded (obj, i) -> Printf.sprintf "emb@%d[%d]" obj i

let iter_roots ~read lay f =
  Heap.iter_segments ~read lay (fun seg cls ->
      if Heap.is_plain cls then
        Heap.iter_rootrefs ~read lay seg (fun rr ->
            if Rootref.in_use_of_word (read rr) then begin
              let obj = read (Rootref.pptr_slot rr) in
              if obj <> 0 then f (Rootref rr) obj
            end));
  List.iter (f Queue_directory) (Transfer.directory_refs ~read lay);
  List.iter (f Named_root) (Named_roots.directory_refs ~read lay)

let iter_embedded ~read obj f =
  let emb = Obj_header.meta_emb_cnt (read (Obj_header.meta_of_obj obj)) in
  for i = 0 to emb - 1 do
    let w = read (Obj_header.emb_slot obj i) in
    if w <> 0 then f (Embedded (obj, i)) w
  done

type marks = { roots : int; holders : (int, int) Hashtbl.t }

let mark ~read lay ~wild =
  let holders = Hashtbl.create 256 in
  let work = Queue.create () in
  let add holder p =
    if not (Heap.block_base_ok ~read lay p) then wild holder p
    else
      match Hashtbl.find_opt holders p with
      | Some n -> Hashtbl.replace holders p (n + 1)
      | None ->
          Hashtbl.replace holders p 1;
          Queue.push p work
  in
  let roots = ref 0 in
  iter_roots ~read lay (fun h p ->
      incr roots;
      add h p);
  while not (Queue.is_empty work) do
    iter_embedded ~read (Queue.pop work) add
  done;
  { roots = !roots; holders }
