open Cxlshm
module Mem = Cxlshm_shmem.Mem

let flags_name = function
  | 0 -> "free"
  | 1 -> "alive"
  | 2 -> "failed"
  | 3 -> "suspected"
  | n -> Printf.sprintf "?%d" n

let pp_clients ppf (mem, lay) =
  let peek = Mem.unsafe_peek mem in
  let m = lay.Layout.cfg.Config.max_clients in
  Format.fprintf ppf "clients (%d slots):@." m;
  for cid = 0 to m - 1 do
    let flags = peek (Layout.client_flags lay cid) in
    if flags <> 0 then
      Format.fprintf ppf "  cid %-3d %-7s era=%-6d lease=%-6d hazard=%d@."
        cid (flags_name flags)
        (peek (Layout.era_cell lay cid cid))
        (peek (Layout.client_lease_deadline lay cid))
        (peek (Layout.client_hazard lay cid))
  done

let pp_era_matrix ppf (mem, lay) =
  let peek = Mem.unsafe_peek mem in
  let m = lay.Layout.cfg.Config.max_clients in
  let active =
    List.filter
      (fun cid -> peek (Layout.era_cell lay cid cid) > 0)
      (List.init m Fun.id)
  in
  Format.fprintf ppf "era matrix (rows with activity):@.      ";
  List.iter (fun j -> Format.fprintf ppf "%6d" j) active;
  Format.fprintf ppf "@.";
  List.iter
    (fun i ->
      Format.fprintf ppf "  %3d " i;
      List.iter
        (fun j -> Format.fprintf ppf "%6d" (peek (Layout.era_cell lay i j)))
        active;
      Format.fprintf ppf "@.")
    active

let seg_state_name = function
  | 0 -> "free"
  | 1 -> "active"
  | 2 -> "orphan"
  | 3 -> "leaking"
  | 4 -> "huge"
  | 5 -> "huge+"
  | n -> Printf.sprintf "?%d" n

let pp_segments ppf (mem, lay) =
  let peek = Mem.unsafe_peek mem in
  let cfg = lay.Layout.cfg in
  Format.fprintf ppf "segments (%d x %d words):@." cfg.Config.num_segments
    lay.Layout.segment_words;
  for s = 0 to cfg.Config.num_segments - 1 do
    let occ = peek (Layout.seg_occupied lay s) in
    let st = peek (Layout.seg_state lay s) in
    if occ <> 0 || st <> 0 then begin
      let kinds = Hashtbl.create 8 in
      for p = 0 to cfg.Config.pages_per_segment - 1 do
        let gid = Layout.page_gid lay ~seg:s ~page:p in
        let k = peek (Layout.page_kind lay ~gid) in
        if k <> 0 then
          Hashtbl.replace kinds k (1 + (try Hashtbl.find kinds k with Not_found -> 0))
      done;
      let pages =
        Hashtbl.fold (fun k n acc -> Printf.sprintf "%dx(kind %d)" n k :: acc) kinds []
      in
      Format.fprintf ppf "  seg %-3d %-8s owner=%-4s v%-3d pages: %s@." s
        (seg_state_name st)
        (if occ = 0 then "-" else string_of_int (occ - 1))
        (peek (Layout.seg_version lay s))
        (if pages = [] then "none" else String.concat " " pages)
    end
  done

let pp_queues ppf (mem, lay) =
  let refs = Transfer.directory_refs ~read:(Mem.unsafe_peek mem) lay in
  Format.fprintf ppf "queue directory: %d active slot(s)@." (List.length refs);
  List.iter (fun q -> Format.fprintf ppf "  queue object @%d@." q) refs

let pp_roots ppf (mem, lay) =
  let refs = Named_roots.directory_refs ~read:(Mem.unsafe_peek mem) lay in
  Format.fprintf ppf "named roots: %d entr(ies)@." (List.length refs);
  List.iter (fun p -> Format.fprintf ppf "  root object @%d@." p) refs

let pp_arena ppf ml =
  pp_clients ppf ml;
  pp_era_matrix ppf ml;
  pp_segments ppf ml;
  pp_queues ppf ml;
  pp_roots ppf ml

let summary mem lay =
  let peek = Mem.unsafe_peek mem in
  let cfg = lay.Layout.cfg in
  let alive = ref 0 in
  for cid = 0 to cfg.Config.max_clients - 1 do
    if peek (Layout.client_flags lay cid) = 1 then incr alive
  done;
  let owned = ref 0 and carved = ref 0 in
  for s = 0 to cfg.Config.num_segments - 1 do
    if peek (Layout.seg_occupied lay s) <> 0 then incr owned;
    for p = 0 to cfg.Config.pages_per_segment - 1 do
      let gid = Layout.page_gid lay ~seg:s ~page:p in
      if peek (Layout.page_kind lay ~gid) <> 0 then incr carved
    done
  done;
  Printf.sprintf "%d client(s) alive, %d/%d segment(s) owned, %d page(s) carved"
    !alive !owned cfg.Config.num_segments !carved
