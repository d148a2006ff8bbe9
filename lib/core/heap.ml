(* The arena's walk-level format (Fig 3), in one place: a segment holds
   either pages of one kind each (fixed-size class blocks, or RootRefs) or
   one huge run — a head segment plus continuation segments whose headers
   are part of the payload. Every segment-kind decision is made here,
   reading through a caller-supplied [read]: raw peeks for the offline
   tools, attributed loads for online callers. *)

type seg_class = Free | Class_pages | Huge_head | Huge_cont

let st_free = Segment.state_to_int Segment.Free
let st_head = Segment.state_to_int Segment.Huge_head
let st_cont = Segment.state_to_int Segment.Huge_cont

(* The state word settles [Huge_head] and [Huge_cont] outright; otherwise
   page 0's kind does. Leak-marking, orphaning and adoption overwrite a
   head's state but leave its kind, and every release resets the kind
   before the state returns to [Free] — the kind is published after the
   head state and retracted before it. So a huge page-0 kind means a run
   nobody has released, whatever the state word says. *)
let of_state lay st ~page0_kind =
  if st = st_head then Huge_head
  else if st = st_cont then Huge_cont
  else if page0_kind () = Config.kind_huge lay.Layout.cfg then Huge_head
  else if st = st_free then Free
  else Class_pages

let classify ~read lay seg =
  of_state lay (read (Layout.seg_state lay seg)) ~page0_kind:(fun () ->
      read (Layout.page_kind lay ~gid:(Layout.page_gid lay ~seg ~page:0)))

let is_plain = function
  | Free | Class_pages -> true
  | Huge_head | Huge_cont -> false

let huge_obj lay seg = Layout.segment_base lay seg + lay.Layout.seg_hdr_words

let huge_span ~read lay seg =
  max 1 (read (Layout.page_aux lay ~gid:(Layout.page_gid lay ~seg ~page:0)))

let huge_capacity lay ~span =
  lay.Layout.segment_words - lay.Layout.seg_hdr_words
  + ((span - 1) * lay.Layout.segment_words)
  - Config.header_words

(* The head page's true-length word must agree with the packed meta field
   — which saturates at [Obj_header.max_meta_data_words] — and fit inside
   the claimed run. 0 is a legal pre-aux2 image. *)
let huge_length_ok ~read lay seg =
  let gid0 = Layout.page_gid lay ~seg ~page:0 in
  let truth = read (Layout.page_aux2 lay ~gid:gid0) in
  let meta_dw =
    Obj_header.meta_data_words (read (Obj_header.meta_of_obj (huge_obj lay seg)))
  in
  truth = 0
  || truth >= 1
     && truth <= huge_capacity lay ~span:(huge_span ~read lay seg)
     && (truth = meta_dw
        || (meta_dw = Obj_header.max_meta_data_words && truth >= meta_dw))

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)
(* ------------------------------------------------------------------ *)

let block_capacity ~read lay p =
  if p <= 0 || p >= lay.Layout.total_words then None
  else
    match Layout.segment_of_addr lay p with
    | exception Invalid_argument _ -> None
    | seg -> (
        match classify ~read lay seg with
        | Huge_cont -> None
        | Huge_head ->
            if p <> huge_obj lay seg then None
            else Some (huge_capacity lay ~span:(huge_span ~read lay seg))
        | Free | Class_pages -> (
            match Layout.page_gid_of_addr lay p with
            | exception Invalid_argument _ -> None
            | gid ->
                let k = read (Layout.page_kind lay ~gid) in
                let bw = read (Layout.page_block_words lay ~gid) in
                let base = Layout.page_area lay ~gid in
                if
                  k <> Config.kind_unused
                  && k <> Config.kind_rootref lay.Layout.cfg
                  && bw > 0
                  && (p - base) mod bw = 0
                  && (p - base) / bw < read (Layout.page_capacity lay ~gid)
                then Some (bw - Config.header_words)
                else None))

let block_base_ok ~read lay p = block_capacity ~read lay p <> None

let live_rootref ~read lay rr =
  rr > 0 && rr < lay.Layout.total_words
  && (match Layout.page_gid_of_addr lay rr with
     | exception Invalid_argument _ -> false
     | gid ->
         read (Layout.page_kind lay ~gid) = Config.kind_rootref lay.Layout.cfg
         && (rr - Layout.page_area lay ~gid) mod Config.rootref_words = 0)
  && Rootref.in_use_of_word (read rr)

let page_blocks ~read lay gid =
  let bw = read (Layout.page_block_words lay ~gid) in
  let cap = read (Layout.page_capacity lay ~gid) in
  let base = Layout.page_area lay ~gid in
  if bw = 0 then [] else List.init cap (fun i -> base + (i * bw))

let iter_pages ~read lay seg f =
  for page = 0 to lay.Layout.cfg.Config.pages_per_segment - 1 do
    let gid = Layout.page_gid lay ~seg ~page in
    f gid (read (Layout.page_kind lay ~gid))
  done

let iter_class_blocks ~read lay seg f =
  iter_pages ~read lay seg (fun gid k ->
      if Config.class_of_kind lay.Layout.cfg k <> None then
        List.iter f (page_blocks ~read lay gid))

let iter_rootref_pages ~read lay seg f =
  let rr_kind = Config.kind_rootref lay.Layout.cfg in
  iter_pages ~read lay seg (fun gid k -> if k = rr_kind then f gid)

let iter_rootrefs ~read lay seg f =
  iter_rootref_pages ~read lay seg (fun gid ->
      List.iter f (page_blocks ~read lay gid))

let iter_segments ~read lay f =
  for seg = 0 to lay.Layout.cfg.Config.num_segments - 1 do
    f seg (classify ~read lay seg)
  done

let iter_objects ~read lay f =
  iter_segments ~read lay (fun seg -> function
    | Huge_head -> f (huge_obj lay seg)
    | Huge_cont -> ()
    | Free | Class_pages -> iter_class_blocks ~read lay seg f)
