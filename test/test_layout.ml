(* Layout geometry: region disjointness and bounds, as properties over
   random configurations. *)

open Cxlshm

let gen_cfg =
  QCheck.Gen.(
    let* max_clients = 2 -- 64 in
    let* num_segments = 1 -- 64 in
    let* pages_per_segment = 1 -- 16 in
    let* pw_exp = 4 -- 10 in
    let* queue_slots = 1 -- 32 in
    let* trace_slots = 16 -- 64 in
    let* epoch_batch = 0 -- 32 in
    let* park_slots = 1 -- 64 in
    return
      {
        Config.max_clients;
        num_segments;
        pages_per_segment;
        page_words = 1 lsl pw_exp;
        queue_slots;
        tier = Cxlshm_shmem.Latency.Cxl;
        backend = Cxlshm_shmem.Mem.Flat;
        trace = false;
        trace_slots;
        cache = true;
        epoch_batch;
        lease_ttl = 4;
        park_slots;
      })

let arb_cfg = QCheck.make gen_cfg

let prop_regions_ordered =
  QCheck.Test.make ~name:"layout regions ordered and disjoint" ~count:200
    arb_cfg (fun cfg ->
      let l = Layout.make cfg in
      l.Layout.arena_hdr > 0
      && l.Layout.segvec_base >= l.Layout.arena_hdr + 16
      && l.Layout.clientvec_base
         >= l.Layout.segvec_base + (Layout.seg_meta_words * cfg.Config.num_segments)
      && l.Layout.queuedir_base
         >= l.Layout.clientvec_base
            + (l.Layout.client_state_words * cfg.Config.max_clients)
      && l.Layout.recovery_base
         >= l.Layout.queuedir_base
            + (Layout.queue_slot_words * cfg.Config.queue_slots)
      && l.Layout.limbo_base
         >= l.Layout.recovery_base + Layout.recovery_area_words
      && Layout.limbo_rows l * Layout.limbo_row_entries
         >= cfg.Config.max_clients * cfg.Config.park_slots
      && Layout.limbo_owner l (Layout.limbo_rows l - 1)
         < Layout.limbo_stamp l 0 0
      && l.Layout.trace_base
         > Layout.limbo_rr l (Layout.limbo_rows l - 1)
             (Layout.limbo_row_entries - 1)
      && l.Layout.trace_ring_words
         >= Layout.trace_hdr_words
            + (Layout.trace_slot_words * cfg.Config.trace_slots)
      && l.Layout.segments_base
         >= l.Layout.trace_base
            + (l.Layout.trace_ring_words * cfg.Config.max_clients)
      && l.Layout.total_words
         = l.Layout.segments_base
           + (l.Layout.segment_words * cfg.Config.num_segments))

let prop_page_areas_inside_segment =
  QCheck.Test.make ~name:"page areas inside their segment" ~count:200 arb_cfg
    (fun cfg ->
      let l = Layout.make cfg in
      List.for_all
        (fun seg ->
          List.for_all
            (fun page ->
              let gid = Layout.page_gid l ~seg ~page in
              let a = Layout.page_area l ~gid in
              a >= Layout.segment_base l seg + l.Layout.seg_hdr_words
              && a + cfg.Config.page_words
                 <= Layout.segment_base l seg + l.Layout.segment_words)
            (List.init cfg.Config.pages_per_segment Fun.id))
        (List.init cfg.Config.num_segments Fun.id))

let prop_addr_roundtrips =
  QCheck.Test.make ~name:"segment/page of address round-trips" ~count:200
    arb_cfg (fun cfg ->
      let l = Layout.make cfg in
      List.for_all
        (fun seg ->
          Layout.segment_of_addr l (Layout.segment_base l seg) = seg
          && List.for_all
               (fun page ->
                 let gid = Layout.page_gid l ~seg ~page in
                 Layout.page_gid_of_addr l (Layout.page_area l ~gid) = gid
                 && Layout.page_of_gid l gid = (seg, page))
               (List.init cfg.Config.pages_per_segment Fun.id))
        (List.init cfg.Config.num_segments Fun.id))

let prop_era_cells_disjoint =
  QCheck.Test.make ~name:"era cells unique per (i,j)" ~count:50 arb_cfg
    (fun cfg ->
      let l = Layout.make cfg in
      let m = cfg.Config.max_clients in
      let seen = Hashtbl.create (m * m) in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to m - 1 do
          let c = Layout.era_cell l i j in
          if Hashtbl.mem seen c then ok := false;
          Hashtbl.replace seen c ()
        done
      done;
      !ok)

let test_class_geometry () =
  let cfg = Config.default in
  Alcotest.(check int) "min class" 4 (Config.class_block_words cfg 0);
  (* classes double up to the page size *)
  for c = 1 to Config.num_classes cfg - 1 do
    Alcotest.(check int)
      (Printf.sprintf "class %d" c)
      (2 * Config.class_block_words cfg (c - 1))
      (Config.class_block_words cfg c)
  done;
  (* every small size maps to the smallest fitting class *)
  for dw = 0 to Config.max_class_data_words cfg do
    match Config.class_of_data_words cfg dw with
    | Some c ->
        Alcotest.(check bool)
          (Printf.sprintf "%d words fit class %d" dw c)
          true
          (Config.class_block_words cfg c >= dw + Config.header_words
          && (c = 0
             || Config.class_block_words cfg (c - 1) < dw + Config.header_words))
    | None -> Alcotest.fail "size should have a class"
  done;
  Alcotest.(check (option int)) "too large has no class" None
    (Config.class_of_data_words cfg (Config.max_class_data_words cfg + 1))

let test_validate_rejects_bad_config () =
  Alcotest.check_raises "too many clients"
    (Invalid_argument "Config.validate: max_clients must be in [2, 1023]")
    (fun () -> Config.validate { Config.default with Config.max_clients = 2048 });
  Alcotest.check_raises "page not power of two"
    (Invalid_argument "Config.validate: page_words must be a power of two")
    (fun () -> Config.validate { Config.default with Config.page_words = 1000 })

(* [Config.default]'s region bases are pinned: segment bases feed the
   direct-mapped cache filter, so a moved region shifts every modeled
   number by aliasing alone. The reserve where the per-domain free-stack
   heads were and the recovery-area pad keep these until the filter goes
   set-associative (ROADMAP item 1). *)
let test_default_bases_pinned () =
  let l = Layout.make Config.default in
  Alcotest.(check int) "queuedir_base" 1344 l.Layout.queuedir_base;
  Alcotest.(check int) "limbo_base" 3024 l.Layout.limbo_base;
  Alcotest.(check int) "trace_base" 11728 l.Layout.trace_base;
  Alcotest.(check int) "segments_base" 32336 l.Layout.segments_base

let suite =
  [
    Generators.to_alcotest prop_regions_ordered;
    Generators.to_alcotest prop_page_areas_inside_segment;
    Generators.to_alcotest prop_addr_roundtrips;
    Generators.to_alcotest prop_era_cells_disjoint;
    Alcotest.test_case "size-class geometry" `Quick test_class_geometry;
    Alcotest.test_case "config validation" `Quick test_validate_rejects_bad_config;
    Alcotest.test_case "default region bases pinned" `Quick
      test_default_bases_pinned;
  ]
