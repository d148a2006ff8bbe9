module Mem = Cxlshm_shmem.Mem
module Stats = Cxlshm_shmem.Stats

type arena = { mem : Mem.t; lay : Layout.t; service : Ctx.t }

(* Resolve the configured backend against the layout: a striped pool with
   stripe_words = 0 stripes at segment granularity, so whole segments map to
   one device and the home-device claim preference is meaningful. The
   resolution recurses through a fault-injection wrapper. *)
let backend_of cfg lay =
  let rec resolve = function
    | Mem.Striped s when s.stripe_words = 0 ->
        Mem.Striped { s with stripe_words = lay.Layout.segment_words }
    | Mem.Faulty f -> Mem.Faulty { f with base = resolve f.base }
    | Mem.Sched b -> Mem.Sched (resolve b)
    | b -> b
  in
  resolve cfg.Config.backend

let mem_of cfg lay =
  Mem.create ~tier:cfg.Config.tier ~backend:(backend_of cfg lay)
    ~words:lay.Layout.total_words ()

(* The service context acts for other clients (recovery, fsck, scans):
   it must always read shared truth, never a client-local mirror, and it
   must never allocate, since the first client to join also gets cid 0. *)
let service_of mem lay =
  let ctx = Ctx.make ~cache:false ~epoch:false ~mem ~lay ~cid:0 () in
  ctx.Ctx.service <- true;
  ctx

let create ?(cfg = Config.default) () =
  let lay = Layout.make cfg in
  let mem = mem_of cfg lay in
  let service = service_of mem lay in
  (* Format the arena header; everything else starts zeroed. *)
  Mem.unsafe_poke mem (Layout.hdr_magic lay) Layout.magic;
  Mem.unsafe_poke mem (Layout.hdr_epoch lay) 1;
  { mem; lay; service }

let mem t = t.mem
let num_devices t = Mem.num_devices t.mem
let layout t = t.lay
let config t = t.lay.Layout.cfg
let service_ctx t = t.service
let join t ?cid () = Client.register ~mem:t.mem ~lay:t.lay ?cid ()
let leave ctx = Client.unregister ctx

let cxl_malloc ctx ~size_bytes ?(emb_cnt = 0) () =
  let data_words =
    Alloc.data_words_for (Ctx.cfg ctx) ~size_bytes ~emb_cnt
  in
  let data_words = max data_words 1 in
  let rr, _obj = Alloc.alloc_obj ctx ~data_words ~emb_cnt in
  Cxl_ref.of_rootref ctx rr

let cxl_malloc_words ctx ~data_words ?(emb_cnt = 0) () =
  if data_words < max emb_cnt 1 then
    invalid_arg "Shm.cxl_malloc_words: data_words too small";
  let rr, _obj = Alloc.alloc_obj ctx ~data_words ~emb_cnt in
  Cxl_ref.of_rootref ctx rr

let validate t = Validate.run t.mem t.lay
let fsck t = Fsck.repair t.service
let set_fault_injection t on = Mem.set_fault_injection t.mem on
let recover t ~failed_cid = Recovery.recover t.service ~failed_cid

let scan_leaking t =
  ignore (Limbo.drain t.service);
  Reclaim.scan_all t.service ~is_client_alive:(fun cid ->
      Client.is_alive t.service ~cid)

let monitor t ?id () = Monitor.create ~mem:t.mem ~lay:t.lay ?id ()

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Marshal.to_channel oc (config t) [];
      Marshal.to_channel oc (Mem.snapshot t.mem) [])

(* Re-attach without touching anything: no recovery, no leak scan. This is
   what fsck wants — the damage must still be there when it looks. *)
let load_raw ?cfg path =
  let ic = open_in_bin path in
  let saved_cfg, words =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let c : Config.t = Marshal.from_channel ic in
        let w : int array = Marshal.from_channel ic in
        (c, w))
  in
  let cfg = Option.value cfg ~default:saved_cfg in
  let lay = Layout.make cfg in
  if Array.length words <> lay.Layout.total_words then
    invalid_arg "Shm.load: image does not match the configuration";
  let mem = mem_of cfg lay in
  Mem.restore mem words;
  if Mem.unsafe_peek mem (Layout.hdr_magic lay) <> Layout.magic then
    invalid_arg "Shm.load: not a CXL-SHM pool image";
  { mem; lay; service = service_of mem lay }

let load ?cfg path =
  let t = load_raw ?cfg path in
  let cfg = t.lay.Layout.cfg in
  (* every client recorded alive in the image is gone: reap them *)
  (match Recovery.resume_interrupted t.service with Some _ -> () | None -> ());
  for cid = 0 to cfg.Config.max_clients - 1 do
    if Client.status t.service ~cid <> Client.Slot_free then begin
      Client.declare_failed t.service ~cid;
      ignore (Recovery.recover t.service ~failed_cid:cid)
    end
  done;
  ignore
    (Reclaim.scan_all t.service ~is_client_alive:(fun _ -> false));
  t

let free_segments t =
  let n = (config t).Config.num_segments in
  let count = ref 0 in
  for s = 0 to n - 1 do
    if Segment.owner t.service s = None then incr count
  done;
  !count
