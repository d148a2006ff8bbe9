let next_slot_offset ~kind_rootref = if kind_rootref then 1 else Config.header_words

(* Page-meta accessors go through the client-local cache tier: reads of an
   owned page's metadata are served from the DRAM mirror, every store is
   write-through (see {!Ctx.load_pm}/{!Ctx.store_pm}). Mirror slot numbers
   match the layout order kind/block_words/capacity/free/used. *)

let kind (ctx : Ctx.t) ~gid =
  Ctx.load_pm ctx ~gid ~slot:0 (Layout.page_kind ctx.lay ~gid)

let set_kind (ctx : Ctx.t) ~gid k =
  Ctx.store_pm ctx ~gid ~slot:0 (Layout.page_kind ctx.lay ~gid) k

let block_words (ctx : Ctx.t) ~gid =
  Ctx.load_pm ctx ~gid ~slot:1 (Layout.page_block_words ctx.lay ~gid)

let capacity (ctx : Ctx.t) ~gid =
  Ctx.load_pm ctx ~gid ~slot:2 (Layout.page_capacity ctx.lay ~gid)

let free_head (ctx : Ctx.t) ~gid =
  Ctx.load_pm ctx ~gid ~slot:3 (Layout.page_free ctx.lay ~gid)

let set_free_head (ctx : Ctx.t) ~gid v =
  Ctx.store_pm ctx ~gid ~slot:3 (Layout.page_free ctx.lay ~gid) v

let used (ctx : Ctx.t) ~gid =
  Ctx.load_pm ctx ~gid ~slot:4 (Layout.page_used ctx.lay ~gid)

let set_used (ctx : Ctx.t) ~gid n =
  Ctx.store_pm ctx ~gid ~slot:4 (Layout.page_used ctx.lay ~gid) n
let incr_used ctx ~gid = set_used ctx ~gid (used ctx ~gid + 1)
let decr_used ctx ~gid = set_used ctx ~gid (used ctx ~gid - 1)

let init (ctx : Ctx.t) ~gid ~kind:k ~block_words:bw =
  if bw < 2 then invalid_arg "Page.init: block_words < 2";
  let cfg = Ctx.cfg ctx in
  let cap = cfg.Config.page_words / bw in
  if cap < 1 then invalid_arg "Page.init: block larger than page";
  let base = Layout.page_area ctx.lay ~gid in
  let rootref = k = Config.kind_rootref cfg in
  let off = next_slot_offset ~kind_rootref:rootref in
  (* Chain every block to its successor; zero the words recovery scans
     (header word for data blocks, the in_use word for RootRefs). *)
  for i = 0 to cap - 1 do
    let b = base + (i * bw) in
    Ctx.store ctx b 0;
    if not rootref then Ctx.store ctx (b + 1) 0;
    Ctx.store ctx (b + off) (if i = cap - 1 then 0 else base + ((i + 1) * bw))
  done;
  Ctx.store_pm ctx ~gid ~slot:1 (Layout.page_block_words ctx.lay ~gid) bw;
  Ctx.store_pm ctx ~gid ~slot:2 (Layout.page_capacity ctx.lay ~gid) cap;
  set_used ctx ~gid 0;
  Ctx.fence ctx;
  set_free_head ctx ~gid base;
  Ctx.fence ctx;
  (* kind is published last: kind <> unused implies the chain is complete. *)
  set_kind ctx ~gid k

let reset (ctx : Ctx.t) ~gid =
  (* A quarantined page records bad media, not allocation state: the mark
     survives segment recycling so the page never re-enters service. Its
     other metadata is already zeroed. *)
  if kind ctx ~gid <> Config.kind_quarantined (Ctx.cfg ctx) then begin
    set_kind ctx ~gid Config.kind_unused;
    Ctx.fence ctx;
    set_free_head ctx ~gid 0;
    set_used ctx ~gid 0;
    Ctx.store_pm ctx ~gid ~slot:2 (Layout.page_capacity ctx.lay ~gid) 0;
    Ctx.store_pm ctx ~gid ~slot:1 (Layout.page_block_words ctx.lay ~gid) 0;
    Ctx.store ctx (Layout.page_aux ctx.lay ~gid) 0;
    Ctx.store ctx (Layout.page_aux2 ctx.lay ~gid) 0
  end

let push_free (ctx : Ctx.t) ~gid ~rootref block =
  let off = next_slot_offset ~kind_rootref:rootref in
  let head = free_head ctx ~gid in
  Ctx.store ctx (block + off) head;
  set_free_head ctx ~gid block;
  decr_used ctx ~gid;
  head = 0

let blocks (ctx : Ctx.t) ~gid =
  let bw = block_words ctx ~gid in
  let cap = capacity ctx ~gid in
  let base = Layout.page_area ctx.lay ~gid in
  List.init cap (fun i -> base + (i * bw))

let block_of_addr (ctx : Ctx.t) addr =
  let gid = Layout.page_gid_of_addr ctx.lay addr in
  let bw = block_words ctx ~gid in
  if bw = 0 then invalid_arg "Page.block_of_addr: page not initialised";
  let base = Layout.page_area ctx.lay ~gid in
  let idx = (addr - base) / bw in
  (base + (idx * bw), gid)
