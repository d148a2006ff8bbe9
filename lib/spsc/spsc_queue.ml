module Mem = Cxlshm_shmem.Mem

(* Layout: +0 magic, +1 capacity, +2 head, +3 tail, +8.. slots.
   Head/tail are monotonically increasing; slot = index mod capacity. *)
let magic = 0x5053_5143 (* "SPSC" *)
let hdr_words = 8

type t = { mem : Mem.t; base : int; cap : int }

let words_needed ~capacity = hdr_words + capacity

let create mem ~st ~lines ~base ~capacity =
  if capacity < 1 then invalid_arg "Spsc_queue.create: capacity must be >= 1";
  Mem.store mem ~st ~lines (base + 1) capacity;
  Mem.store mem ~st ~lines (base + 2) 0;
  Mem.store mem ~st ~lines (base + 3) 0;
  Mem.fence mem ~st;
  Mem.store mem ~st ~lines base magic;
  { mem; base; cap = capacity }

let attach mem ~st ~lines ~base =
  if Mem.load mem ~st ~lines base <> magic then
    invalid_arg "Spsc_queue.attach: no queue at this address";
  let cap = Mem.load mem ~st ~lines (base + 1) in
  (* A corrupt header with the magic intact would otherwise surface later
     as Division_by_zero in [slot]. *)
  if cap < 1 then invalid_arg "Spsc_queue.attach: corrupt capacity";
  { mem; base; cap }

let capacity t = t.cap
let head t ~st ~lines = Mem.load t.mem ~st ~lines (t.base + 2)
let tail t ~st ~lines = Mem.load t.mem ~st ~lines (t.base + 3)
let slot t i = t.base + hdr_words + (i mod t.cap)

let try_push t ~st ~lines v =
  let tl = tail t ~st ~lines in
  if tl - head t ~st ~lines >= t.cap then false
  else begin
    Mem.store t.mem ~st ~lines (slot t tl) v;
    Mem.fence t.mem ~st;
    Mem.store t.mem ~st ~lines (t.base + 3) (tl + 1);
    true
  end

(* Mutation self-check switch: re-introduces the missing-fence pop bug this
   queue shipped with for two PRs. OCaml atomics are sequentially
   consistent, so simply deleting the fence below would change nothing in
   simulation — instead the mutation applies the reordering the missing
   fence *permits* on real hardware: the head store is issued before the
   slot read, so the producer can reuse the slot while the consumer still
   holds a stale value. Test-only; never set outside the explorer. *)
let mutation_unfenced_pop = ref false

let try_pop t ~st ~lines =
  let hd = head t ~st ~lines in
  if hd = tail t ~st ~lines then None
  else if !mutation_unfenced_pop then begin
    Mem.store t.mem ~st ~lines (t.base + 2) (hd + 1);
    Some (Mem.load t.mem ~st ~lines (slot t hd))
  end
  else begin
    let v = Mem.load t.mem ~st ~lines (slot t hd) in
    (* The slot read must complete before the head store publishes the slot
       back to the producer, mirroring the fence in [try_push]; without it
       the producer may overwrite the slot while we still hold a stale [v]. *)
    Mem.fence t.mem ~st;
    Mem.store t.mem ~st ~lines (t.base + 2) (hd + 1);
    Some v
  end

(* Multi-slot variants: same protocol, one fence and one index store for
   the whole batch. The single fence is sufficient because the slots are
   filled (resp. read) strictly before the one tail (resp. head) store that
   publishes them — a consumer can never observe a slot the fence has not
   ordered. *)

let try_push_n t ~st ~lines vs =
  match vs with
  | [] -> 0
  | _ ->
      let tl = tail t ~st ~lines in
      let room = t.cap - (tl - head t ~st ~lines) in
      if room <= 0 then 0
      else begin
        let n = ref 0 in
        List.iteri
          (fun i v ->
            if i < room then begin
              Mem.store t.mem ~st ~lines (slot t (tl + i)) v;
              incr n
            end)
          vs;
        Mem.fence t.mem ~st;
        Mem.store t.mem ~st ~lines (t.base + 3) (tl + !n);
        !n
      end

let try_pop_n t ~st ~lines ~max =
  if max <= 0 then []
  else
    let hd = head t ~st ~lines in
    let n = min max (tail t ~st ~lines - hd) in
    if n <= 0 then []
    else begin
      let load i = Mem.load t.mem ~st ~lines (slot t (hd + i)) in
      let vs = List.init n load in
      Mem.fence t.mem ~st;
      Mem.store t.mem ~st ~lines (t.base + 2) (hd + n);
      vs
    end

let rec push t ~st ~lines v =
  if not (try_push t ~st ~lines v) then begin
    Domain.cpu_relax ();
    push t ~st ~lines v
  end

let rec pop t ~st ~lines =
  match try_pop t ~st ~lines with
  | Some v -> v
  | None ->
      Domain.cpu_relax ();
      pop t ~st ~lines

let length t ~st ~lines = tail t ~st ~lines - head t ~st ~lines
