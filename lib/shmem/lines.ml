type t = { tags : int array; mutable last : int }
type kind = Hit | Seq | Miss

let capacity = 16_384 (* ~1 MB of 64-B lines, an L2-ish window *)
let create () = { tags = Array.make capacity (-1); last = -1 }

let reset t =
  Array.fill t.tags 0 capacity (-1);
  t.last <- -1

(* inlined into [access], which every modeled word access calls *)
let[@inline] touch t line =
  let slot = line land (capacity - 1) in
  let hit = t.tags.(slot) = line in
  t.tags.(slot) <- line;
  t.last <- line;
  hit

let access t line =
  let seq = line = t.last || line = t.last + 1 in
  let cached = touch t line in
  if seq then Seq else if cached then Hit else Miss
