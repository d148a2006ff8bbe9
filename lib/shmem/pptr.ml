type t = int

let null = 0
let is_null p = p = 0

let of_word_offset off =
  if off < 0 then invalid_arg "Pptr.of_word_offset: negative offset";
  off

let add p n = p + n