let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  if not (is_power_of_two n) then invalid_arg "Bits.log2: not a power of two";
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  go 0 n

let align_up x a =
  assert (is_power_of_two a);
  (x + a - 1) land lnot (a - 1)

let align_down x a =
  assert (is_power_of_two a);
  x land lnot (a - 1)

let extract x ~lo ~width = (x lsr lo) land ((1 lsl width) - 1)

let sign_extend x ~width =
  let m = 1 lsl (width - 1) in
  let x = x land ((1 lsl width) - 1) in
  (x lxor m) - m
