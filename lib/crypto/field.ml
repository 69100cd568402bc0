(* GF(2^255 - 19) in Montgomery form. A field element is a Bignum
   residue x·R mod p (R = 2^260 for the ten-limb prime), so every
   multiply goes through the division-free CIOS path of {!Bignum.Mont}
   instead of a generic [rem]. Addition, subtraction and equality work
   on residues unchanged because the Montgomery map is linear and
   residues are kept canonical (< p). *)

let p =
  (* 2^255 - 19 *)
  Bignum.sub (Bignum.shift_left Bignum.one 255) (Bignum.of_int 19)

let ctx = Bignum.Mont.create p

type t = Bignum.t

let zero = Bignum.zero
let one = Bignum.Mont.one_m ctx
let of_bignum x = Bignum.Mont.to_mont ctx x
let to_bignum x = Bignum.Mont.of_mont ctx x
let of_int n = of_bignum (Bignum.of_int n)

let of_bytes_le s =
  let x = Bignum.of_bytes_le s in
  if Bignum.compare x p < 0 then Some (of_bignum x) else None

let to_bytes_le x = Bignum.to_bytes_le ~len:32 (to_bignum x)
let equal = Bignum.equal
let is_zero = Bignum.is_zero
let is_odd x = not (Bignum.is_even (to_bignum x))
let add a b = Bignum.mod_add a b ~m:p
let sub a b = Bignum.mod_sub a b ~m:p
let neg a = if Bignum.is_zero a then a else Bignum.sub p a
let mul a b = Bignum.Mont.mont_mul ctx a b
let square a = mul a a

let pow b e =
  let acc = ref one in
  for i = Bignum.bit_length e - 1 downto 0 do
    acc := square !acc;
    if Bignum.test_bit e i then acc := mul !acc b
  done;
  !acc

let inv a =
  if is_zero a then invalid_arg "Field.inv: zero";
  pow a (Bignum.sub p Bignum.two)

(* p ≡ 5 (mod 8): candidate r = a^((p+3)/8). If r^2 = -a, multiply by
   sqrt(-1) = 2^((p-1)/4). Computed eagerly at module init — a [lazy]
   here would be forced concurrently by fleet domains. *)
let sqrt_minus_one =
  pow (of_int 2) (Bignum.shift_right (Bignum.sub p Bignum.one) 2)

let sqrt a =
  if is_zero a then Some zero
  else begin
    let e = Bignum.shift_right (Bignum.add p (Bignum.of_int 3)) 3 in
    let r = pow a e in
    if equal (square r) a then Some r
    else begin
      let r' = mul r sqrt_minus_one in
      if equal (square r') a then Some r' else None
    end
  end

let pp ppf x = Bignum.pp ppf (to_bignum x)
