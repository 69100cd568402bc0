(* GF(2^255 - 19) in ref10's representation (Bernstein, Duif, Lange,
   Schwabe and Yang, "High-speed high-security signatures", CHES 2011).
   An element is ten signed limbs in radix 2^25.5: limb i weighs
   2^ceil(25.5 i), so even limbs hold 26 bits and odd limbs 25, and the
   value is the plain sum, with no Montgomery factor.

   Bounds. Every value this module returns has been through [carry],
   which leaves each even limb within 2^25 of zero and each odd limb
   within 2^24 + 2^11. A product column is then at most 124.5 · 2^50 <
   2^57 (column 0: ten limb products weighted 1, 19 or 38), far below
   OCaml's 2^62, and a sum or difference is carried before anything
   multiplies it, so no chain of operations can overflow.

   Values are not canonical: several limb vectors name one element.
   [freeze] computes the one below p, and equality, parity and the byte
   encoding all go through it. Nothing is updated in place, because
   fleet domains read the curve's base point and tables concurrently. *)

type t = int array

let p =
  (* 2^255 - 19 *)
  Bignum.sub (Bignum.shift_left Bignum.one 255) (Bignum.of_int 19)

let zero = Array.make 10 0
let one = [| 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 |]

(* Bit offset of limb i, and its width. *)
let offset = [| 0; 26; 51; 77; 102; 128; 153; 179; 204; 230; 255 |]
let width i = offset.(i + 1) - offset.(i)

(* ref10's carry chain. Each signed carry rounds its limb into
   [-2^25, 2^25) or [-2^24, 2^24), and the carry out of limb 9 re-enters
   limb 0 times 19, since 2^255 = 19 (mod p). Two chains interleave, as
   in ref10, so neighbouring steps can overlap. *)
let carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 =
  let c0 = (h0 + (1 lsl 25)) asr 26 in
  let h0 = h0 - (c0 lsl 26) and h1 = h1 + c0 in
  let c4 = (h4 + (1 lsl 25)) asr 26 in
  let h4 = h4 - (c4 lsl 26) and h5 = h5 + c4 in
  let c1 = (h1 + (1 lsl 24)) asr 25 in
  let h1 = h1 - (c1 lsl 25) and h2 = h2 + c1 in
  let c5 = (h5 + (1 lsl 24)) asr 25 in
  let h5 = h5 - (c5 lsl 25) and h6 = h6 + c5 in
  let c2 = (h2 + (1 lsl 25)) asr 26 in
  let h2 = h2 - (c2 lsl 26) and h3 = h3 + c2 in
  let c6 = (h6 + (1 lsl 25)) asr 26 in
  let h6 = h6 - (c6 lsl 26) and h7 = h7 + c6 in
  let c3 = (h3 + (1 lsl 24)) asr 25 in
  let h3 = h3 - (c3 lsl 25) and h4 = h4 + c3 in
  let c7 = (h7 + (1 lsl 24)) asr 25 in
  let h7 = h7 - (c7 lsl 25) and h8 = h8 + c7 in
  let c4 = (h4 + (1 lsl 25)) asr 26 in
  let h4 = h4 - (c4 lsl 26) and h5 = h5 + c4 in
  let c8 = (h8 + (1 lsl 25)) asr 26 in
  let h8 = h8 - (c8 lsl 26) and h9 = h9 + c8 in
  let c9 = (h9 + (1 lsl 24)) asr 25 in
  let h9 = h9 - (c9 lsl 25) and h0 = h0 + (19 * c9) in
  let c0 = (h0 + (1 lsl 25)) asr 26 in
  [| h0 - (c0 lsl 26); h1 + c0; h2; h3; h4; h5; h6; h7; h8; h9 |]

let add f g =
  match (f, g) with
  | ( [| f0; f1; f2; f3; f4; f5; f6; f7; f8; f9 |],
      [| g0; g1; g2; g3; g4; g5; g6; g7; g8; g9 |] ) ->
      carry (f0 + g0) (f1 + g1) (f2 + g2) (f3 + g3) (f4 + g4) (f5 + g5)
        (f6 + g6) (f7 + g7) (f8 + g8) (f9 + g9)
  | _ -> assert false

let sub f g =
  match (f, g) with
  | ( [| f0; f1; f2; f3; f4; f5; f6; f7; f8; f9 |],
      [| g0; g1; g2; g3; g4; g5; g6; g7; g8; g9 |] ) ->
      carry (f0 - g0) (f1 - g1) (f2 - g2) (f3 - g3) (f4 - g4) (f5 - g5)
        (f6 - g6) (f7 - g7) (f8 - g8) (f9 - g9)
  | _ -> assert false

let neg f = sub zero f

(* ref10's fe_mul: 100 limb products. Two odd limbs weigh one bit more
   than the odd weight their product lands on, hence the doubled odd f
   limbs, and a product at or above 2^255 folds back times 19. *)
let mul f g =
  match (f, g) with
  | ( [| f0; f1; f2; f3; f4; f5; f6; f7; f8; f9 |],
      [| g0; g1; g2; g3; g4; g5; g6; g7; g8; g9 |] ) ->
      let f1_2 = 2 * f1 and f3_2 = 2 * f3 and f5_2 = 2 * f5 in
      let f7_2 = 2 * f7 and f9_2 = 2 * f9 in
      let g1_19 = 19 * g1 and g2_19 = 19 * g2 and g3_19 = 19 * g3 in
      let g4_19 = 19 * g4 and g5_19 = 19 * g5 and g6_19 = 19 * g6 in
      let g7_19 = 19 * g7 and g8_19 = 19 * g8 and g9_19 = 19 * g9 in
      let h0 =
        (f0 * g0) + (f1_2 * g9_19) + (f2 * g8_19) + (f3_2 * g7_19)
        + (f4 * g6_19) + (f5_2 * g5_19) + (f6 * g4_19) + (f7_2 * g3_19)
        + (f8 * g2_19) + (f9_2 * g1_19)
      in
      let h1 =
        (f0 * g1) + (f1 * g0) + (f2 * g9_19) + (f3 * g8_19) + (f4 * g7_19)
        + (f5 * g6_19) + (f6 * g5_19) + (f7 * g4_19) + (f8 * g3_19)
        + (f9 * g2_19)
      in
      let h2 =
        (f0 * g2) + (f1_2 * g1) + (f2 * g0) + (f3_2 * g9_19) + (f4 * g8_19)
        + (f5_2 * g7_19) + (f6 * g6_19) + (f7_2 * g5_19) + (f8 * g4_19)
        + (f9_2 * g3_19)
      in
      let h3 =
        (f0 * g3) + (f1 * g2) + (f2 * g1) + (f3 * g0) + (f4 * g9_19)
        + (f5 * g8_19) + (f6 * g7_19) + (f7 * g6_19) + (f8 * g5_19)
        + (f9 * g4_19)
      in
      let h4 =
        (f0 * g4) + (f1_2 * g3) + (f2 * g2) + (f3_2 * g1) + (f4 * g0)
        + (f5_2 * g9_19) + (f6 * g8_19) + (f7_2 * g7_19) + (f8 * g6_19)
        + (f9_2 * g5_19)
      in
      let h5 =
        (f0 * g5) + (f1 * g4) + (f2 * g3) + (f3 * g2) + (f4 * g1) + (f5 * g0)
        + (f6 * g9_19) + (f7 * g8_19) + (f8 * g7_19) + (f9 * g6_19)
      in
      let h6 =
        (f0 * g6) + (f1_2 * g5) + (f2 * g4) + (f3_2 * g3) + (f4 * g2)
        + (f5_2 * g1) + (f6 * g0) + (f7_2 * g9_19) + (f8 * g8_19)
        + (f9_2 * g7_19)
      in
      let h7 =
        (f0 * g7) + (f1 * g6) + (f2 * g5) + (f3 * g4) + (f4 * g3) + (f5 * g2)
        + (f6 * g1) + (f7 * g0) + (f8 * g9_19) + (f9 * g8_19)
      in
      let h8 =
        (f0 * g8) + (f1_2 * g7) + (f2 * g6) + (f3_2 * g5) + (f4 * g4)
        + (f5_2 * g3) + (f6 * g2) + (f7_2 * g1) + (f8 * g0) + (f9_2 * g9_19)
      in
      let h9 =
        (f0 * g9) + (f1 * g8) + (f2 * g7) + (f3 * g6) + (f4 * g5) + (f5 * g4)
        + (f6 * g3) + (f7 * g2) + (f8 * g1) + (f9 * g0)
      in
      carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9
  | _ -> assert false

(* ref10's fe_sq: the 55 distinct products of a square, each cross term
   doubled once through the [_2] operands. *)
let square f =
  match f with
  | [| f0; f1; f2; f3; f4; f5; f6; f7; f8; f9 |] ->
      let f0_2 = 2 * f0 and f1_2 = 2 * f1 and f2_2 = 2 * f2 in
      let f3_2 = 2 * f3 and f4_2 = 2 * f4 and f5_2 = 2 * f5 in
      let f6_2 = 2 * f6 and f7_2 = 2 * f7 in
      let f5_38 = 38 * f5 and f6_19 = 19 * f6 and f7_38 = 38 * f7 in
      let f8_19 = 19 * f8 and f9_38 = 38 * f9 in
      let h0 =
        (f0 * f0) + (f1_2 * f9_38) + (f2_2 * f8_19) + (f3_2 * f7_38)
        + (f4_2 * f6_19) + (f5 * f5_38)
      in
      let h1 =
        (f0_2 * f1) + (f2 * f9_38) + (f3_2 * f8_19) + (f4 * f7_38)
        + (f5_2 * f6_19)
      in
      let h2 =
        (f0_2 * f2) + (f1_2 * f1) + (f3_2 * f9_38) + (f4_2 * f8_19)
        + (f5_2 * f7_38) + (f6 * f6_19)
      in
      let h3 =
        (f0_2 * f3) + (f1_2 * f2) + (f4 * f9_38) + (f5_2 * f8_19) + (f6 * f7_38)
      in
      let h4 =
        (f0_2 * f4) + (f1_2 * f3_2) + (f2 * f2) + (f5_2 * f9_38)
        + (f6_2 * f8_19) + (f7 * f7_38)
      in
      let h5 =
        (f0_2 * f5) + (f1_2 * f4) + (f2_2 * f3) + (f6 * f9_38) + (f7_2 * f8_19)
      in
      let h6 =
        (f0_2 * f6) + (f1_2 * f5_2) + (f2_2 * f4) + (f3_2 * f3) + (f7_2 * f9_38)
        + (f8 * f8_19)
      in
      let h7 =
        (f0_2 * f7) + (f1_2 * f6) + (f2_2 * f5) + (f3_2 * f4) + (f8 * f9_38)
      in
      let h8 =
        (f0_2 * f8) + (f1_2 * f7_2) + (f2_2 * f6) + (f3_2 * f5_2) + (f4 * f4)
        + (f9 * f9_38)
      in
      let h9 =
        (f0_2 * f9) + (f1_2 * f8) + (f2_2 * f7) + (f3_2 * f6) + (f4_2 * f5)
      in
      carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9
  | _ -> assert false

(* The representative below p, as ref10's fe_tobytes finds it. For a
   value at rest |h| < p, so h = q·p + r with q = -1 or 0; a carry pass
   seeded with limb 9's overflow times 19 computes q. Then h - q·p =
   h + 19q - q·2^255: add 19q, carry with floor division, and drop the
   final carry out of limb 9, which is the q·2^255. *)
let freeze f =
  let q = ref (((19 * f.(9)) + (1 lsl 24)) asr 25) in
  Array.iteri (fun i h -> q := (h + !q) asr width i) f;
  let h = Array.copy f in
  h.(0) <- h.(0) + (19 * !q);
  for i = 0 to 9 do
    if i < 9 then h.(i + 1) <- h.(i + 1) + (h.(i) asr width i);
    h.(i) <- h.(i) land ((1 lsl width i) - 1)
  done;
  h

let to_bytes_le f =
  let b = Buffer.create 32 in
  let acc = ref 0 and bits = ref 0 in
  Array.iteri
    (fun i limb ->
      acc := !acc lor (limb lsl !bits);
      bits := !bits + width i;
      while !bits >= 8 do
        Buffer.add_char b (Char.chr (!acc land 0xff));
        acc := !acc lsr 8;
        bits := !bits - 8
      done)
    (freeze f);
  Buffer.add_char b (Char.chr !acc);
  Buffer.contents b

(* Bit 255 is never read into a limb, so a string with it set, like one
   at or above p, differs from its own re-encoding. *)
let of_bytes_le s =
  let acc = ref 0 and bits = ref 0 and pos = ref 0 in
  let limb i =
    while !bits < width i do
      acc := !acc lor (Char.code s.[!pos] lsl !bits);
      bits := !bits + 8;
      incr pos
    done;
    let l = !acc land ((1 lsl width i) - 1) in
    acc := !acc lsr width i;
    bits := !bits - width i;
    l
  in
  if String.length s <> 32 then None
  else
    match Array.init 10 limb with
    | [| h0; h1; h2; h3; h4; h5; h6; h7; h8; h9 |] ->
        let f = carry h0 h1 h2 h3 h4 h5 h6 h7 h8 h9 in
        if String.equal (to_bytes_le f) s then Some f else None
    | _ -> assert false

let of_bignum x =
  Option.get (of_bytes_le (Bignum.to_bytes_le ~len:32 (Bignum.rem x p)))

let to_bignum x = Bignum.of_bytes_le (to_bytes_le x)
let of_int n = of_bignum (Bignum.of_int n)
let is_zero x = Array.for_all (fun l -> l = 0) (freeze x)
let equal a b = is_zero (sub a b)
let is_odd x = (freeze x).(0) land 1 = 1

let rec square_n x n = if n = 0 then x else square_n (square x) (n - 1)

(* ref10's addition chain for z^(2^250 - 1), the common prefix of the
   inversion and square-root exponents, returned with z^11. *)
let pow_2_250_1 z =
  let z2 = square z in
  let z9 = mul z (square_n z2 2) in
  let z11 = mul z2 z9 in
  let z_5_0 = mul z9 (square z11) in
  let z_10_0 = mul (square_n z_5_0 5) z_5_0 in
  let z_20_0 = mul (square_n z_10_0 10) z_10_0 in
  let z_40_0 = mul (square_n z_20_0 20) z_20_0 in
  let z_50_0 = mul (square_n z_40_0 10) z_10_0 in
  let z_100_0 = mul (square_n z_50_0 50) z_50_0 in
  let z_200_0 = mul (square_n z_100_0 100) z_100_0 in
  (mul (square_n z_200_0 50) z_50_0, z11)

(* z^(p-2) = z^(2^255 - 21): 254 squarings and 11 products. *)
let inv z =
  if is_zero z then invalid_arg "Field.inv: zero";
  let z_250_0, z11 = pow_2_250_1 z in
  mul (square_n z_250_0 5) z11

(* p = 5 (mod 8): the candidate root of a is a^((p+3)/8) = a^(2^252 - 2)
   = (a^(2^250 - 1))^4 · a^2. If its square is -a instead of a, multiply
   by sqrt(-1) = 2^((p-1)/4) = 2^(2^253 - 5), computed eagerly at module
   init: a [lazy] here would be forced concurrently by fleet domains. *)
let sqrt_minus_one = mul (square_n (fst (pow_2_250_1 (of_int 2))) 3) (of_int 8)

let sqrt a =
  let r = mul (square_n (fst (pow_2_250_1 a)) 2) (square a) in
  if equal (square r) a then Some r
  else
    let r' = mul r sqrt_minus_one in
    if equal (square r') a then Some r' else None
