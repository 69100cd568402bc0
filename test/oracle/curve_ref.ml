(* Reference scalar multiplies for Curve, and the small-order points the
   cofactored-rule tests put into signature commitments.

   [double_and_add] walks the scalar one bit at a time with the fast
   tier's own [add] and [double]: the oracle for the windowed paths
   (Strauss, the generator's comb). [scalar_mul_schoolbook] is the
   pre-Montgomery tier kept whole: the same extended-coordinate formulas
   over schoolbook modular arithmetic, where every field product pays a
   Knuth division, with p and the curve constant d derived here rather
   than read from Field or Curve. Points convert to and from the fast
   representation only at the boundary, so agreement checks the whole
   field and curve stack value for value. *)

module B = Sanctorum_crypto.Bignum
module Curve = Sanctorum_crypto.Curve
module Field = Sanctorum_crypto.Field

let double_and_add k p =
  let acc = ref Curve.identity in
  for i = B.bit_length k - 1 downto 0 do
    acc := Curve.double !acc;
    if B.test_bit k i then acc := Curve.add !acc p
  done;
  !acc

let m = B.sub (B.shift_left B.one 255) (B.of_int 19)
let mm a b = B.mod_mul a b ~m
let ma a b = B.mod_add a b ~m
let ms a b = Bignum_ref.mod_sub a b ~m

(* d = -121665/121666 mod p *)
let d = mm (B.sub m (B.of_int 121665)) (Bignum_ref.mod_inv (B.of_int 121666) ~m)
let two_d = ma d d

type spt = { sx : B.t; sy : B.t; sz : B.t; st : B.t }

let sidentity = { sx = B.zero; sy = B.one; sz = B.one; st = B.zero }

let sadd p q =
  let a = mm (ms p.sy p.sx) (ms q.sy q.sx) in
  let b = mm (ma p.sy p.sx) (ma q.sy q.sx) in
  let c = mm (mm p.st two_d) q.st in
  let dd = mm (ma p.sz p.sz) q.sz in
  let e = ms b a in
  let f = ms dd c in
  let g = ma dd c in
  let h = ma b a in
  { sx = mm e f; sy = mm g h; st = mm e h; sz = mm f g }

let sdouble p =
  let a = mm p.sx p.sx in
  let b = mm p.sy p.sy in
  let zz = mm p.sz p.sz in
  let c = ma zz zz in
  let h = ma a b in
  let xy = ma p.sx p.sy in
  let e = ms h (mm xy xy) in
  let g = ms a b in
  let f = ma c g in
  { sx = mm e f; sy = mm g h; st = mm e h; sz = mm f g }

let scalar_mul_schoolbook k p =
  let xa, ya = Curve.to_affine p in
  let x = Field.to_bignum xa and y = Field.to_bignum ya in
  let pt = { sx = x; sy = y; sz = B.one; st = mm x y } in
  let acc = ref sidentity in
  for i = B.bit_length k - 1 downto 0 do
    acc := sdouble !acc;
    if B.test_bit k i then acc := sadd !acc pt
  done;
  let r = !acc in
  let zi = Bignum_ref.mod_inv r.sz ~m in
  Curve.of_affine (Field.of_bignum (mm r.sx zi), Field.of_bignum (mm r.sy zi))

(* (0, -1) has order 2 and (sqrt(-1), 0) order 4: both satisfy
   -x^2 + y^2 = 1 + d x^2 y^2 because one coordinate is zero. *)
let order_2 = Curve.of_affine (Field.zero, Field.neg Field.one)

let order_4 =
  match Field.sqrt (Field.neg Field.one) with
  | Some i -> Curve.of_affine (i, Field.zero)
  | None -> assert false
