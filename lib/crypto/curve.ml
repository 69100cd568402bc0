(* Extended twisted Edwards coordinates (X : Y : Z : T) with
   x = X/Z, y = Y/Z, T = XY/Z. The a = -1 formulas below are complete:
   they are correct for every pair of inputs, including doublings and
   the identity, so no special cases leak timing.

   The operation counts are ref10's (Bernstein, Duif, Lange, Schwabe
   and Yang, CHES 2011). An addition or a doubling first computes a
   [completed] point, from which X, Y and Z cost three products and T a
   fourth, so a doubling that only feeds another doubling skips T: 4
   squares and 3 products. An addend kept in [cached] form
   (Y+X, Y-X, 2d·T, 2Z) makes an addition 8 products, one in [affine]
   form (y+x, y-x, 2d·xy, with Z = 1) 7. *)

(* [enc] memoizes the 64-byte affine encoding: computing it costs a
   field inversion, and the signature paths encode the same long-lived
   points (a public key, a decoded commitment) over and over. The cache
   is write-once with a deterministic value, so a racing fleet domain
   can only ever store the same bytes. *)
type point = {
  x : Field.t;
  y : Field.t;
  z : Field.t;
  t : Field.t;
  mutable enc : string option;
}

(* The point (E·F : G·H : F·G) with T = E·H. *)
type completed = { e : Field.t; f : Field.t; g : Field.t; h : Field.t }

(* (Y+X, Y-X, 2d·T, 2Z) and, with Z = 1, (y+x, y-x, 2d·xy). *)
type cached = { ypx : Field.t; ymx : Field.t; t2d : Field.t; z2 : Field.t }
type affine = { ypx : Field.t; ymx : Field.t; xy2d : Field.t }

let order =
  Bignum.add
    (Bignum.shift_left Bignum.one 252)
    (Bignum.of_decimal "27742317777372353535851937790883648493")

let d =
  (* -121665/121666 mod p *)
  Field.mul
    (Field.neg (Field.of_int 121665))
    (Field.inv (Field.of_int 121666))

let two_d = Field.add d d
let identity =
  { x = Field.zero; y = Field.one; z = Field.one; t = Field.zero; enc = None }

let is_on_curve_affine (x, y) =
  (* -x^2 + y^2 = 1 + d x^2 y^2 *)
  let x2 = Field.square x and y2 = Field.square y in
  Field.equal
    (Field.sub y2 x2)
    (Field.add Field.one (Field.mul d (Field.mul x2 y2)))

let to_affine p =
  let zi = Field.inv p.z in
  (Field.mul p.x zi, Field.mul p.y zi)

let of_affine (x, y) =
  if not (is_on_curve_affine (x, y)) then
    invalid_arg "Curve.of_affine: point not on curve";
  { x; y; z = Field.one; t = Field.mul x y; enc = None }

let is_on_curve p = is_on_curve_affine (to_affine p)

let to_point { e; f; g; h } =
  Field.{ x = mul e f; y = mul g h; z = mul f g; t = mul e h; enc = None }

let cached { x; y; z; t; _ } : cached =
  Field.{ ypx = add y x; ymx = sub y x; t2d = mul t two_d; z2 = add z z }

(* Every addition: a = (Y1-X1)(Y2-X2), b = (Y1+X1)(Y2+X2),
   c = 2d·T1·T2, and [zz] = 2·Z1·Z2, which an affine addend makes a
   field addition. *)
let sum { x; y; t; _ } ypx ymx t2d zz =
  let a = Field.mul (Field.sub y x) ymx and b = Field.mul (Field.add y x) ypx in
  let c = Field.mul t t2d in
  Field.{ e = sub b a; f = sub zz c; g = add zz c; h = add b a }

let add_cached p (q : cached) = sum p q.ypx q.ymx q.t2d (Field.mul p.z q.z2)
let add_affine p (q : affine) = sum p q.ypx q.ymx q.xy2d (Field.add p.z p.z)
let add p q = to_point (add_cached p (cached q))

(* 2·(X : Y : Z): T is not read. *)
let dbl x y z =
  let a = Field.square x and b = Field.square y and zz = Field.square z in
  let h = Field.add a b and g = Field.sub a b in
  Field.{ e = sub h (square (add x y)); f = add (add zz zz) g; g; h }

let double p = to_point (dbl p.x p.y p.z)
let double_completed { e; f; g; h } = Field.(dbl (mul e f) (mul g h) (mul f g))
let negate p = { p with x = Field.neg p.x; t = Field.neg p.t; enc = None }

let equal p q =
  (* x1/z1 = x2/z2 and y1/z1 = y2/z2, cross-multiplied. *)
  Field.equal (Field.mul p.x q.z) (Field.mul q.x p.z)
  && Field.equal (Field.mul p.y q.z) (Field.mul q.y p.z)

let base =
  let y = Field.mul (Field.of_int 4) (Field.inv (Field.of_int 5)) in
  let y2 = Field.square y in
  let x2 =
    Field.mul
      (Field.sub y2 Field.one)
      (Field.inv (Field.add (Field.mul d y2) Field.one))
  in
  match Field.sqrt x2 with
  | None -> assert false
  | Some x ->
      let x = if Field.is_odd x then Field.neg x else x in
      of_affine (x, y)

(* ------------------------------------------------------------------ *)
(* Variable-base multiplication. [multi_scalar_mul] is the Strauss
   trick: one doubling chain shared by all terms. Each scalar is
   recoded into width-5 signed digits (wNAF): odd digits below 16 in
   magnitude, each followed by at least four zeros, so a b-bit scalar
   costs about b/6 additions against a table of P, 3P, ..., 15P and
   their negations (7 additions to build; negating a cached point is
   free). A 128-bit batch coefficient then costs about 22 additions, and
   a variable-base [scalar_mul] is the one-term case. *)

let signed_digits k =
  let n = Bignum.bit_length k in
  let bit i = Bool.to_int (Bignum.test_bit k i) in
  let digits = Array.make (n + 1) 0 in
  (* [carry] is 1 after a negative digit: the window borrowed 32. *)
  let rec go i carry len =
    if i > n then Array.sub digits 0 len
    else
      let b = bit i + carry in
      if b land 1 = 0 then go (i + 1) (b lsr 1) len
      else
        let w = b + (bit (i + 1) lsl 1) + (bit (i + 2) lsl 2) in
        let w = w + (bit (i + 3) lsl 3) + (bit (i + 4) lsl 4) in
        digits.(i) <- (if w < 16 then w else w - 32);
        go (i + 5) (w lsr 4) (i + 1)
  in
  go 0 0 0

(* Entry (d + 15) / 2 is d·P for odd d in [-15, 15]. *)
let odd_multiples p =
  let p2 = cached (double p) in
  let tbl = Array.make 16 (cached p) in
  let cur = ref p in
  for j = 9 to 15 do
    cur := to_point (add_cached !cur p2);
    tbl.(j) <- cached !cur
  done;
  for j = 0 to 7 do
    let q = tbl.(15 - j) in
    tbl.(j) <- { q with ypx = q.ymx; ymx = q.ypx; t2d = Field.neg q.t2d }
  done;
  tbl

let multi_scalar_mul terms =
  let terms =
    List.map (fun (k, p) -> (signed_digits k, odd_multiples p)) terms
  in
  let top = List.fold_left (fun m (ds, _) -> max m (Array.length ds)) 0 terms in
  let acc =
    ref { e = Field.zero; f = Field.one; g = Field.one; h = Field.one }
  in
  for i = top - 1 downto 0 do
    acc := double_completed !acc;
    List.iter
      (fun (ds, tbl) ->
        if i < Array.length ds && ds.(i) <> 0 then
          acc := add_cached (to_point !acc) tbl.((ds.(i) + 15) asr 1))
      terms
  done;
  to_point !acc

let scalar_mul k p = multi_scalar_mul [ (k, p) ]

(* The generator's comb: row i holds j·2^(8i)·B for j = 1..255 in
   affine form, so [scalar_mul_base] is one 7-product addition per
   nonzero byte of the scalar and no doubling. A row is built with
   cached additions and made affine with one inversion (Montgomery's
   trick: invert the product of every Z, then peel each factor off).
   Eager, not lazy: fleet domains would race a [lazy] force. *)
let affine_row pts =
  let n = Array.length pts in
  let prefix = Array.make (n + 1) Field.one in
  Array.iteri (fun j p -> prefix.(j + 1) <- Field.mul prefix.(j) p.z) pts;
  let inv = ref (Field.inv prefix.(n)) and zinv = Array.make n Field.one in
  for j = n - 1 downto 0 do
    zinv.(j) <- Field.mul !inv prefix.(j);
    inv := Field.mul !inv pts.(j).z
  done;
  Array.map2
    (fun p zi ->
      let x = Field.mul p.x zi and y = Field.mul p.y zi in
      Field.{ ypx = add y x; ymx = sub y x; xy2d = mul (mul x y) two_d })
    pts zinv

let base_comb =
  let row_base = ref base in
  Array.init 32 (fun _ ->
      let c = cached !row_base in
      let pts = Array.make 255 !row_base in
      for j = 1 to 254 do
        pts.(j) <- to_point (add_cached pts.(j - 1) c)
      done;
      row_base := to_point (add_cached pts.(254) c);
      affine_row pts)

let scalar_mul_base k =
  if Bignum.bit_length k > 256 then scalar_mul k base
  else begin
    let kb = Bignum.to_bytes_le ~len:32 k in
    let acc = ref identity in
    for i = 0 to 31 do
      let d = Char.code (String.unsafe_get kb i) in
      if d <> 0 then acc := to_point (add_affine !acc base_comb.(i).(d - 1))
    done;
    !acc
  end

let encoded_size = 64

let encode p =
  match p.enc with
  | Some s -> s
  | None ->
      let x, y = to_affine p in
      let s = Field.to_bytes_le x ^ Field.to_bytes_le y in
      p.enc <- Some s;
      s

let decode s =
  if String.length s <> encoded_size then Error "Curve.decode: bad length"
  else
    match
      ( Field.of_bytes_le (String.sub s 0 32),
        Field.of_bytes_le (String.sub s 32 32) )
    with
    | Some x, Some y when is_on_curve_affine (x, y) ->
        let p = of_affine (x, y) in
        p.enc <- Some s;
        Ok p
    | Some _, Some _ -> Error "Curve.decode: point not on curve"
    | _ -> Error "Curve.decode: coordinate not below p"
