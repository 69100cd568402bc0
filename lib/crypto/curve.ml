(* Extended twisted Edwards coordinates (X : Y : Z : T) with
   x = X/Z, y = Y/Z, T = XY/Z. The a = -1 formulas below are complete:
   they are correct for every pair of inputs, including doublings and
   the identity, so no special cases leak timing. *)

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

let add p q =
  let a = Field.mul (Field.sub p.y p.x) (Field.sub q.y q.x) in
  let b = Field.mul (Field.add p.y p.x) (Field.add q.y q.x) in
  let c = Field.mul (Field.mul p.t two_d) q.t in
  let dd = Field.mul (Field.add p.z p.z) q.z in
  let e = Field.sub b a in
  let f = Field.sub dd c in
  let g = Field.add dd c in
  let h = Field.add b a in
  {
    x = Field.mul e f;
    y = Field.mul g h;
    t = Field.mul e h;
    z = Field.mul f g;
    enc = None;
  }

let double p =
  let a = Field.square p.x in
  let b = Field.square p.y in
  let c = Field.add (Field.square p.z) (Field.square p.z) in
  let h = Field.add a b in
  let e = Field.sub h (Field.square (Field.add p.x p.y)) in
  let g = Field.sub a b in
  let f = Field.add c g in
  {
    x = Field.mul e f;
    y = Field.mul g h;
    t = Field.mul e h;
    z = Field.mul f g;
    enc = None;
  }

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
(* Windowed multiplication. [multi_scalar_mul] is the Strauss trick with
   4-bit windows: one shared doubling chain for all terms, plus a
   16-entry multiple table per term so each window costs at most one
   addition. With the short (128-bit) coefficients batch verification
   uses, the per-term work is about a third of a full scalar multiply
   and the doublings amortize across the whole batch. A variable-base
   [scalar_mul] is the one-term case. *)

let window_bits = 4

let multi_scalar_mul terms =
  let bits =
    List.fold_left (fun m (k, _) -> max m (Bignum.bit_length k)) 0 terms
  in
  let windows = (bits + window_bits - 1) / window_bits in
  let tables =
    List.map
      (fun (k, p) ->
        let tbl = Array.make 16 identity in
        for j = 1 to 15 do
          tbl.(j) <- add tbl.(j - 1) p
        done;
        (k, tbl))
      terms
  in
  let acc = ref identity in
  for w = windows - 1 downto 0 do
    for _ = 1 to window_bits do
      acc := double !acc
    done;
    let lo = w * window_bits in
    List.iter
      (fun (k, tbl) ->
        let bit i = if Bignum.test_bit k (lo + i) then 1 lsl i else 0 in
        let d = bit 0 lor bit 1 lor bit 2 lor bit 3 in
        if d <> 0 then acc := add !acc tbl.(d))
      tables
  done;
  !acc

let scalar_mul k p = multi_scalar_mul [ (k, p) ]

(* Fixed-base windows (combs). A table for P holds, per window i of the
   scalar, the multiples j·2^(bits·i)·P for every digit j; a scalar
   multiply is then one complete addition per nonzero digit and no
   doublings. *)

let table_bits = 256 (* scalar width every table covers *)

type table = { tp : point; wbits : int; rows : point array array }

let build_table bits p =
  let windows = table_bits / bits in
  let size = 1 lsl bits in
  let rows = Array.init windows (fun _ -> Array.make size identity) in
  let cur = ref p in
  for i = 0 to windows - 1 do
    let row = rows.(i) in
    for j = 1 to size - 1 do
      row.(j) <- add row.(j - 1) !cur
    done;
    for _ = 1 to bits do
      cur := double !cur
    done
  done;
  { tp = p; wbits = bits; rows }

(* Per-key tables use 4-bit windows (64 × 16 points, cheap to build on
   the second use of a key); the generator's table below uses 8-bit
   windows (32 × 256 points, ~8k additions) because it is built exactly
   once and every signature and verification walks it. *)
let make_table p = build_table window_bits p

let table_mul t k =
  if Bignum.bit_length k > table_bits then scalar_mul k t.tp
  else begin
    let kb = Bignum.to_bytes_le ~len:32 k in
    let acc = ref identity in
    if t.wbits = 8 then
      for i = 0 to 31 do
        let d = Char.code (String.unsafe_get kb i) in
        if d <> 0 then acc := add !acc t.rows.(i).(d)
      done
    else
      for i = 0 to 63 do
        let byte = Char.code (String.unsafe_get kb (i lsr 1)) in
        let d = if i land 1 = 0 then byte land 0xf else byte lsr 4 in
        if d <> 0 then acc := add !acc t.rows.(i).(d)
      done;
    !acc
  end

(* Eager, not lazy: fleet domains would race a [lazy] force. *)
let base_table = build_table 8 base
let scalar_mul_base k = table_mul base_table k

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

let pp ppf p =
  let x, y = to_affine p in
  Format.fprintf ppf "(%a, %a)" Field.pp x Field.pp y
