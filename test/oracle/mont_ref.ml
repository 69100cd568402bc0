(* Montgomery multiplication for a fixed odd modulus m of k limbs, with
   R = 2^(26·k): the arithmetic the attestation field ran on before
   ref10's limbs, kept as that field's oracle. CIOS (coarsely
   integrated operand scanning) interleaves the multiply with the
   reduction, so a modular multiply is one pass over the limbs and never
   divides. Residues are ordinary Bignum values < m; only their meaning
   (x·R mod m) is Montgomery-specific. Bignum keeps its limbs private,
   so values cross into 26-bit limb arrays through their bytes. *)

module B = Sanctorum_crypto.Bignum

let base_bits = 26
let base = 1 lsl base_bits
let mask = base - 1

type ctx = {
  m : B.t;
  mk : int array; (* the modulus as exactly k limbs *)
  k : int;
  m' : int; (* -m^-1 mod 2^base_bits *)
  r2 : B.t; (* R^2 mod m, for entering Montgomery form *)
  rone : B.t; (* R mod m — the Montgomery form of 1 *)
}

(* [a] as exactly [k] limbs, read out of its little-endian bytes. *)
let fixed k a =
  if B.bit_length a > base_bits * k then
    invalid_arg "Mont_ref: operand exceeds the modulus width";
  let s = B.to_bytes_le ~len:((base_bits * k / 8) + 8) a in
  Array.init k (fun i ->
      let bit = base_bits * i in
      (Int64.to_int (String.get_int64_le s (bit / 8)) lsr (bit mod 8)) land mask)

let of_limbs r =
  Array.fold_right
    (fun l acc -> B.add (B.shift_left acc base_bits) (B.of_int l))
    r B.zero

let create m =
  if B.is_zero m || not (B.test_bit m 0) then
    invalid_arg "Mont_ref.create: modulus must be odd";
  let k = (B.bit_length m + base_bits - 1) / base_bits in
  let mk = fixed k m in
  (* Newton–Hensel iteration for m^-1 mod 2^base_bits: each step
     doubles the number of correct low bits, 5 steps cover 32 > 26. *)
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := !inv * (2 - (mk.(0) * !inv)) land mask
  done;
  let r = B.shift_left B.one (base_bits * k) in
  { m; mk; k; m' = (base - !inv) land mask; r2 = B.rem (B.mul r r) m;
    rone = B.rem r m }

let one_m ctx = ctx.rone

let geq (a : int array) (b : int array) k =
  let rec go i =
    if i < 0 then true else if a.(i) <> b.(i) then a.(i) > b.(i) else go (i - 1)
  in
  go (k - 1)

let sub_in_place (a : int array) (b : int array) k =
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = a.(i) - b.(i) - !borrow in
    if d < 0 then begin
      a.(i) <- d + base;
      borrow := 1
    end
    else begin
      a.(i) <- d;
      borrow := 0
    end
  done

(* r = a·b·R^-1 mod m over k-limb fixed arrays. The running value
   after each outer step stays below 2m, so one extra bit and a final
   conditional subtract suffice. *)
let cios ctx (a : int array) (b : int array) =
  let k = ctx.k and mk = ctx.mk in
  let r = Array.make k 0 in
  let extra = ref 0 in
  for i = 0 to k - 1 do
    let ai = a.(i) in
    let carry = ref 0 in
    for j = 0 to k - 1 do
      let acc = r.(j) + (ai * b.(j)) + !carry in
      r.(j) <- acc land mask;
      carry := acc lsr base_bits
    done;
    let hi = !extra + !carry in
    let u = r.(0) * ctx.m' land mask in
    carry := (r.(0) + (u * mk.(0))) lsr base_bits;
    for j = 1 to k - 1 do
      let acc = r.(j) + (u * mk.(j)) + !carry in
      r.(j - 1) <- acc land mask;
      carry := acc lsr base_bits
    done;
    let hi = hi + !carry in
    r.(k - 1) <- hi land mask;
    extra := hi lsr base_bits
  done;
  if !extra <> 0 || geq r mk k then sub_in_place r mk k;
  r

(* The Montgomery product of two residues: a·b·R^-1 mod m. *)
let mont_mul ctx a b = of_limbs (cios ctx (fixed ctx.k a) (fixed ctx.k b))
let of_mont ctx a = of_limbs (cios ctx (fixed ctx.k a) (fixed ctx.k B.one))

(* Reduces its argument mod m first, so any value is accepted. *)
let to_mont ctx a =
  of_limbs (cios ctx (fixed ctx.k (B.rem a ctx.m)) (fixed ctx.k ctx.r2))
