(* Big-number routines outside the TCB, built from Bignum's public
   operations: hex parsing, modular subtraction, schoolbook modular
   exponentiation and inversion (the schoolbook curve tier subtracts and
   inverts with them), Miller–Rabin,
   and the plain-domain helpers over [Mont_ref] that the "mont"
   properties compare against the schoolbook ones. *)

module B = Sanctorum_crypto.Bignum

let of_hex h =
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  B.of_bytes_be (Sanctorum_util.Hex.decode h)

(* Left-to-right square and multiply over schoolbook products, so every
   step pays a Knuth division and nothing is shared with [Mont_ref]. *)
let mod_exp b e ~m =
  let b = B.rem b m in
  let r = ref (B.rem B.one m) in
  for i = B.bit_length e - 1 downto 0 do
    r := B.mod_mul !r !r ~m;
    if B.test_bit e i then r := B.mod_mul !r b ~m
  done;
  !r

(* a - b mod m, for a and b below m. *)
let mod_sub a b ~m = if B.compare a b >= 0 then B.sub a b else B.sub (B.add a m) b

(* Extended Euclid on naturals, keeping Bezout coefficients in Z_m. *)
let mod_inv a ~m =
  let a = B.rem a m in
  if B.is_zero a then invalid_arg "Bignum_ref.mod_inv: zero has no inverse";
  let rec go r0 r1 t0 t1 =
    if B.is_zero r1 then
      if B.equal r0 B.one then t0
      else invalid_arg "Bignum_ref.mod_inv: not invertible"
    else begin
      let q, r2 = B.divmod r0 r1 in
      go r1 r2 t1 (mod_sub t0 (B.mod_mul q t1 ~m) ~m)
    end
  in
  go m a B.zero B.one

(* A plain-domain product through one round trip in Montgomery form. *)
let mont_mod_mul ctx a b =
  Mont_ref.(of_mont ctx (mont_mul ctx (to_mont ctx a) (to_mont ctx b)))

(* Plain-domain base and result; the square-and-multiply walk happens in
   Montgomery form, so no step divides. *)
let mont_exp ctx b e =
  let bm = Mont_ref.to_mont ctx b in
  let acc = ref (Mont_ref.one_m ctx) in
  for i = B.bit_length e - 1 downto 0 do
    acc := Mont_ref.mont_mul ctx !acc !acc;
    if B.test_bit e i then acc := Mont_ref.mont_mul ctx !acc bm
  done;
  Mont_ref.of_mont ctx !acc

(* Miller–Rabin with witnesses derived from SHAKE256 over the value's
   own bytes, so the verdicts are reproducible anywhere and the known
   answers in test_attest_scale.ml are exact. *)
let is_probable_prime ?(rounds = 16) n =
  let two = B.of_int 2 and is_even x = not (B.test_bit x 0) in
  if B.compare n two < 0 then false
  else if B.equal n two then true
  else if is_even n then false
  else if B.compare n (B.of_int 5) < 0 then true (* 3: no witness range *)
  else begin
    (* n - 1 = d * 2^s *)
    let n1 = B.sub n B.one in
    let rec split d s =
      if is_even d then split (B.shift_right d 1) (s + 1) else (d, s)
    in
    let d, s = split n1 0 in
    let n2 = B.sub n two in
    let nb = B.to_bytes_be ~len:((B.bit_length n + 7) / 8) n in
    let witness i =
      let h =
        Sanctorum_crypto.Sha3.shake256
          ~len:(String.length nb + 8)
          (Printf.sprintf "sanctorum-mr-witness-%d:" i ^ nb)
      in
      B.add (B.rem (B.of_bytes_be h) (B.sub n2 B.one)) two
    in
    let ctx = Mont_ref.create n in
    let composite_witness a =
      let x = ref (mont_exp ctx a d) in
      if B.equal !x B.one || B.equal !x n1 then false
      else begin
        let rec loop i =
          if i >= s - 1 then true
          else begin
            x := mont_mod_mul ctx !x !x;
            if B.equal !x n1 then false else loop (i + 1)
          end
        in
        loop 0
      end
    in
    let rec trial i =
      if i = rounds then true
      else if composite_witness (witness i) then false
      else trial (i + 1)
    in
    trial 0
  end
