(* The reference verifier and a test-side signer for Schnorr.

   [verify_reference] is the pre-optimization verifier: it parses the
   signature, hashes the challenge and checks the cofactored equation
   [8](s·B - R - c·A) = O on its own, over the schoolbook tier
   ([Curve_ref.scalar_mul_schoolbook]) with no tables and no cached
   state. Differential tests demand verdict-for-verdict agreement with
   [Schnorr.verify] and [Schnorr.verify_batch]; the bench reports the
   speedup against it.

   [sign_with_torsion] signs like [Schnorr.sign] (same key and nonce
   derivation from the seed) but adds a point to the commitment before
   hashing the challenge. With the identity it reproduces [Schnorr.sign]
   byte for byte; with a small-order point it makes the signatures the
   cofactored rule exists for. Making one takes the signing key. *)

module B = Sanctorum_crypto.Bignum
module C = Sanctorum_crypto

let scalar_of_hash data = B.rem (B.of_bytes_be data) C.Curve.order

let nonzero_scalar_of_hash data =
  let s = scalar_of_hash data in
  if B.is_zero s then B.one else s

(* Over the encodings, as the signer hashes them. *)
let challenge ~commitment ~pk ~msg =
  scalar_of_hash
    (C.Sha3.sha3_512 ("sanctorum-schnorr-chal" ^ commitment ^ pk ^ msg))

let verify_reference pk ~msg ~signature =
  let pk = C.Schnorr.public_key_to_bytes pk in
  String.length signature = C.Schnorr.signature_size
  &&
  let commitment = String.sub signature 0 C.Curve.encoded_size in
  let s = B.of_bytes_be (String.sub signature C.Curve.encoded_size 32) in
  match (C.Curve.decode commitment, C.Curve.decode pk) with
  | Ok r, Ok a when B.compare s C.Curve.order < 0 ->
      let mul = Curve_ref.scalar_mul_schoolbook in
      let c = challenge ~commitment ~pk ~msg in
      let lhs = mul s C.Curve.base in
      let rhs = C.Curve.add r (mul c a) in
      C.Curve.equal lhs rhs
      || C.Curve.equal
           (mul (B.of_int 8) (C.Curve.add lhs (C.Curve.negate rhs)))
           C.Curve.identity
  | _ -> false

let sign_with_torsion ~seed ~torsion msg =
  let l = C.Curve.order in
  let scalar tag = nonzero_scalar_of_hash (C.Sha3.sha3_512 tag) in
  let x = scalar ("sanctorum-schnorr-key" ^ seed) in
  let r = scalar ("sanctorum-schnorr-nonce" ^ seed ^ msg) in
  let times k = Curve_ref.double_and_add k C.Curve.base in
  let pk = C.Curve.encode (times x) in
  let commitment = C.Curve.encode (C.Curve.add (times r) torsion) in
  let c = challenge ~commitment ~pk ~msg in
  commitment ^ B.to_bytes_be ~len:32 (B.mod_add r (B.mod_mul c x ~m:l) ~m:l)
