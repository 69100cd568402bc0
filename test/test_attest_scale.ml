(* The attestation fast path, held to the old tier's bytes.

   Every optimization behind `bench attest` — ref10 field arithmetic,
   the generator's affine comb, signed-digit Strauss multi-scalar
   multiplication, batch signature verification, the monitor's
   measurement cache — is architecturally invisible: same signatures,
   same evidence, same measurements. These tests pin that equivalence
   three ways: differentially (qcheck, fast path vs the reference
   implementations in test/oracle), against known-answer vectors
   generated on the pre-optimization tier, and end to end (the batch
   attestation service, including forged evidence pinpointed through
   the batch fallback, and the churn workload exercising the
   measurement cache). *)

module C = Sanctorum_crypto
module O = Sanctorum_oracle
module Hex = Sanctorum_util.Hex
module M = Sanctorum.Measurement
module W = Sanctorum_workload.Workload
module Asv = Sanctorum_workload.Attest_service

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gen_bignum =
  QCheck2.Gen.(
    map
      (fun l ->
        C.Bignum.of_bytes_be (String.concat "" (List.map (String.make 1) l)))
      (list_size (int_range 0 40) char))

(* An odd modulus >= 3, the Montgomery precondition. *)
let gen_odd_modulus =
  QCheck2.Gen.map
    (fun b ->
      let m = if C.Bignum.test_bit b 0 then b else C.Bignum.add b C.Bignum.one in
      if C.Bignum.compare m (C.Bignum.of_int 3) < 0 then C.Bignum.of_int 3
      else m)
    gen_bignum

let qcheck_mont_mul =
  QCheck2.Test.make ~name:"mont mod_mul = schoolbook mod_mul" ~count:300
    QCheck2.Gen.(triple gen_odd_modulus gen_bignum gen_bignum)
    (fun (m, a, b) ->
      let ctx = O.Mont_ref.create m in
      C.Bignum.equal
        (O.Bignum_ref.mont_mod_mul ctx a b)
        (C.Bignum.mod_mul a b ~m))

let qcheck_mont_exp =
  QCheck2.Test.make ~name:"mont_exp = mod_exp" ~count:60
    QCheck2.Gen.(triple gen_odd_modulus gen_bignum gen_bignum)
    (fun (m, b, e) ->
      let ctx = O.Mont_ref.create m in
      C.Bignum.equal (O.Bignum_ref.mont_exp ctx b e) (O.Bignum_ref.mod_exp b e ~m))

let qcheck_mont_roundtrip =
  QCheck2.Test.make ~name:"mont to/of roundtrip and one" ~count:200
    QCheck2.Gen.(pair gen_odd_modulus gen_bignum)
    (fun (m, a) ->
      let ctx = O.Mont_ref.create m in
      let am = O.Mont_ref.to_mont ctx a in
      C.Bignum.equal (O.Mont_ref.of_mont ctx am) (C.Bignum.rem a m)
      && C.Bignum.equal
           (O.Mont_ref.of_mont ctx (O.Mont_ref.one_m ctx))
           (C.Bignum.rem C.Bignum.one m))

let qcheck_field_mul =
  QCheck2.Test.make ~name:"field mul = bignum mod_mul" ~count:200
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) ->
      let fa = C.Field.of_bignum a and fb = C.Field.of_bignum b in
      C.Bignum.equal
        (C.Field.to_bignum (C.Field.mul fa fb))
        (C.Bignum.mod_mul a b ~m:C.Field.p))

(* The ref10 kernel against the Montgomery field it replaced: Mont_ref
   over p, with residues kept in Montgomery form as the old Field kept
   them. A case runs a chain of at least 32 steps from one start value:
   runs of up to six additions, subtractions or negations (an operand
   may be the chain value itself, so a run can double it six times),
   each ended by a product or a square. Operands are random values
   below p and the edges: 0, 1, 2, 19, p-1, p-2, p-19, and 2^k and
   2^k - 1 at every limb boundary k and at 254. After every step the
   encoding, equality, zero test and parity must match the oracle's.
   Each case then checks an inverse and which 32-byte strings decode. *)

type field_step = Add of int | Sub of int | Neg | Mul of int | Square

let field_edges =
  let open C.Bignum in
  let p = C.Field.p and pow2 k = shift_left one k in
  [ zero; one; of_int 2; of_int 19; sub p one; sub p (of_int 2);
    sub p (of_int 19) ]
  @ List.concat_map
      (fun k -> [ pow2 k; sub (pow2 k) one ])
      [ 26; 51; 77; 102; 128; 153; 179; 204; 230; 254 ]

(* Strings the decoder must refuse, next to the fixed edge p - 1 it
   must accept: p, p + 1, 2^255 - 1, values with bit 255 set, and the
   wrong lengths. *)
let field_decode_edges =
  let open C.Bignum in
  let p = C.Field.p and b = to_bytes_le ~len:32 in
  let top = shift_left one 255 in
  [ b (sub p one); b p; b (add p one); b (sub top one); b top;
    b (add top (sub p one)); b (sub (shift_left one 256) one);
    String.make 31 '\x00'; String.make 33 '\x00' ]

let field_random = 4
let field_pool = List.length field_edges + field_random

let gen_field_case =
  let open QCheck2.Gen in
  (* -1 is the chain value itself *)
  let operand = int_range (-1) (field_pool - 1) in
  let run_step =
    oneof
      [ map (fun i -> Add i) operand; map (fun i -> Sub i) operand;
        return Neg ]
  in
  let product = oneof [ map (fun i -> Mul i) operand; return Square ] in
  (* half the runs only double the chain value, 1 to 6 times *)
  let run =
    oneof
      [ list_size (int_range 0 6) run_step;
        map (fun k -> List.init k (fun _ -> Add (-1))) (int_range 1 6) ]
  in
  let segment = map2 (fun run last -> run @ [ last ]) run product in
  let rec chain acc len =
    if len >= 32 then return (List.concat (List.rev acc))
    else segment >>= fun seg -> chain (seg :: acc) (len + List.length seg)
  in
  let below_p =
    map
      (fun s -> C.Bignum.rem (C.Bignum.of_bytes_le s) C.Field.p)
      (string_size ~gen:char (return 32))
  in
  let* randoms = list_repeat field_random below_p in
  let* start = int_range 0 (field_pool - 1) in
  let* steps = chain [] 0 in
  let+ bytes = string_size ~gen:char (return 32) in
  (randoms, start, steps, bytes)

let print_field_case (randoms, start, steps, bytes) =
  let step = function
    | Add i -> Printf.sprintf "add %d" i
    | Sub i -> Printf.sprintf "sub %d" i
    | Neg -> "neg"
    | Mul i -> Printf.sprintf "mul %d" i
    | Square -> "square"
  in
  Printf.sprintf "randoms=[%s] start=%d steps=[%s] bytes=%s"
    (String.concat "; " (List.map C.Bignum.to_hex randoms))
    start
    (String.concat "; " (List.map step steps))
    (Hex.encode bytes)

let qcheck_field_kernel =
  let p = C.Field.p in
  let ctx = O.Mont_ref.create p in
  let plain m = O.Mont_ref.of_mont ctx m in
  let bytes m = C.Bignum.to_bytes_le ~len:32 (plain m) in
  (* f and the oracle residue m name one element, and compare with
     (f', m') the same way *)
  let agrees (f, m) (f', m') =
    String.equal (C.Field.to_bytes_le f) (bytes m)
    && C.Field.is_zero f = C.Bignum.is_zero m
    && C.Field.is_odd f = C.Bignum.test_bit (plain m) 0
    && C.Field.equal f f' = C.Bignum.equal m m'
  in
  let decodes s =
    match C.Field.of_bytes_le s with
    | Some f ->
        String.length s = 32
        && C.Bignum.compare (C.Bignum.of_bytes_le s) p < 0
        && String.equal (C.Field.to_bytes_le f) s
    | None ->
        String.length s <> 32
        || C.Bignum.compare (C.Bignum.of_bytes_le s) p >= 0
  in
  let inverts (f, m) =
    if C.Bignum.is_zero m then
      match C.Field.inv f with
      | exception Invalid_argument _ -> true
      | _ -> false
    else
      String.equal
        (C.Field.to_bytes_le (C.Field.inv f))
        (C.Bignum.to_bytes_le ~len:32 (O.Bignum_ref.mod_inv (plain m) ~m:p))
  in
  QCheck2.Test.make ~name:"field: ref10 kernel = Montgomery oracle" ~count:200
    ~print:print_field_case gen_field_case
    (fun (randoms, start, steps, s) ->
      let pool =
        Array.of_list
          (List.map
             (fun x -> (C.Field.of_bignum x, O.Mont_ref.to_mont ctx x))
             (field_edges @ randoms))
      in
      let final, ok =
        List.fold_left
          (fun ((f, m), ok) st ->
            let operand i = if i < 0 then (f, m) else pool.(i) in
            let next =
              match st with
              | Add i ->
                  let g, n = operand i in
                  (C.Field.add f g, C.Bignum.mod_add m n ~m:p)
              | Sub i ->
                  let g, n = operand i in
                  (C.Field.sub f g, O.Bignum_ref.mod_sub m n ~m:p)
              | Neg -> (C.Field.neg f, O.Bignum_ref.mod_sub C.Bignum.zero m ~m:p)
              | Mul i ->
                  let g, n = operand i in
                  (C.Field.mul f g, O.Mont_ref.mont_mul ctx m n)
              | Square -> (C.Field.square f, O.Mont_ref.mont_mul ctx m m)
            in
            (next, ok && agrees next (f, m)))
          (pool.(start), agrees pool.(start) pool.(start))
          steps
      in
      ok && inverts final && inverts pool.(start)
      && List.for_all decodes (s :: field_decode_edges))

let gen_scalar = QCheck2.Gen.map (fun b -> C.Bignum.rem b C.Curve.order) gen_bignum

(* 0, 1, L-1, L, L+1, and one scalar wider than the 256 bits the
   generator's comb covers. *)
let edge_scalars =
  let l = C.Curve.order in
  C.Bignum.
    [ zero; one; sub l one; l; add l one; add (shift_left one 300) (of_int 12345) ]

let pow2_minus_1 n = C.Bignum.(sub (shift_left one n) one)

(* Batch coefficients are 128 bits wide. All-ones scalars end on a
   negative digit whose borrow carries one place past their bit length. *)
let gen_coefficient =
  QCheck2.Gen.(map C.Bignum.of_bytes_be (string_size (return 16)))

let strauss_edges =
  C.Bignum.
    [ zero; one; pow2_minus_1 128; sub C.Curve.order one; pow2_minus_1 253;
      of_int 31 ]

(* Every row of the generator's affine comb, at a random entry, plus
   whole scalars: a single-byte scalar j·2^(8i) reads entry j of row i
   alone, so a row whose batched inversion went wrong fails here. One
   more addition after each multiply reads its T. *)
let qcheck_base_comb =
  QCheck2.Test.make ~name:"generator comb = double_and_add" ~count:10
    QCheck2.Gen.(
      triple (list_repeat 32 (int_range 1 255)) gen_scalar gen_scalar)
    (fun (entries, k, kq) ->
      let q = O.Curve_ref.double_and_add kq C.Curve.base in
      let rows =
        List.mapi
          (fun i j -> C.Bignum.shift_left (C.Bignum.of_int j) (8 * i))
          entries
      in
      List.for_all
        (fun k ->
          C.Curve.equal
            (C.Curve.add (C.Curve.scalar_mul_base k) q)
            (C.Curve.add (O.Curve_ref.double_and_add k C.Curve.base) q))
        ((pow2_minus_1 256 :: k :: rows) @ edge_scalars))

(* At the batch's shape: up to 24 terms mixing 128-bit coefficients,
   full-width scalars and edge scalars, over points some of which carry
   a small-order component, as a commitment may. *)
let qcheck_multi_scalar_mul =
  QCheck2.Test.make ~name:"multi_scalar_mul = sum of scalar_mul" ~count:30
    QCheck2.Gen.(
      pair gen_scalar
        (list_size (int_range 0 24)
           (triple
              (oneof [ gen_coefficient; gen_scalar; oneofl strauss_edges ])
              gen_scalar (int_range 0 2))))
    (fun (kq, terms) ->
      let torsion =
        [| C.Curve.identity; O.Curve_ref.order_2; O.Curve_ref.order_4 |]
      in
      let terms =
        List.map
          (fun (k, kp, tor) ->
            (k, C.Curve.add (C.Curve.scalar_mul_base kp) torsion.(tor)))
          terms
      in
      let q = C.Curve.scalar_mul_base kq in
      let expect =
        List.fold_left
          (fun acc (k, p) -> C.Curve.add acc (O.Curve_ref.double_and_add k p))
          q terms
      in
      C.Curve.equal (C.Curve.add (C.Curve.multi_scalar_mul terms) q) expect)

(* The width-5 signed digits: odd and below 16 in magnitude, four zeros
   after each, no trailing zero digit, and Σ dᵢ·2^i = k. *)
let qcheck_signed_digits =
  QCheck2.Test.make ~name:"signed digits: odd, sparse, sum to k" ~count:500
    QCheck2.Gen.(oneof [ gen_bignum; gen_coefficient; oneofl strauss_edges ])
    (fun k ->
      let ds = C.Curve.signed_digits k in
      let n = Array.length ds in
      let pos = ref C.Bignum.zero and neg = ref C.Bignum.zero in
      let ok = ref (n = 0 || ds.(n - 1) <> 0) in
      Array.iteri
        (fun i d ->
          if d <> 0 then begin
            ok := !ok && d land 1 = 1 && abs d < 16;
            for j = i + 1 to min (n - 1) (i + 4) do
              ok := !ok && ds.(j) = 0
            done;
            let v = C.Bignum.shift_left (C.Bignum.of_int (abs d)) i in
            if d > 0 then pos := C.Bignum.add !pos v
            else neg := C.Bignum.add !neg v
          end)
        ds;
      !ok && C.Bignum.equal !pos (C.Bignum.add k !neg))

let qcheck_schoolbook_scalar_mul =
  QCheck2.Test.make ~name:"scalar_mul = scalar_mul_schoolbook" ~count:10
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (k, kp) ->
      let p = C.Curve.scalar_mul kp C.Curve.base in
      List.for_all
        (fun k ->
          C.Curve.equal (O.Curve_ref.scalar_mul_schoolbook k p)
            (C.Curve.scalar_mul k p))
        (k :: edge_scalars))

(* The reference verifier runs on the schoolbook field, so keep the
   count modest: each case pays two division-per-product scalar
   multiplies. *)
let qcheck_verify_differential =
  QCheck2.Test.make ~name:"schnorr verify = verify_reference" ~count:10
    QCheck2.Gen.(triple string_small string_small (int_range 0 95))
    (fun (seed, msg, flip) ->
      let sk = C.Schnorr.secret_key_of_seed seed in
      let pk = C.Schnorr.public_key sk in
      let signature = C.Schnorr.sign sk msg in
      let bad =
        String.mapi
          (fun i c -> if i = flip then Char.chr (Char.code c lxor 1) else c)
          signature
      in
      C.Schnorr.verify pk ~msg ~signature
      = O.Schnorr_ref.verify_reference pk ~msg ~signature
      && C.Schnorr.verify pk ~msg ~signature:bad
         = O.Schnorr_ref.verify_reference pk ~msg ~signature:bad)

(* Vectors generated on the pre-Montgomery, pre-table tier: the fast
   tier must reproduce them byte for byte. *)
let test_schnorr_pinned () =
  let sk = C.Schnorr.secret_key_of_seed "alpha" in
  let pk = C.Schnorr.public_key sk in
  check "pk(alpha)"
    "e8a20dd8a6c55413bf624af6c41dea6c6733d67c38761b3d4d61285bdfd5cf69416251a30d44b3cfc2e843357d7b18713e799886b1be33174cc1423d7f1e9738"
    (Hex.encode (C.Schnorr.public_key_to_bytes pk));
  check "sig(alpha, hello world)"
    "20606d9c9b0c4cd32eb6e81991cace3f8b6e1ffe460c1c3b267245b1622b33457daa4596148e1e901b3c34fd3a704c58f7d4b7fc03fb53403ab2885eee55b24a0532861ce74afa09330c334e5c450dc369a0035d70818cd665461f13bacdd794"
    (Hex.encode (C.Schnorr.sign sk "hello world"));
  check "sig(alpha, empty)"
    "976541d26b4acaba722b38afa25e7a95807982713b744e1e391fa27e59dd71311e01d5c6b7f95796d51e0e157610d696b4f51099bed2ed7b219b2dc7471017700dde74cfe7fcd5417edfa3ca238134bce33efd00c8bea82199c7aec32d3814e1"
    (Hex.encode (C.Schnorr.sign sk ""));
  let sk2 = C.Schnorr.secret_key_of_seed "beta" in
  check "sig(beta, msg2)"
    "c48f3d5d3d4246ce987c189c1fe409ad695f047972ad7ff116b38b9dff0b111be775fc1c53f96163503610785575af47895e689d9f9ffba35c15ca3e1553a1500d26848aacf11d1c90f2591c71083f7016ee69c8c12a46546de48974863b26bb"
    (Hex.encode (C.Schnorr.sign sk2 "msg2"));
  (* the pinned signature verifies under its key, not under another *)
  let signature = C.Schnorr.sign sk "hello world" in
  check_bool "verify pinned" true
    (C.Schnorr.verify pk ~msg:"hello world" ~signature);
  check_bool "other key rejects" false
    (C.Schnorr.verify (C.Schnorr.public_key sk2) ~msg:"hello world" ~signature)

let test_dh_pinned () =
  let rng = C.Drbg.create ~seed:"pin-dh" in
  let s1, p1 = C.Dh.generate rng in
  let _s2, p2 = C.Dh.generate rng in
  check "dh pub1"
    "53a967a6e92b4663c510a1a5e6bc8b142b374e7953903f0e050502fe7544f549c08a9f7802dd24978bef88ff76d387d23a0ab1af0ad94e8efe8869178ce7170a"
    (Hex.encode (C.Dh.public_to_bytes p1));
  check "dh shared"
    "381d7b387b350584ea08854d723b1f649b3d06765dc819ddcd91fcfcb5d3f40a"
    (Hex.encode (C.Dh.shared_key s1 p2))

(* Known answers for the Sha3-derived Miller–Rabin witnesses: the
   witness schedule is deterministic, so these verdicts are exact. *)
let test_primality_known_answers () =
  let is_prime = O.Bignum_ref.is_probable_prime in
  let prime n = check_bool n true in
  let composite n = check_bool n false in
  prime "p = 2^255-19" (is_prime C.Field.p);
  prime "curve order" (is_prime C.Curve.order);
  prime "2^61-1"
    (is_prime (C.Bignum.sub (C.Bignum.shift_left C.Bignum.one 61) C.Bignum.one));
  composite "2^67-1"
    (is_prime (C.Bignum.sub (C.Bignum.shift_left C.Bignum.one 67) C.Bignum.one));
  (* Carmichael numbers defeat Fermat tests; Miller–Rabin must not be
     fooled whatever the witnesses. *)
  composite "561" (is_prime (C.Bignum.of_int 561));
  composite "41041" (is_prime (C.Bignum.of_int 41041));
  composite "3215031751" (is_prime (C.Bignum.of_int 3215031751));
  (* small edge cases around the witness range *)
  List.iter
    (fun (n, expect) ->
      check_bool (string_of_int n) expect (is_prime (C.Bignum.of_int n)))
    [ (0, false); (1, false); (2, true); (3, true); (4, false); (5, true) ]

(* The transcript-recording measurement context must produce the exact
   digest of the old eager-concatenation one (pinned below), and the
   cache must hit only on byte-identical transcripts. *)
let test_measurement_cache () =
  let img =
    Sanctorum.Image.of_program ~evbase:0x10000 Sanctorum_hw.Isa.[ j 0 ]
  in
  check "pinned image measurement"
    "b2d76ac68da740368601c0a7e07523549c6b7455a8b0df9c3dc034c81b578444"
    (Hex.encode (Sanctorum.Image.measurement img));
  let measure ?cache mutate =
    let t = M.start () in
    M.extend_create t ~evbase:0x10000 ~evsize:0x4000 ~mailbox_count:4;
    M.extend_page_table t ~vaddr:0x10000 ~level:0;
    let contents = Bytes.make 4096 '\x00' in
    Bytes.set contents 1234 'x';
    mutate contents;
    M.extend_page t ~vaddr:0x10000 ~r:true ~w:false ~x:true
      ~contents:(Bytes.to_string contents);
    M.extend_thread t ~entry_pc:0x10000L ~entry_sp:0x13ff0L;
    M.finalize ?cache t
  in
  let keep _ = () in
  let cache = M.Cache.create () in
  let d_none = measure keep in
  let d_miss = measure ~cache keep in
  let d_hit = measure ~cache keep in
  check "cache digest = uncached digest" (Hex.encode d_none)
    (Hex.encode d_miss);
  check "hit digest = miss digest" (Hex.encode d_miss) (Hex.encode d_hit);
  check_int "one miss" 1 (M.Cache.misses cache);
  check_int "one hit" 1 (M.Cache.hits cache);
  (* negative test: a single flipped byte in page contents must miss
     the cache and change the measurement *)
  let d_mut =
    measure ~cache (fun b ->
        Bytes.set b 2048 (Char.chr (Char.code (Bytes.get b 2048) lxor 1)))
  in
  check_int "mutation misses" 2 (M.Cache.misses cache);
  check_int "mutation does not hit" 1 (M.Cache.hits cache);
  check_bool "mutation changes the measurement" false (d_mut = d_miss)

let test_batch_soundness () =
  let item seed msg =
    let sk = C.Schnorr.secret_key_of_seed seed in
    (C.Schnorr.public_key sk, msg, C.Schnorr.sign sk msg)
  in
  let honest =
    [
      item "batch-a" "first";
      item "batch-b" "second";
      item "batch-a" "third";
      item "batch-c" "";
    ]
  in
  Array.iteri
    (fun i ok -> check_bool (Printf.sprintf "honest %d" i) true ok)
    (C.Schnorr.verify_batch honest);
  (* one forged signature: the batch equation fails and the fallback
     pinpoints exactly the forged item *)
  let forge (pk, msg, signature) =
    ( pk,
      msg,
      String.mapi
        (fun i c -> if i = 80 then Char.chr (Char.code c lxor 1) else c)
        signature )
  in
  let poisoned =
    List.mapi (fun i it -> if i = 2 then forge it else it) honest
  in
  let verdicts = C.Schnorr.verify_batch poisoned in
  Array.iteri
    (fun i ok -> check_bool (Printf.sprintf "pinpointed %d" i) (i <> 2) ok)
    verdicts;
  (* a structurally broken signature (off-curve commitment bytes) is
     rejected without spoiling the batch *)
  let broken =
    List.mapi
      (fun i (pk, msg, signature) ->
        if i = 1 then (pk, msg, String.make (String.length signature) '\xff')
        else (pk, msg, signature))
      honest
  in
  Array.iteri
    (fun i ok -> check_bool (Printf.sprintf "broken %d" i) (i <> 1) ok)
    (C.Schnorr.verify_batch broken);
  check_int "empty batch" 0 (Array.length (C.Schnorr.verify_batch []));
  (* Items whose commitment carries a small-order point: the test-side
     signer (it needs the key) adds (0, -1), of order 2, or
     (sqrt(-1), 0), of order 4, to R before hashing the challenge. The
     cofactored rule accepts them. Alone and at every position of the
     honest batch, whose first key signs them too, the batch verdict
     must equal Schnorr.verify's and the reference verifier's. *)
  let seed = "batch-a" and msg = "torsion" in
  let pk = C.Schnorr.public_key (C.Schnorr.secret_key_of_seed seed) in
  check "test-side signer = Schnorr.sign"
    (Hex.encode (C.Schnorr.sign (C.Schnorr.secret_key_of_seed seed) msg))
    (Hex.encode
       (O.Schnorr_ref.sign_with_torsion ~seed ~torsion:C.Curve.identity msg));
  List.iter
    (fun (label, torsion) ->
      let signature = O.Schnorr_ref.sign_with_torsion ~seed ~torsion msg in
      let item = (pk, msg, signature) in
      let single = C.Schnorr.verify pk ~msg ~signature in
      check_bool (label ^ ": verify accepts") true single;
      check_bool (label ^ ": reference = verify") single
        (O.Schnorr_ref.verify_reference pk ~msg ~signature);
      check_bool (label ^ " alone") single (C.Schnorr.verify_batch [ item ]).(0);
      for pos = 0 to List.length honest do
        let batch =
          List.filteri (fun i _ -> i < pos) honest
          @ (item :: List.filteri (fun i _ -> i >= pos) honest)
        in
        Array.iteri
          (fun i ok ->
            check_bool
              (Printf.sprintf "%s at %d: item %d" label pos i)
              (i <> pos || single) ok)
          (C.Schnorr.verify_batch batch)
      done)
    [ ("order 2", O.Curve_ref.order_2); ("order 4", O.Curve_ref.order_4) ];
  (* Repeated claims. The batch checks each distinct (key encoding,
     message, signature) once and copies its verdict to the repeats, so
     every copy must still read as a verification of its own would. *)
  let expect label batch want =
    Array.iteri
      (fun i ok ->
        let pk, msg, signature = List.nth batch i in
        let name = Printf.sprintf "%s %d" label i in
        check_bool name (want i) ok;
        check_bool (name ^ ": = verify") (C.Schnorr.verify pk ~msg ~signature) ok;
        check_bool (name ^ ": = reference")
          (O.Schnorr_ref.verify_reference pk ~msg ~signature)
          ok)
      (C.Schnorr.verify_batch batch)
  in
  let h i = List.nth honest i in
  (* an honest claim three times, once under a key decoded afresh: a
     distinct record with the same encoding *)
  let pk0, msg0, sig0 = h 0 in
  let pk0' =
    Result.get_ok
      (C.Schnorr.public_key_of_bytes (C.Schnorr.public_key_to_bytes pk0))
  in
  expect "repeated honest"
    [ h 0; h 1; (pk0', msg0, sig0); h 2; h 0; h 3 ]
    (fun _ -> true);
  (* one forgery at two positions: both copies fail, nothing else *)
  let forged = forge (h 1) in
  expect "repeated forgery"
    [ h 0; forged; h 2; forged; h 3 ]
    (fun i -> i <> 1 && i <> 3);
  (* one (msg, signature) under two keys, in both orders: only the
     signer's key verifies it *)
  let pk1, _, _ = h 1 in
  let wrong_key = (pk1, msg0, sig0) in
  expect "signer's key first" [ h 0; wrong_key; h 2 ] (fun i -> i <> 1);
  expect "wrong key first" [ wrong_key; h 2; h 0 ] (fun i -> i <> 0)

let test_attest_service_clean () =
  let r = Asv.run { Asv.default with Asv.clients = 24; Asv.batch = 8 } in
  check_int "all verified" 24 r.Asv.ar_verified;
  check_int "none rejected" 0 r.Asv.ar_rejected;
  check_int "batches" 3 r.Asv.ar_batches;
  check_int "one signature per client" 24 r.Asv.ar_signs;
  check_int "batch verifies" 3 r.Asv.ar_batch_verifies;
  check_bool "clean" true r.Asv.ar_clean

let test_attest_service_tampered () =
  let r =
    Asv.run
      {
        Asv.default with
        Asv.clients = 20;
        Asv.batch = 8;
        Asv.tamper_every = 5;
      }
  in
  check_int "tampered count" 4 r.Asv.ar_tampered;
  check_int "rejected = tampered" 4 r.Asv.ar_rejected;
  check_int "honest still verify" 16 r.Asv.ar_verified;
  check_bool "clean (rejections exactly the forgeries)" true r.Asv.ar_clean

(* The churn mix reinstalls from a bounded program population, so the
   monitor's measurement cache must be doing real work — and the run
   must stay architecturally clean while it does. *)
let test_churn_measurement_cache () =
  let r =
    W.run
      {
        W.default with
        W.mix = W.Churn;
        W.seed = "attest-scale-churn";
        W.enclaves = 24;
        W.rounds = 160;
      }
  in
  check_bool "drained" true r.W.rp_drained;
  check_bool "reclaimed" true r.W.rp_reclaimed;
  check_int "catalog silent" 0 (List.length r.W.rp_findings);
  check_bool "cache hits observed"
    true (r.W.rp_meas_cache_hits > 0);
  check_bool "hits + misses cover installs" true
    (r.W.rp_meas_cache_hits + r.W.rp_meas_cache_misses >= r.W.rp_installs)

let suite =
  ( "attest-scale",
    [
      QCheck_alcotest.to_alcotest qcheck_mont_mul;
      QCheck_alcotest.to_alcotest qcheck_mont_exp;
      QCheck_alcotest.to_alcotest qcheck_mont_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_field_mul;
      QCheck_alcotest.to_alcotest qcheck_field_kernel;
      QCheck_alcotest.to_alcotest qcheck_base_comb;
      QCheck_alcotest.to_alcotest qcheck_multi_scalar_mul;
      QCheck_alcotest.to_alcotest qcheck_signed_digits;
      QCheck_alcotest.to_alcotest qcheck_schoolbook_scalar_mul;
      QCheck_alcotest.to_alcotest qcheck_verify_differential;
      Alcotest.test_case "schnorr pinned vectors" `Quick test_schnorr_pinned;
      Alcotest.test_case "dh pinned vectors" `Quick test_dh_pinned;
      Alcotest.test_case "primality known answers" `Quick
        test_primality_known_answers;
      Alcotest.test_case "measurement cache invalidation" `Quick
        test_measurement_cache;
      Alcotest.test_case "batch verify soundness" `Quick test_batch_soundness;
      Alcotest.test_case "attest service clean" `Quick
        test_attest_service_clean;
      Alcotest.test_case "attest service tampered" `Quick
        test_attest_service_tampered;
      Alcotest.test_case "churn exercises measurement cache" `Quick
        test_churn_measurement_cache;
    ] )
