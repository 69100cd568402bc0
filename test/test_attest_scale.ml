(* The attestation fast path, held to the old tier's bytes.

   Every optimization behind `bench attest` — Montgomery bignum
   arithmetic, fixed-base window tables, Strauss multi-scalar
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
      let m = if C.Bignum.is_even b then C.Bignum.add b C.Bignum.one else b in
      if C.Bignum.compare m (C.Bignum.of_int 3) < 0 then C.Bignum.of_int 3
      else m)
    gen_bignum

let qcheck_mont_mul =
  QCheck2.Test.make ~name:"mont mod_mul = schoolbook mod_mul" ~count:300
    QCheck2.Gen.(triple gen_odd_modulus gen_bignum gen_bignum)
    (fun (m, a, b) ->
      let ctx = C.Bignum.Mont.create m in
      C.Bignum.equal
        (O.Bignum_ref.mont_mod_mul ctx a b)
        (C.Bignum.mod_mul a b ~m))

let qcheck_mont_exp =
  QCheck2.Test.make ~name:"mont_exp = mod_exp" ~count:60
    QCheck2.Gen.(triple gen_odd_modulus gen_bignum gen_bignum)
    (fun (m, b, e) ->
      let ctx = C.Bignum.Mont.create m in
      C.Bignum.equal (O.Bignum_ref.mont_exp ctx b e) (O.Bignum_ref.mod_exp b e ~m))

let qcheck_mont_roundtrip =
  QCheck2.Test.make ~name:"mont to/of roundtrip and one" ~count:200
    QCheck2.Gen.(pair gen_odd_modulus gen_bignum)
    (fun (m, a) ->
      let ctx = C.Bignum.Mont.create m in
      let am = C.Bignum.Mont.to_mont ctx a in
      C.Bignum.equal (C.Bignum.Mont.of_mont ctx am) (C.Bignum.rem a m)
      && C.Bignum.equal
           (C.Bignum.Mont.of_mont ctx (C.Bignum.Mont.one_m ctx))
           (C.Bignum.rem C.Bignum.one m))

let qcheck_field_mul =
  QCheck2.Test.make ~name:"field mul = bignum mod_mul" ~count:200
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) ->
      let fa = C.Field.of_bignum a and fb = C.Field.of_bignum b in
      C.Bignum.equal
        (C.Field.to_bignum (C.Field.mul fa fb))
        (C.Bignum.mod_mul a b ~m:C.Field.p))

let gen_scalar = QCheck2.Gen.map (fun b -> C.Bignum.rem b C.Curve.order) gen_bignum

(* 0, 1, L-1, L, L+1, and one scalar wider than the 256 bits a table
   covers. *)
let edge_scalars =
  let l = C.Curve.order in
  C.Bignum.
    [ zero; one; sub l one; l; add l one; add (shift_left one 300) (of_int 12345) ]

(* The windowed paths against the oracle's plain double-and-add: the
   Strauss [scalar_mul] and both comb widths (per-key 4-bit tables and
   the generator's 8-bit one). *)
let qcheck_table_mul =
  QCheck2.Test.make ~name:"table_mul = scalar_mul" ~count:30
    QCheck2.Gen.(pair gen_scalar gen_scalar)
    (fun (k, kp) ->
      let p = C.Curve.scalar_mul kp C.Curve.base in
      let t = C.Curve.make_table p in
      List.for_all
        (fun k ->
          let expect = O.Curve_ref.double_and_add k p in
          C.Curve.equal (C.Curve.table_mul t k) expect
          && C.Curve.equal (C.Curve.scalar_mul k p) expect
          && C.Curve.equal (C.Curve.scalar_mul_base k)
               (O.Curve_ref.double_and_add k C.Curve.base))
        (k :: edge_scalars))

let qcheck_multi_scalar_mul =
  QCheck2.Test.make ~name:"multi_scalar_mul = sum of scalar_mul" ~count:30
    QCheck2.Gen.(list_size (int_range 0 5) (pair gen_scalar gen_scalar))
    (fun pairs ->
      let terms =
        List.map (fun (k, kp) -> (k, C.Curve.scalar_mul kp C.Curve.base)) pairs
      in
      let expect =
        List.fold_left
          (fun acc (k, p) -> C.Curve.add acc (O.Curve_ref.double_and_add k p))
          C.Curve.identity terms
      in
      C.Curve.equal (C.Curve.multi_scalar_mul terms) expect)

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
  (* repeated verification against the same key crosses the
     table-building threshold; the verdicts must not change *)
  let signature = C.Schnorr.sign sk "hello world" in
  for _ = 1 to 4 do
    check_bool "verify stable across table build" true
      (C.Schnorr.verify pk ~msg:"hello world" ~signature)
  done

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
    [ ("order 2", O.Curve_ref.order_2); ("order 4", O.Curve_ref.order_4) ]

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
      QCheck_alcotest.to_alcotest qcheck_table_mul;
      QCheck_alcotest.to_alcotest qcheck_multi_scalar_mul;
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
