module C = Sanctorum_crypto
module Hex = Sanctorum_util.Hex
module O = Sanctorum_oracle

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let hex s = Hex.encode s

(* FIPS 202 vectors (cross-checked against Python hashlib). *)
let test_sha3_vectors () =
  check "sha3-256 empty"
    "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (hex (C.Sha3.sha3_256 ""));
  check "sha3-256 abc"
    "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    (hex (C.Sha3.sha3_256 "abc"));
  check "sha3-512 abc"
    "b751850b1a57168a5693cd924b6b096e08f621827444f70d884f5d0240d2712e10e116e9192af3c91a7ec57647e3934057340b4cf408d5a56592f8274eec53f0"
    (hex (C.Sha3.sha3_512 "abc"));
  check "shake128 abc"
    "5881092dd818bf5cf8a3ddb793fbcba7"
    (hex (C.Sha3.shake128 ~len:16 "abc"));
  let m1024 = String.concat "" (List.init 4 (fun _ -> String.init 256 Char.chr)) in
  check "sha3-256 1KiB"
    "b6c70631c6ff932b9f380d9cde8750eb9bea393817a9aea410c2119eb7b9b870"
    (hex (C.Sha3.sha3_256 m1024));
  check "sha3-512 1KiB"
    "b052fd4a09f988bbe4112d9a3eca8ccc517e56da866c1609504c37871146da80731bb681674a2000a41bcb78230b3d9069eb42820293ce23cba294550a1d4d3b"
    (hex (C.Sha3.sha3_512 m1024));
  check "shake256 1KiB"
    "60aff3fd4c0f158ba0ed6890336a907451281739d48cc8315211b3666061974229707d69e66dfc1961e752f68c312cdc17f006c5cebbb186c9fbc8e33e86fe0b"
    (hex (C.Sha3.shake256 ~len:64 m1024));
  (* Squeezes of three rate blocks (168 and 136 bytes), so two
     permutations after the one that follows the padding. *)
  check "shake128 abc, 500 bytes"
    (String.concat ""
       [ "5881092dd818bf5cf8a3ddb793fbcba74097d5c526a6d35f97b83351940f2cc8";
         "44c50af32acd3f2cdd066568706f509bc1bdde58295dae3f891a9a0fca578378";
         "9a41f8611214ce612394df286a62d1a2252aa94db9c538956c717dc2bed4f232";
         "a0294c857c730aa16067ac1062f1201fb0d377cfb9cde4c63599b27f3462bba4";
         "a0ed296c801f9ff7f57302bb3076ee145f97a32ae68e76ab66c48d51675bd49a";
         "cc29082f5647584e6aa01b3f5af057805f973ff8ecb8b226ac32ada6f01c1fcd";
         "4818cb006aa5b4cdb3611eb1e533c8964cacfdf31012cd3fb744d02225b988b4";
         "75375faad996eb1b9176ecb0f8b2871723d6dbb804e23357e50732f5cfc904b1";
         "319795000d7361d9e5e1b77b4b8f5774aa1482cfa58f83096bdb2e06a3eed543";
         "a38919b57ecbec737f4086be007f8ef80094ceea8807193d46e9be540b6e99b4";
         "c1c71507095028a024e8d39aa8f4c5854cedd50d30a223e7d54e9a24f0a2526b";
         "31002afbd1b4ebea69c8400c3deb4c1c35d6dbb75651b284076f5fde47b4a058";
         "6ee173e30bd4d08f2bc59c6114bdd745d20876bee2bf800bd7d8b5e51536c844";
         "c73256f7d1ada1870c7bbaf83af10a6fdd7c02967811815459cfd02d67b936e9";
         "75c6007c63ea7ae087f0a6b0a1319668bb61788eaa3d3b78e3f2061adcdead40";
         "7085901803ec6f17f0ec650a292198275211a56b" ])
    (hex (C.Sha3.shake128 ~len:500 "abc"));
  check "shake256 1KiB, 300 bytes"
    (String.concat ""
       [ "60aff3fd4c0f158ba0ed6890336a907451281739d48cc8315211b36660619742";
         "29707d69e66dfc1961e752f68c312cdc17f006c5cebbb186c9fbc8e33e86fe0b";
         "b2010239c56966db8c2ae64a20d0e05264429be6c76faa6e312c666b39e43576";
         "ed7dcc1cdf5cae1d1e907ebc83c1aedbb05fcdc950154e08fb3352ffe8e2e9b6";
         "31e54cd8fac408a921258eae6e4fa7e1b96da7c97d460369290d8149ba5daf37";
         "fdeb25521dd9bd65fa99b9d1706bebd4c12cea242027a7cdfae181d9d5c11cc7";
         "e970c3c7216f3222e327db585eea182d634d146c94cf2b7e6e2a74f3e0acb3b2";
         "ccef38e9e735b3c5779dffe3088ef82c89bb4522169991c0e7715775c5b1c6af";
         "27cb648cc4ee3d5f4c35fb1cf3f80efdcca3b24ca403558009b62dcc62dec465";
         "4fbbc2514038af7b49305e12" ])
    (hex (C.Sha3.shake256 ~len:300 m1024))

(* Rate-boundary messages exercise the padding logic. *)
let test_sha3_boundaries () =
  check "135 bytes" "8094bb53c44cfb1e67b7c30447f9a1c33696d2463ecc1d9c92538913392843c9"
    (hex (C.Sha3.sha3_256 (String.make 135 'a')));
  check "136 bytes" "3fc5559f14db8e453a0a3091edbd2bc25e11528d81c66fa570a4efdcc2695ee1"
    (hex (C.Sha3.sha3_256 (String.make 136 'a')));
  check "137 bytes" "f8d6846cedd2ccfadf15c5879ef95af724d799eed7391fb1c91f95344e738614"
    (hex (C.Sha3.sha3_256 (String.make 137 'a')))

let test_sha3_streaming () =
  let t = C.Sha3.init_sha3_256 () in
  C.Sha3.absorb t "ab";
  C.Sha3.absorb t "";
  C.Sha3.absorb t "c";
  check "streaming = one-shot" (hex (C.Sha3.sha3_256 "abc"))
    (hex (C.Sha3.finalize t ~len:32));
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha3.finalize: context already finalized") (fun () ->
      ignore (C.Sha3.finalize t ~len:32));
  Alcotest.check_raises "absorb after finalize"
    (Invalid_argument "Sha3.absorb: context already finalized") (fun () ->
      C.Sha3.absorb t "d")

(* The unboxed kernel against the boxed table-driven reference sponge
   (Sanctorum_oracle.Sha3_reference): a message of 0-600 bytes fed to
   the kernel in random pieces (empty ones included), one-shot to the
   reference, on all four variants, with SHAKE squeezing up to three
   rate blocks and 5 bytes. *)
let qcheck_sha3_differential =
  let shake rate = QCheck2.Gen.int_range 1 ((3 * rate) + 5) in
  let variants =
    [|
      ("sha3-256", C.Sha3.init_sha3_256, O.Sha3_reference.init_sha3_256, QCheck2.Gen.pure 32);
      ("sha3-512", C.Sha3.init_sha3_512, O.Sha3_reference.init_sha3_512, QCheck2.Gen.pure 64);
      ("shake128", C.Sha3.init_shake128, O.Sha3_reference.init_shake128, shake 168);
      ("shake256", C.Sha3.init_shake256, O.Sha3_reference.init_shake256, shake 136);
    |]
  in
  let gen =
    QCheck2.Gen.(
      let* v = int_range 0 3 in
      let* msg = string_size (int_range 0 600) in
      let* cuts = list_size (int_range 0 6) (int_range 0 (String.length msg)) in
      let _, _, _, gen_len = variants.(v) in
      let+ len = gen_len in
      (v, msg, List.sort compare cuts, len))
  in
  let print (v, msg, cuts, len) =
    let name, _, _, _ = variants.(v) in
    Printf.sprintf "%s len=%d cuts=[%s] msg=%s" name len
      (String.concat ";" (List.map string_of_int cuts))
      (hex msg)
  in
  QCheck2.Test.make ~name:"sha3: unboxed kernel = reference sponge" ~count:1000
    ~print gen (fun (v, msg, cuts, len) ->
      let _, init, init_reference, _ = variants.(v) in
      let t = init () in
      let last =
        List.fold_left
          (fun from cut ->
            C.Sha3.absorb t (String.sub msg from (cut - from));
            cut)
          0 cuts
      in
      C.Sha3.absorb t (String.sub msg last (String.length msg - last));
      let r = init_reference () in
      O.Sha3_reference.absorb r msg;
      C.Sha3.finalize t ~len = O.Sha3_reference.finalize r ~len)

let test_hmac () =
  let tag = C.Hmac.mac ~key:"key" "message" in
  Alcotest.(check int) "tag size" 32 (String.length tag);
  check_bool "verify ok" true (C.Hmac.verify ~key:"key" ~msg:"message" ~tag);
  check_bool "verify bad msg" false
    (C.Hmac.verify ~key:"key" ~msg:"messagf" ~tag);
  check_bool "verify bad key" false
    (C.Hmac.verify ~key:"kez" ~msg:"message" ~tag);
  (* long keys are hashed down *)
  let long_key = String.make 500 'k' in
  let tag2 = C.Hmac.mac ~key:long_key "m" in
  check_bool "long key verifies" true
    (C.Hmac.verify ~key:long_key ~msg:"m" ~tag:tag2);
  check_bool "distinct keys distinct tags" true (tag <> tag2)

let test_hkdf () =
  let a = C.Hkdf.derive ~salt:"s" ~ikm:"secret" ~info:"ctx" ~len:64 in
  let b = C.Hkdf.derive ~salt:"s" ~ikm:"secret" ~info:"ctx" ~len:64 in
  let c = C.Hkdf.derive ~salt:"s" ~ikm:"secret" ~info:"other" ~len:64 in
  Alcotest.(check int) "length" 64 (String.length a);
  check "deterministic" (hex a) (hex b);
  check_bool "info separates" true (a <> c);
  (* expand prefix property: a 32-byte request is a prefix of a 64-byte
     request with the same inputs *)
  let short = C.Hkdf.derive ~salt:"s" ~ikm:"secret" ~info:"ctx" ~len:32 in
  check "prefix" (hex short) (hex (String.sub a 0 32))

let test_drbg () =
  let r1 = C.Drbg.create ~seed:"seed" in
  let r2 = C.Drbg.create ~seed:"seed" in
  check "deterministic" (hex (C.Drbg.random_bytes r1 48))
    (hex (C.Drbg.random_bytes r2 48));
  check_bool "stream advances" true
    (C.Drbg.random_bytes r1 16 <> C.Drbg.random_bytes r1 16);
  let r3 = C.Drbg.create ~seed:"other" in
  check_bool "seed separates" true
    (C.Drbg.random_bytes r3 16 <> C.Drbg.random_bytes r2 16);
  let m = C.Bignum.of_int 1000 in
  for _ = 1 to 50 do
    let s = C.Drbg.random_scalar r1 ~m in
    if C.Bignum.is_zero s || C.Bignum.compare s m >= 0 then
      Alcotest.fail "random_scalar out of range"
  done

let bn = C.Bignum.of_decimal

let test_bignum_basic () =
  let a = bn "123456789012345678901234567890" in
  let b = bn "987654321098765432109876543210" in
  check "add" "1111111110111111111011111111100"
    (C.Bignum.to_hex (C.Bignum.add a b) |> fun h ->
     (* compare via decimal reconstruction instead *)
     ignore h;
     let sum = C.Bignum.add a b in
     if C.Bignum.equal sum (bn "1111111110111111111011111111100") then
       "1111111110111111111011111111100"
     else "mismatch");
  check_bool "sub" true
    (C.Bignum.equal (C.Bignum.sub b a) (bn "864197532086419753208641975320"));
  check_bool "mul" true
    (C.Bignum.equal (C.Bignum.mul a b)
       (bn "121932631137021795226185032733622923332237463801111263526900"));
  let q, r = C.Bignum.divmod b a in
  check_bool "div" true (C.Bignum.equal q (C.Bignum.of_int 8));
  check_bool "rem" true (C.Bignum.equal r (bn "9000000000900000000090"));
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (C.Bignum.sub a b));
  (match C.Bignum.divmod a C.Bignum.zero with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "division by zero not raised")

let test_bignum_modular () =
  let p = C.Field.p in
  let prime = O.Bignum_ref.is_probable_prime in
  check_bool "p is prime" true (prime p);
  check_bool "L is prime" true (prime C.Curve.order);
  check_bool "30 is composite" false (prime (C.Bignum.of_int 30));
  check_bool "2^61-1 prime" true
    (prime (C.Bignum.sub (C.Bignum.shift_left C.Bignum.one 61) C.Bignum.one));
  check_bool "2^67-1 composite" false
    (prime (C.Bignum.sub (C.Bignum.shift_left C.Bignum.one 67) C.Bignum.one));
  (* Fermat: a^(p-1) = 1 mod p *)
  let a = bn "31415926535897932384626433832795" in
  check_bool "fermat" true
    (C.Bignum.equal
       (O.Bignum_ref.mod_exp a (C.Bignum.sub p C.Bignum.one) ~m:p)
       C.Bignum.one);
  let inv = O.Bignum_ref.mod_inv a ~m:p in
  check_bool "mod_inv" true
    (C.Bignum.equal (C.Bignum.mod_mul a inv ~m:p) C.Bignum.one)

let test_bignum_bytes () =
  let a = bn "1234567890123456789" in
  let be = C.Bignum.to_bytes_be ~len:16 a in
  check_bool "be roundtrip" true (C.Bignum.equal (C.Bignum.of_bytes_be be) a);
  let le = C.Bignum.to_bytes_le ~len:16 a in
  check_bool "le roundtrip" true (C.Bignum.equal (C.Bignum.of_bytes_le le) a);
  check_bool "hex roundtrip" true
    (C.Bignum.equal (O.Bignum_ref.of_hex (C.Bignum.to_hex a)) a)

let gen_bignum =
  QCheck2.Gen.(
    map
      (fun l -> C.Bignum.of_bytes_be (String.concat "" (List.map (String.make 1) l)))
      (list_size (int_range 0 40) char))

let qcheck_bignum_add_sub =
  QCheck2.Test.make ~name:"bignum (a+b)-b = a" ~count:300
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) ->
      C.Bignum.equal (C.Bignum.sub (C.Bignum.add a b) b) a)

let qcheck_bignum_divmod =
  QCheck2.Test.make ~name:"bignum divmod reconstruction" ~count:300
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) ->
      if C.Bignum.is_zero b then true
      else begin
        let q, r = C.Bignum.divmod a b in
        C.Bignum.compare r b < 0
        && C.Bignum.equal (C.Bignum.add (C.Bignum.mul q b) r) a
      end)

let qcheck_bignum_mul_comm =
  QCheck2.Test.make ~name:"bignum mul commutes" ~count:200
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) -> C.Bignum.equal (C.Bignum.mul a b) (C.Bignum.mul b a))

let qcheck_bignum_shift =
  QCheck2.Test.make ~name:"bignum shift left/right inverse" ~count:200
    QCheck2.Gen.(pair gen_bignum (int_range 0 100))
    (fun (a, n) ->
      C.Bignum.equal (C.Bignum.shift_right (C.Bignum.shift_left a n) n) a)

let test_field () =
  let x = C.Field.of_int 12345 in
  let y = C.Field.of_int 67890 in
  check_bool "add comm" true
    (C.Field.equal (C.Field.add x y) (C.Field.add y x));
  check_bool "inv" true
    (C.Field.equal (C.Field.mul x (C.Field.inv x)) C.Field.one);
  check_bool "neg" true
    (C.Field.equal (C.Field.add x (C.Field.neg x)) C.Field.zero);
  (* sqrt of a square is a square root *)
  let sq = C.Field.square x in
  (match C.Field.sqrt sq with
  | None -> Alcotest.fail "square has no root"
  | Some r -> check_bool "sqrt" true (C.Field.equal (C.Field.square r) sq));
  (* -1 is a QR mod p (p = 1 mod 4), 2 is not a QR mod 2^255-19 *)
  (match C.Field.sqrt (C.Field.neg C.Field.one) with
  | None -> Alcotest.fail "-1 should be a QR"
  | Some r ->
      check_bool "sqrt(-1)^2 = -1" true
        (C.Field.equal (C.Field.square r) (C.Field.neg C.Field.one)));
  check_bool "2 is not a QR" true (C.Field.sqrt (C.Field.of_int 2) = None);
  (* byte roundtrip *)
  let b = C.Field.to_bytes_le x in
  Alcotest.(check int) "32 bytes" 32 (String.length b);
  check_bool "bytes roundtrip" true
    (Option.fold ~none:false ~some:(C.Field.equal x) (C.Field.of_bytes_le b));
  check_bool "p itself is not an encoding" true
    (C.Field.of_bytes_le (C.Bignum.to_bytes_le ~len:32 C.Field.p) = None)

let test_curve () =
  let module Cv = C.Curve in
  check_bool "base on curve" true (Cv.is_on_curve Cv.base);
  check_bool "identity on curve" true (Cv.is_on_curve Cv.identity);
  (* Base point matches the published Ed25519 constants. *)
  let x, y = Cv.to_affine Cv.base in
  check "Bx"
    "216936d3cd6e53fec0a4e231fdd6dc5c692cc7609525a7b2c9562d608f25d51a"
    (C.Bignum.to_hex (C.Field.to_bignum x));
  check "By"
    "6666666666666666666666666666666666666666666666666666666666666658"
    (C.Bignum.to_hex (C.Field.to_bignum y));
  (* group laws *)
  let p2 = Cv.double Cv.base in
  check_bool "2B = B+B" true (Cv.equal p2 (Cv.add Cv.base Cv.base));
  check_bool "B + id = B" true (Cv.equal (Cv.add Cv.base Cv.identity) Cv.base);
  check_bool "B - B = id" true
    (Cv.equal (Cv.add Cv.base (Cv.negate Cv.base)) Cv.identity);
  check_bool "L*B = id" true
    (Cv.equal (Cv.scalar_mul Cv.order Cv.base) Cv.identity);
  let three = C.Bignum.of_int 3 and two = C.Bignum.of_int 2 in
  check_bool "3B = 2B + B" true
    (Cv.equal (Cv.scalar_mul three Cv.base) (Cv.add (Cv.scalar_mul two Cv.base) Cv.base));
  (* encode / decode *)
  let e = Cv.encode p2 in
  Alcotest.(check int) "encoded size" Cv.encoded_size (String.length e);
  (match Cv.decode e with
  | Ok q -> check_bool "decode roundtrip" true (Cv.equal q p2)
  | Error m -> Alcotest.fail m);
  (match Cv.decode (String.make Cv.encoded_size '\x01') with
  | Ok _ -> Alcotest.fail "junk decoded as a point"
  | Error _ -> ());
  (match Cv.decode "short" with
  | Ok _ -> Alcotest.fail "short string decoded"
  | Error _ -> ());
  (* A coordinate plus p still fits in 32 bytes and names the same
     point: every decoder must refuse it, so each point (a key, a
     commitment) has exactly one encoding. *)
  let x, y = Cv.to_affine (Cv.scalar_mul (C.Bignum.of_int 12345) Cv.base) in
  let plus_p f =
    C.Bignum.to_bytes_le ~len:32 (C.Bignum.add (C.Field.to_bignum f) C.Field.p)
  in
  let canonical = C.Field.to_bytes_le in
  check_bool "canonical bytes decode" true
    (Result.is_ok (Cv.decode (canonical x ^ canonical y)));
  List.iter
    (fun (label, bytes) ->
      check_bool (label ^ ": Curve.decode") true (Result.is_error (Cv.decode bytes));
      check_bool (label ^ ": Schnorr.public_key_of_bytes") true
        (Result.is_error (C.Schnorr.public_key_of_bytes bytes));
      check_bool (label ^ ": Dh.public_of_bytes") true
        (Result.is_error (C.Dh.public_of_bytes bytes)))
    [ ("x + p", plus_p x ^ canonical y); ("y + p", canonical x ^ plus_p y) ]

let qcheck_curve_scalar_homomorphism =
  let gen = QCheck2.Gen.(pair (int_range 1 5000) (int_range 1 5000)) in
  QCheck2.Test.make ~name:"(a+b)B = aB + bB" ~count:20 gen (fun (a, b) ->
      let module Cv = C.Curve in
      let open C.Bignum in
      Cv.equal
        (Cv.scalar_mul (of_int (a + b)) Cv.base)
        (Cv.add (Cv.scalar_mul (of_int a) Cv.base) (Cv.scalar_mul (of_int b) Cv.base)))

let test_schnorr () =
  let sk = C.Schnorr.secret_key_of_seed "alpha" in
  let pk = C.Schnorr.public_key sk in
  let s = C.Schnorr.sign sk "hello world" in
  Alcotest.(check int) "sig size" C.Schnorr.signature_size (String.length s);
  check_bool "verify" true (C.Schnorr.verify pk ~msg:"hello world" ~signature:s);
  check_bool "wrong msg" false (C.Schnorr.verify pk ~msg:"hello worle" ~signature:s);
  check_bool "empty msg verify" true
    (C.Schnorr.verify pk ~msg:"" ~signature:(C.Schnorr.sign sk ""));
  (* tamper every component *)
  let flip i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
  in
  check_bool "tampered R" false
    (C.Schnorr.verify pk ~msg:"hello world" ~signature:(flip 0));
  check_bool "tampered s" false
    (C.Schnorr.verify pk ~msg:"hello world"
       ~signature:(flip (C.Schnorr.signature_size - 1)));
  check_bool "truncated" false
    (C.Schnorr.verify pk ~msg:"hello world" ~signature:(String.sub s 0 64));
  (* wrong key *)
  let pk2 = C.Schnorr.public_key (C.Schnorr.secret_key_of_seed "beta") in
  check_bool "wrong key" false
    (C.Schnorr.verify pk2 ~msg:"hello world" ~signature:s);
  (* determinism of key derivation *)
  let sk' = C.Schnorr.secret_key_of_seed "alpha" in
  check "deterministic keys"
    (hex (C.Schnorr.public_key_to_bytes pk))
    (hex (C.Schnorr.public_key_to_bytes (C.Schnorr.public_key sk')));
  (* public key bytes roundtrip *)
  match C.Schnorr.public_key_of_bytes (C.Schnorr.public_key_to_bytes pk) with
  | Ok pk3 ->
      check_bool "pk roundtrip verifies" true
        (C.Schnorr.verify pk3 ~msg:"hello world" ~signature:s)
  | Error m -> Alcotest.fail m

let test_dh () =
  let rng = C.Drbg.create ~seed:"dh" in
  let sa, pa = C.Dh.generate rng in
  let sb, pb = C.Dh.generate rng in
  check "shared key agreement" (hex (C.Dh.shared_key sa pb))
    (hex (C.Dh.shared_key sb pa));
  let sc, _pc = C.Dh.generate rng in
  check_bool "third party differs" true
    (C.Dh.shared_key sc pb <> C.Dh.shared_key sa pb);
  match C.Dh.public_of_bytes (C.Dh.public_to_bytes pa) with
  | Ok pa' -> check "pub roundtrip" (hex (C.Dh.shared_key sb pa)) (hex (C.Dh.shared_key sb pa'))
  | Error m -> Alcotest.fail m

(* A chain verifies when every claim its walk yields verifies. *)
let chain_verifies ~root certs =
  match C.Cert.signature_claims ~root certs with
  | Error _ -> false
  | Ok (claims, _) -> Array.for_all Fun.id (C.Schnorr.verify_batch claims)

let test_cert () =
  let root = C.Schnorr.secret_key_of_seed "root" in
  let mid = C.Schnorr.secret_key_of_seed "mid" in
  let leaf = C.Schnorr.secret_key_of_seed "leaf" in
  let c1 =
    C.Cert.issue ~issuer:"root" ~issuer_key:root ~subject:"mid"
      ~subject_key:(C.Schnorr.public_key mid) ()
  in
  let c2 =
    C.Cert.issue ~issuer:"mid" ~issuer_key:mid ~subject:"leaf"
      ~subject_key:(C.Schnorr.public_key leaf)
      ~bound_measurement:(C.Sha3.sha3_256 "binary") ()
  in
  let pk = C.Schnorr.public_key in
  check_bool "sig ok" true (chain_verifies ~root:(pk root) [ c1 ]);
  check_bool "sig wrong issuer" false (chain_verifies ~root:(pk mid) [ c1 ]);
  check_bool "chain" true (chain_verifies ~root:(pk root) [ c1; c2 ]);
  check_bool "chain under wrong root" false
    (chain_verifies ~root:(pk mid) [ c1; c2 ]);
  check_bool "reordered chain" false
    (chain_verifies ~root:(pk root) [ c2; c1 ]);
  check_bool "empty chain" false (chain_verifies ~root:(pk root) []);
  (match C.Cert.signature_claims ~root:(pk root) [ c1; c2 ] with
  | Ok (_, key) ->
      check "walk ends at the leaf key"
        (hex (C.Schnorr.public_key_to_bytes (pk leaf)))
        (hex (C.Schnorr.public_key_to_bytes key))
  | Error m -> Alcotest.fail m);
  (* serialization roundtrip *)
  (match C.Cert.deserialize (C.Cert.serialize c2) with
  | Ok c2' ->
      check_bool "roundtrip verifies" true (chain_verifies ~root:(pk mid) [ c2' ]);
      check_bool "measurement kept" true
        (c2'.C.Cert.bound_measurement = c2.C.Cert.bound_measurement)
  | Error m -> Alcotest.fail m);
  (* tampered serialization *)
  let blob = C.Cert.serialize c2 in
  let tampered =
    String.mapi
      (fun i c -> if i = String.length blob - 1 then Char.chr (Char.code c lxor 1) else c)
      blob
  in
  match C.Cert.deserialize tampered with
  | Ok c2t ->
      check_bool "tampered does not verify" false
        (chain_verifies ~root:(pk mid) [ c2t ])
  | Error _ -> ()

let suite =
  ( "crypto",
    [
      Alcotest.test_case "sha3 FIPS vectors" `Quick test_sha3_vectors;
      Alcotest.test_case "sha3 rate boundaries" `Quick test_sha3_boundaries;
      Alcotest.test_case "sha3 streaming" `Quick test_sha3_streaming;
      QCheck_alcotest.to_alcotest qcheck_sha3_differential;
      Alcotest.test_case "hmac" `Quick test_hmac;
      Alcotest.test_case "hkdf" `Quick test_hkdf;
      Alcotest.test_case "drbg" `Quick test_drbg;
      Alcotest.test_case "bignum basics" `Quick test_bignum_basic;
      Alcotest.test_case "bignum modular" `Quick test_bignum_modular;
      Alcotest.test_case "bignum bytes" `Quick test_bignum_bytes;
      QCheck_alcotest.to_alcotest qcheck_bignum_add_sub;
      QCheck_alcotest.to_alcotest qcheck_bignum_divmod;
      QCheck_alcotest.to_alcotest qcheck_bignum_mul_comm;
      QCheck_alcotest.to_alcotest qcheck_bignum_shift;
      Alcotest.test_case "field GF(2^255-19)" `Quick test_field;
      Alcotest.test_case "curve group law" `Quick test_curve;
      QCheck_alcotest.to_alcotest qcheck_curve_scalar_homomorphism;
      Alcotest.test_case "schnorr signatures" `Quick test_schnorr;
      Alcotest.test_case "diffie-hellman" `Quick test_dh;
      Alcotest.test_case "certificates" `Quick test_cert;
    ] )
