type public_key = Curve.point

(* The secret key caches its public half, so [sign] never recomputes
   it. *)
type secret_key = { scalar : Bignum.t; seed : string; pk : public_key }

let scalar_of_hash data = Bignum.rem (Bignum.of_bytes_be data) Curve.order

let nonzero_scalar_of_hash data =
  let s = scalar_of_hash data in
  if Bignum.is_zero s then Bignum.one else s

let secret_key_of_seed seed =
  let scalar =
    nonzero_scalar_of_hash (Sha3.sha3_512 ("sanctorum-schnorr-key" ^ seed))
  in
  { scalar; seed; pk = Curve.scalar_mul_base scalar }

let public_key sk = sk.pk
let public_key_to_bytes = Curve.encode
let public_key_of_bytes = Curve.decode
let signature_size = Curve.encoded_size + 32

let challenge ~commitment ~pk ~msg =
  scalar_of_hash
    (Sha3.sha3_512
       ("sanctorum-schnorr-chal" ^ Curve.encode commitment
      ^ Curve.encode pk ^ msg))

let sign sk msg =
  let r =
    nonzero_scalar_of_hash
      (Sha3.sha3_512 ("sanctorum-schnorr-nonce" ^ sk.seed ^ msg))
  in
  let commitment = Curve.scalar_mul_base r in
  let c = challenge ~commitment ~pk:sk.pk ~msg in
  let s =
    Bignum.mod_add r (Bignum.mod_mul c sk.scalar ~m:Curve.order) ~m:Curve.order
  in
  Curve.encode commitment ^ Bignum.to_bytes_be ~len:32 s

(* One acceptance rule for every check, single or batched: P = Q up to
   a small-order component, i.e. [8](P - Q) = O (the cofactored rule).
   Honest signatures meet P = Q exactly and never pay the doublings. A
   signer holding the key can add a small-order point to its commitment;
   every path accepts such a signature, where a cofactorless single
   check would reject it and a random linear combination would accept
   it about half the time. *)
let holds p q =
  Curve.equal p q
  ||
  let e = Curve.add p (Curve.negate q) in
  Curve.equal (Curve.double (Curve.double (Curve.double e))) Curve.identity

type claim = {
  pk : public_key;
  msg : string;
  commitment : Curve.point;
  s : Bignum.t;
  c : Bignum.t;
}

(* Parse and challenge; [None] for a structurally invalid signature. *)
let claim pk ~msg ~signature =
  if String.length signature <> signature_size then None
  else
    match Curve.decode (String.sub signature 0 Curve.encoded_size) with
    | Error _ -> None
    | Ok commitment ->
        let s =
          Bignum.of_bytes_be (String.sub signature Curve.encoded_size 32)
        in
        if Bignum.compare s Curve.order >= 0 then None
        else Some { pk; msg; commitment; s; c = challenge ~commitment ~pk ~msg }

(* s·B = R + c·A *)
let claim_holds cl =
  holds (Curve.scalar_mul_base cl.s)
    (Curve.add cl.commitment (Curve.scalar_mul cl.c cl.pk))

let verify pk ~msg ~signature =
  match claim pk ~msg ~signature with None -> false | Some cl -> claim_holds cl

(* ------------------------------------------------------------------ *)
(* Batch verification: check Σ zᵢsᵢ·B = Σ zᵢ·Rᵢ + Σ (zᵢcᵢ)·Aⱼ for
   random 128-bit coefficients zᵢ derived Fiat–Shamir-style from the
   whole batch, with the Aⱼ terms grouped per distinct key. One curve
   equation replaces N. Under the cofactored rule the combination only
   sees each item's error term sᵢ·B - Rᵢ - cᵢ·Aᵢ multiplied by 8, which
   drops any small-order component: valid items always pass it, and an
   invalid item fails it with probability 1 - 2^-128. The per-item
   fallback then pinpoints exactly which items are bad. *)

let batch_coefficient transcript i =
  let h =
    Sha3.sha3_256
      (transcript ^ Sanctorum_util.Bytesx.of_int64_le (Int64.of_int i))
  in
  let z = Bignum.of_bytes_be (String.sub h 0 16) in
  if Bignum.is_zero z then Bignum.one else z

let verify_distinct items =
  let items = Array.of_list items in
  let results = Array.make (Array.length items) false in
  let parsed = ref [] in
  for i = Array.length items - 1 downto 0 do
    let pk, msg, signature = items.(i) in
    match claim pk ~msg ~signature with
    | None -> () (* structurally invalid: stays false *)
    | Some cl -> parsed := (i, cl) :: !parsed
  done;
  let parsed = !parsed in
  if parsed = [] then results
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf "sanctorum-schnorr-batch";
    List.iter
      (fun (_, cl) ->
        Buffer.add_string buf (Curve.encode cl.pk);
        Buffer.add_string buf (Sha3.sha3_256 cl.msg);
        Buffer.add_string buf (Curve.encode cl.commitment);
        Buffer.add_string buf (Bignum.to_bytes_be ~len:32 cl.s))
      parsed;
    let transcript = Sha3.sha3_512 (Buffer.contents buf) in
    let m = Curve.order in
    let lhs = ref Bignum.zero in
    let per_key : (string, Bignum.t ref * Curve.point) Hashtbl.t =
      Hashtbl.create 16
    in
    let commitments =
      List.mapi
        (fun j (_, cl) ->
          let z = batch_coefficient transcript j in
          lhs := Bignum.mod_add !lhs (Bignum.mod_mul z cl.s ~m) ~m;
          let zc = Bignum.mod_mul z cl.c ~m in
          let key = Curve.encode cl.pk in
          (match Hashtbl.find_opt per_key key with
          | Some (acc, _) -> acc := Bignum.mod_add !acc zc ~m
          | None -> Hashtbl.add per_key key (ref zc, cl.pk));
          (z, cl.commitment))
        parsed
    in
    let terms =
      Hashtbl.fold (fun _ (acc, pt) l -> (!acc, pt) :: l) per_key commitments
    in
    if holds (Curve.scalar_mul_base !lhs) (Curve.multi_scalar_mul terms)
    then begin
      List.iter (fun (i, _) -> results.(i) <- true) parsed;
      results
    end
    else begin
      (* Pinpoint the offenders one by one. *)
      List.iter (fun (i, cl) -> results.(i) <- claim_holds cl) parsed;
      results
    end
  end

(* Repeats share one verdict: an attestation batch carries each
   device's certificate signatures once per evidence item, so most of
   its claims are copies. Only the key encoding, message and signature
   together decide a verdict, so all three make the repeat. *)
let verify_batch items =
  let seen = Hashtbl.create 16 and distinct = ref [] and slots = ref [] in
  List.iter
    (fun ((pk, msg, signature) as item) ->
      let key = (Curve.encode pk, msg, signature) in
      let slot =
        match Hashtbl.find_opt seen key with
        | Some slot -> slot
        | None ->
            let slot = Hashtbl.length seen in
            Hashtbl.add seen key slot;
            distinct := item :: !distinct;
            slot
      in
      slots := slot :: !slots)
    items;
  let verdicts = verify_distinct (List.rev !distinct) in
  Array.of_list (List.rev_map (fun slot -> verdicts.(slot)) !slots)
