(* A public key carries a use counter and, once it has proven to be
   long-lived (second verification), a fixed-base window table — so
   repeated verifications against the same key (the signing enclave's
   key, a manufacturer root) cost 64 additions instead of a full
   variable-base multiply. The secret key caches its public half so
   [sign] never recomputes it. None of this changes a single byte of
   any signature or verdict. *)

type public_key = {
  pt : Curve.point;
  mutable uses : int;
  mutable tbl : Curve.table option;
}

type secret_key = { scalar : Bignum.t; seed : string; pk : public_key }

let pk_of_point pt = { pt; uses = 0; tbl = None }
let scalar_of_hash data = Bignum.rem (Bignum.of_bytes_be data) Curve.order

let nonzero_scalar_of_hash data =
  let s = scalar_of_hash data in
  if Bignum.is_zero s then Bignum.one else s

let secret_key_of_seed seed =
  let scalar =
    nonzero_scalar_of_hash (Sha3.sha3_512 ("sanctorum-schnorr-key" ^ seed))
  in
  { scalar; seed; pk = pk_of_point (Curve.scalar_mul_base scalar) }

let public_key sk = sk.pk
let public_key_to_bytes pk = Curve.encode pk.pt
let public_key_of_bytes s = Result.map pk_of_point (Curve.decode s)
let signature_size = Curve.encoded_size + 32

(* Build the window table on the second use: one-shot verifications
   never pay the table construction, steady-state ones always hit it. *)
let table_threshold = 2

let pk_mul pk c =
  match pk.tbl with
  | Some t -> Curve.table_mul t c
  | None ->
      pk.uses <- pk.uses + 1;
      if pk.uses >= table_threshold then begin
        let t = Curve.make_table pk.pt in
        pk.tbl <- Some t;
        Curve.table_mul t c
      end
      else Curve.scalar_mul c pk.pt

let challenge ~commitment ~pk ~msg =
  scalar_of_hash
    (Sha3.sha3_512
       ("sanctorum-schnorr-chal" ^ Curve.encode commitment
      ^ Curve.encode pk.pt ^ msg))

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
    (Curve.add cl.commitment (pk_mul cl.pk cl.c))

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
    Sha3.sha3_256 (transcript ^ Sanctorum_util.Bytesx.of_int64_le (Int64.of_int i))
  in
  let z = Bignum.of_bytes_be (String.sub h 0 16) in
  if Bignum.is_zero z then Bignum.one else z

let verify_batch items =
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
        Buffer.add_string buf (Curve.encode cl.pk.pt);
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
          let key = Curve.encode cl.pk.pt in
          (match Hashtbl.find_opt per_key key with
          | Some (acc, _) -> acc := Bignum.mod_add !acc zc ~m
          | None -> Hashtbl.add per_key key (ref zc, cl.pk.pt));
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

let pp_public_key ppf pk =
  Format.fprintf ppf "%s"
    (Sanctorum_util.Hex.encode (String.sub (Curve.encode pk.pt) 0 8))
