module Hw = Sanctorum_hw
module Crypto = Sanctorum_crypto

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* The signing enclave: a canonical one-page image whose measurement is
   the constant the monitor trusts. Its behaviour is modeled natively;
   the image (an idle loop) pins down its identity. *)

let signing_image =
  Image.of_program ~evbase:0x10000 ~data_pages:1 [ Hw.Isa.j 0 ]

let signing_expected_measurement = Image.measurement signing_image

(* ------------------------------------------------------------------ *)
(* Evidence *)

type evidence = {
  enclave_measurement : string;
  channel_binding : string;
  nonce : string;
  signature : string;
  certificates : string;
}

let attested_payload e =
  "sanctorum-attestation" ^ e.nonce ^ e.channel_binding ^ e.enclave_measurement

let request_message ~nonce ~channel_binding = nonce ^ channel_binding

(* Mailbox messages are fixed-size; requests are nonce (32) followed by
   channel binding (32), everything else zero. *)
let split_request msg =
  if String.length msg < 64 then None
  else Some (String.sub msg 0 32, String.sub msg 32 32)

(* The signing enclave's service round, a native model of its program
   acting as [Enclave_caller es_eid]: read (nonce ∥ channel binding)
   from the requester's mail — the requester's measurement comes from
   the monitor's tag, not from the message — fetch the monitor key,
   sign, and mail the signature back. *)
let signing_enclave_respond sm ~es_eid ~requester =
  let caller = Sm.Enclave_caller es_eid in
  let* msg, requester_measurement =
    Sm.get_mail sm ~caller ~sender:(Mailbox.From_enclave requester)
  in
  match split_request msg with
  | None -> Error (Api_error.Illegal_argument "malformed attestation request")
  | Some (nonce, channel_binding) ->
      let* key = Sm.get_signing_key sm ~caller in
      let payload =
        attested_payload
          {
            enclave_measurement = requester_measurement;
            channel_binding;
            nonce;
            signature = "";
            certificates = "";
          }
      in
      let signature = Crypto.Schnorr.sign key payload in
      Sanctorum_telemetry.Sink.incr_counter (Sm.sink sm) "crypto.sign";
      Sm.send_mail sm ~caller ~recipient:requester ~msg:signature

let request_attestation sm ~eid ~es_eid ~nonce ~channel_binding =
  if String.length nonce <> 32 || String.length channel_binding <> 32 then
    Error (Api_error.Illegal_argument "nonce and binding must be 32 bytes")
  else begin
    let caller = Sm.Enclave_caller eid in
    (* Step 3 (Fig. 7): the enclave asks E_S to sign its measurement. *)
    let* () = Sm.accept_mail sm ~caller ~sender:(Mailbox.From_enclave es_eid) in
    (* E_S readies a mailbox so the request can land. *)
    let* () =
      Sm.accept_mail sm ~caller:(Sm.Enclave_caller es_eid)
        ~sender:(Mailbox.From_enclave eid)
    in
    let* () =
      Sm.send_mail sm ~caller ~recipient:es_eid
        ~msg:(request_message ~nonce ~channel_binding)
    in
    (* Steps 4–5: E_S fetches the key and signs (scheduled by the OS;
       modeled as a direct call). *)
    let* () = signing_enclave_respond sm ~es_eid ~requester:eid in
    (* Step 6: collect the signature; authenticate the responder by the
       measurement tag the monitor recorded. *)
    let* sig_msg, responder_measurement =
      Sm.get_mail sm ~caller ~sender:(Mailbox.From_enclave es_eid)
    in
    if
      not
        (Sanctorum_util.Bytesx.constant_time_equal responder_measurement
           (Sm.get_field sm Sm.Field_signing_measurement))
    then Error Api_error.Unauthorized
    else begin
      let* own_measurement = Sm.enclave_measurement sm ~eid in
      let signature = String.sub sig_msg 0 Crypto.Schnorr.signature_size in
      Ok
        {
          enclave_measurement = own_measurement;
          channel_binding;
          nonce;
          signature;
          certificates = Sm.get_field sm Sm.Field_certificates;
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* Verifier side *)

(* One path checks evidence. Per item, the structural checks and the
   certificate chain walk produce its Schnorr claims (each certificate,
   then the evidence signature), each paired with the rejection it
   names; every claim of every item then goes through one
   random-linear-combination batch, whose fallback pinpoints a bad
   item. A single verification is a batch of one. *)

type batch_request = {
  vr_root : Crypto.Schnorr.public_key;
  vr_expected_measurement : string;
  vr_nonce : string;
  vr_channel_binding : string;
  vr_evidence : evidence;
}

let claims r =
  let e = r.vr_evidence in
  if e.nonce <> r.vr_nonce then Error "nonce mismatch"
  else if e.channel_binding <> r.vr_channel_binding then Error "channel mismatch"
  else if
    not
      (Sanctorum_util.Bytesx.constant_time_equal e.enclave_measurement
         r.vr_expected_measurement)
  then Error "enclave measurement mismatch"
  else begin
    let* certs = Crypto.Cert.parse_chain e.certificates in
    let* cert_claims, sm_key = Crypto.Cert.signature_claims ~root:r.vr_root certs in
    let named (c : Crypto.Cert.t) claim =
      (Printf.sprintf "Cert: bad signature on %S" c.subject, claim)
    in
    Ok
      (List.map2 named certs cert_claims
      @ [ ("attestation signature invalid",
           (sm_key, attested_payload e, e.signature)) ])
  end

let verify_evidence_batch reqs =
  let items = Array.of_list (List.map claims reqs) in
  let verdicts =
    Crypto.Schnorr.verify_batch
      (List.concat_map
         (function Ok cs -> List.map snd cs | Error _ -> [])
         (Array.to_list items))
  in
  let results = Array.make (Array.length items) (Ok ()) in
  let next = ref 0 in
  Array.iteri
    (fun i item ->
      match item with
      | Error msg -> results.(i) <- Error msg
      | Ok cs -> (
          let first = !next in
          next := first + List.length cs;
          (* the first failing claim names the rejection, as a walk
             down the chain would *)
          match List.filteri (fun j _ -> not verdicts.(first + j)) cs with
          | (msg, _) :: _ -> results.(i) <- Error msg
          | [] -> ()))
    items;
  results

let verify_evidence ~root ~expected_measurement ~nonce ~channel_binding e =
  let req =
    { vr_root = root; vr_expected_measurement = expected_measurement;
      vr_nonce = nonce; vr_channel_binding = channel_binding; vr_evidence = e }
  in
  (verify_evidence_batch [ req ]).(0)

(* ------------------------------------------------------------------ *)
(* End-to-end drivers *)

let local_attest sm ~verifier ~prover ~expected =
  let challenge = "local-attestation-challenge" in
  (* ① E2 readies a mailbox for E1; ② E1 sends; ③ E2 fetches;
     ④ E2 compares the monitor-recorded measurement. *)
  let* () =
    Sm.accept_mail sm ~caller:(Sm.Enclave_caller verifier)
      ~sender:(Mailbox.From_enclave prover)
  in
  let* () =
    Sm.send_mail sm ~caller:(Sm.Enclave_caller prover) ~recipient:verifier
      ~msg:challenge
  in
  let* msg, measurement =
    Sm.get_mail sm ~caller:(Sm.Enclave_caller verifier)
      ~sender:(Mailbox.From_enclave prover)
  in
  Ok
    (Sanctorum_util.Bytesx.constant_time_equal measurement expected
    && String.sub msg 0 (String.length challenge) = challenge)

type remote_session = {
  session_key_verifier : string;
  session_key_enclave : string;
  verdict : (unit, string) result;
}

let run_remote_attestation sm ~rng ~eid ~es_eid ~expected_measurement =
  (* ① key agreement over the untrusted network *)
  let v_secret, v_public = Crypto.Dh.generate rng in
  let e_secret, e_public = Crypto.Dh.generate rng in
  let channel_binding =
    Crypto.Sha3.sha3_256
      (Crypto.Dh.public_to_bytes e_public ^ Crypto.Dh.public_to_bytes v_public)
  in
  (* ② the verifier's nonce *)
  let nonce = Crypto.Drbg.random_bytes rng 32 in
  (* ③–⑦ the enclave obtains its signed attestation *)
  let root = (Sm.identity sm).Boot.root_public in
  match request_attestation sm ~eid ~es_eid ~nonce ~channel_binding with
  | Error e ->
      {
        session_key_verifier = "";
        session_key_enclave = "";
        verdict = Error (Api_error.to_string e);
      }
  | Ok evidence ->
      (* ⑧–⑨ the verifier checks the evidence; ⑩ both sides hold the
         session key the attestation just authenticated. *)
      let verdict =
        verify_evidence ~root ~expected_measurement ~nonce ~channel_binding
          evidence
      in
      {
        session_key_verifier = Crypto.Dh.shared_key v_secret e_public;
        session_key_enclave = Crypto.Dh.shared_key e_secret v_public;
        verdict;
      }
