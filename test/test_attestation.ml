(* Secure boot (§IV-A / [7]) and remote attestation (Fig. 7). *)
module Hw = Sanctorum_hw
module C = Sanctorum_crypto
module S = Sanctorum.Sm
module A = Sanctorum.Attestation
module B = Sanctorum.Boot
module Img = Sanctorum.Image
open Sanctorum_os

let check_bool = Alcotest.(check bool)

let test_boot_determinism () =
  let root = B.manufacturer_root ~seed:"r" in
  let i1 = B.perform ~root ~device_secret:"d" ~sm_binary:"sm-v1" in
  let i2 = B.perform ~root ~device_secret:"d" ~sm_binary:"sm-v1" in
  check_bool "same identity" true
    (C.Schnorr.public_key_to_bytes (C.Schnorr.public_key i1.B.attestation_key)
    = C.Schnorr.public_key_to_bytes (C.Schnorr.public_key i2.B.attestation_key))

let test_boot_rekeys_on_patch () =
  (* Patching the monitor binary yields a different measurement AND a
     different attestation key — the heart of [7]. *)
  let root = B.manufacturer_root ~seed:"r" in
  let i1 = B.perform ~root ~device_secret:"d" ~sm_binary:"sm-v1" in
  let i2 = B.perform ~root ~device_secret:"d" ~sm_binary:"sm-v2" in
  check_bool "different measurement" true
    (i1.B.sm_measurement <> i2.B.sm_measurement);
  check_bool "different key" true
    (C.Schnorr.public_key_to_bytes (C.Schnorr.public_key i1.B.attestation_key)
    <> C.Schnorr.public_key_to_bytes (C.Schnorr.public_key i2.B.attestation_key));
  (* different device, same binary: also re-keys *)
  let i3 = B.perform ~root ~device_secret:"other" ~sm_binary:"sm-v1" in
  check_bool "device-bound key" true
    (C.Schnorr.public_key_to_bytes (C.Schnorr.public_key i1.B.attestation_key)
    <> C.Schnorr.public_key_to_bytes (C.Schnorr.public_key i3.B.attestation_key))

let test_boot_chain_verifies () =
  let root = B.manufacturer_root ~seed:"r" in
  let i = B.perform ~root ~device_secret:"d" ~sm_binary:"sm-v1" in
  match C.Cert.signature_claims ~root:i.B.root_public i.B.certificates with
  | Ok (claims, key) ->
      check_bool "every certificate signature verifies" true
        (Array.for_all Fun.id (C.Schnorr.verify_batch claims));
      check_bool "chain ends at sm key" true
        (C.Schnorr.public_key_to_bytes key
        = C.Schnorr.public_key_to_bytes (C.Schnorr.public_key i.B.attestation_key))
  | Error m -> Alcotest.fail m

let setup_with_signing () =
  let tb = Testbed.create () in
  let es = Result.get_ok (Testbed.install_signing_enclave tb) in
  let target =
    Img.of_program ~evbase:0x30000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let t = Result.get_ok (Os.install_enclave tb.Testbed.os target) in
  (tb, es, t, target)

let test_signing_key_gate () =
  let tb, es, t, _ = setup_with_signing () in
  let sm = tb.Testbed.sm in
  (* only the signing enclave gets the key *)
  (match S.get_signing_key sm ~caller:(S.Enclave_caller es.Os.eid) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "signing enclave denied its key");
  (match S.get_signing_key sm ~caller:(S.Enclave_caller t.Os.eid) with
  | Error Sanctorum.Api_error.Unauthorized -> ()
  | Ok _ -> Alcotest.fail "ordinary enclave got the monitor key"
  | Error e -> Alcotest.failf "unexpected: %s" (Sanctorum.Api_error.to_string e));
  match S.get_signing_key sm ~caller:S.Os with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "OS got the monitor key"

let test_signing_measurement_constant () =
  let tb, es, _, _ = setup_with_signing () in
  let sm = tb.Testbed.sm in
  let m = Result.get_ok (S.enclave_measurement sm ~eid:es.Os.eid) in
  check_bool "install matches hard-coded constant" true
    (m = A.signing_expected_measurement);
  check_bool "field matches" true
    (S.get_field sm S.Field_signing_measurement = A.signing_expected_measurement)

let test_remote_attestation_success () =
  let tb, es, t, target = setup_with_signing () in
  let session =
    A.run_remote_attestation tb.Testbed.sm ~rng:tb.Testbed.rng ~eid:t.Os.eid
      ~es_eid:es.Os.eid ~expected_measurement:(Img.measurement target)
  in
  (match session.A.verdict with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verdict: %s" m);
  check_bool "session keys agree" true
    (session.A.session_key_verifier = session.A.session_key_enclave)

let test_remote_attestation_wrong_measurement () =
  let tb, es, t, _ = setup_with_signing () in
  let session =
    A.run_remote_attestation tb.Testbed.sm ~rng:tb.Testbed.rng ~eid:t.Os.eid
      ~es_eid:es.Os.eid ~expected_measurement:(String.make 32 'z')
  in
  match session.A.verdict with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted a wrong measurement"

let test_remote_attestation_impostor_signer () =
  (* An enclave that is NOT the signing enclave cannot serve the
     protocol: get_key refuses, so the requester never gets a valid
     signature. *)
  let tb, _es, t, target = setup_with_signing () in
  let impostor =
    Result.get_ok
      (Os.install_enclave tb.Testbed.os
         (Img.of_program ~evbase:0x60000
            Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]))
  in
  let session =
    A.run_remote_attestation tb.Testbed.sm ~rng:tb.Testbed.rng ~eid:t.Os.eid
      ~es_eid:impostor.Os.eid ~expected_measurement:(Img.measurement target)
  in
  match session.A.verdict with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "attestation via impostor signing enclave verified"

let test_evidence_tampering () =
  let tb, es, t, target = setup_with_signing () in
  let rng = tb.Testbed.rng in
  let nonce = C.Drbg.random_bytes rng 32 in
  let binding = C.Drbg.random_bytes rng 32 in
  let ev =
    Result.get_ok
      (A.request_attestation tb.Testbed.sm ~eid:t.Os.eid ~es_eid:es.Os.eid
         ~nonce ~channel_binding:binding)
  in
  let root = (S.identity tb.Testbed.sm).B.root_public in
  let verify ev =
    A.verify_evidence ~root ~expected_measurement:(Img.measurement target)
      ~nonce ~channel_binding:binding ev
  in
  (match verify ev with Ok () -> () | Error m -> Alcotest.failf "honest: %s" m);
  let flip s i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
  in
  check_bool "flipped signature" true
    (Result.is_error (verify { ev with A.signature = flip ev.A.signature 10 }));
  check_bool "flipped nonce in evidence" true
    (Result.is_error (verify { ev with A.nonce = flip ev.A.nonce 0 }));
  check_bool "flipped measurement" true
    (Result.is_error
       (verify { ev with A.enclave_measurement = flip ev.A.enclave_measurement 0 }));
  check_bool "flipped binding" true
    (Result.is_error
       (verify { ev with A.channel_binding = flip ev.A.channel_binding 0 }));
  check_bool "truncated certs" true
    (Result.is_error
       (verify
          {
            ev with
            A.certificates =
              String.sub ev.A.certificates 0
                (String.length ev.A.certificates - 1);
          }));
  (* replay under a different nonce fails *)
  let nonce2 = C.Drbg.random_bytes rng 32 in
  check_bool "replayed nonce" true
    (Result.is_error
       (A.verify_evidence ~root ~expected_measurement:(Img.measurement target)
          ~nonce:nonce2 ~channel_binding:binding ev))

let test_attestation_on_keystone () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let es = Result.get_ok (Testbed.install_signing_enclave tb) in
  let target =
    Img.of_program ~evbase:0x30000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let t = Result.get_ok (Os.install_enclave tb.Testbed.os target) in
  let session =
    A.run_remote_attestation tb.Testbed.sm ~rng:tb.Testbed.rng ~eid:t.Os.eid
      ~es_eid:es.Os.eid ~expected_measurement:(Img.measurement target)
  in
  match session.A.verdict with
  | Ok () -> ()
  | Error m -> Alcotest.failf "keystone attestation: %s" m

let suite =
  ( "attestation",
    [
      Alcotest.test_case "boot determinism" `Quick test_boot_determinism;
      Alcotest.test_case "boot re-keys on patch" `Quick test_boot_rekeys_on_patch;
      Alcotest.test_case "boot chain verifies" `Quick test_boot_chain_verifies;
      Alcotest.test_case "signing key gate" `Quick test_signing_key_gate;
      Alcotest.test_case "signing measurement constant" `Quick
        test_signing_measurement_constant;
      Alcotest.test_case "remote attestation (fig 7)" `Quick
        test_remote_attestation_success;
      Alcotest.test_case "wrong measurement rejected" `Quick
        test_remote_attestation_wrong_measurement;
      Alcotest.test_case "impostor signer rejected" `Quick
        test_remote_attestation_impostor_signer;
      Alcotest.test_case "evidence tampering" `Quick test_evidence_tampering;
      Alcotest.test_case "attestation on keystone" `Quick
        test_attestation_on_keystone;
    ] )
