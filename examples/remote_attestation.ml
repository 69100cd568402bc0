(* Fig. 7 walkthrough: a remote verifier attests enclave E1 through the
   signing enclave E_S and the manufacturer PKI, step by step.

     dune exec examples/remote_attestation.exe
*)
module Hw = Sanctorum_hw
module C = Sanctorum_crypto
module S = Sanctorum.Sm
module A = Sanctorum.Attestation
open Sanctorum_os

let hex8 s = Sanctorum_util.Hex.encode (String.sub s 0 8)

let () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let rng = tb.Testbed.rng in

  (* The trusted signing enclave: its measurement is hard-coded in the
     monitor, which is what gates the monitor's attestation key. *)
  let es = (Result.get_ok (Testbed.install_signing_enclave tb)).Os.eid in
  Printf.printf "signing enclave E_S installed, measurement %s… (= monitor constant: %b)\n"
    (hex8 A.signing_expected_measurement)
    (S.get_field sm S.Field_signing_measurement = A.signing_expected_measurement);

  (* The enclave to be attested. *)
  let target_img =
    Sanctorum.Image.of_program ~evbase:0x30000
      Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  let e1 = (Result.get_ok (Os.install_enclave tb.Testbed.os target_img)).Os.eid in
  Printf.printf "target enclave E1 installed: eid=0x%x\n\n" e1;

  (* ① Key agreement between the remote verifier and E1 over the
     untrusted network. *)
  let v_secret, v_public = C.Dh.generate rng in
  let e_secret, e_public = C.Dh.generate rng in
  let binding =
    C.Sha3.sha3_256 (C.Dh.public_to_bytes e_public ^ C.Dh.public_to_bytes v_public)
  in
  Printf.printf "1. DH key agreement; channel binding %s…\n" (hex8 binding);

  (* ② The verifier sends a nonce. *)
  let nonce = C.Drbg.random_bytes rng 32 in
  Printf.printf "2. verifier nonce %s…\n" (hex8 nonce);

  (* ③–⑥ E1 asks E_S for a signature over (nonce, binding, E1's
     measurement); the monitor's mailboxes authenticate both sides and
     get_key releases the monitor key only to E_S. *)
  let evidence =
    match A.request_attestation sm ~eid:e1 ~es_eid:es ~nonce ~channel_binding:binding with
    | Ok ev -> ev
    | Error e -> failwith (Sanctorum.Api_error.to_string e)
  in
  Printf.printf "3-6. E1 <-> E_S mailbox round trip; signature %s…\n"
    (hex8 evidence.A.signature);

  (* ⑦ E1 attaches the monitor's certificate chain. *)
  Printf.printf "7. certificate chain: %d bytes (manufacturer -> device -> monitor)\n"
    (String.length evidence.A.certificates);

  (* ⑧–⑨ The verifier checks everything against the manufacturer root. *)
  let root = (S.identity sm).Sanctorum.Boot.root_public in
  (match
     A.verify_evidence ~root ~expected_measurement:(Sanctorum.Image.measurement target_img)
       ~nonce ~channel_binding:binding evidence
   with
  | Ok () -> Printf.printf "8-9. verifier: evidence VERIFIED\n"
  | Error m -> Printf.printf "8-9. verifier: REJECTED (%s)\n" m);

  (* ⑩ Both ends now trust the session key the attestation bound. *)
  let k_v = C.Dh.shared_key v_secret e_public in
  let k_e = C.Dh.shared_key e_secret v_public in
  Printf.printf "10. session keys agree: %b (%s…)\n\n" (k_v = k_e) (hex8 k_v);

  (* Negative cases the verifier must catch: *)
  let reject label ev nonce' =
    match
      A.verify_evidence ~root
        ~expected_measurement:(Sanctorum.Image.measurement target_img)
        ~nonce:nonce' ~channel_binding:binding ev
    with
    | Ok () -> Printf.printf "  %s: ACCEPTED (bug!)\n" label
    | Error m -> Printf.printf "  %s: rejected (%s)\n" label m
  in
  Printf.printf "tamper checks:\n";
  reject "replayed nonce" evidence (C.Drbg.random_bytes rng 32);
  reject "flipped signature bit"
    { evidence with A.signature =
        String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
          evidence.A.signature }
    nonce;
  (* and a fake monitor (different device) cannot produce a chain that
     verifies under the genuine manufacturer root *)
  let rogue_root = Sanctorum.Boot.manufacturer_root ~seed:"rogue" in
  let rogue =
    Sanctorum.Boot.perform ~root:rogue_root ~device_secret:"rogue-device"
      ~sm_binary:"rogue monitor"
  in
  let rogue_blob = C.Cert.serialize_chain rogue.Sanctorum.Boot.certificates in
  reject "rogue device's certificate chain"
    { evidence with A.certificates = rogue_blob }
    nonce
