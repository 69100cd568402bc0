(* The attestation-at-scale scenario: one machine serves evidence to a
   crowd of remote verifier clients. Each client performs DH key
   agreement, sends a fresh nonce, and receives monitor-signed evidence
   for the target enclave; the clients' checks are folded into
   random-linear-combination batches ([Attestation.verify_evidence_batch]),
   so the service's verify cost is one curve equation per batch instead
   of three signature checks per client. Tampered clients exercise the
   fallback: the batch fails, the per-item pass pinpoints exactly the
   forged evidence, and every honest client in the same batch still
   verifies. *)

module Hw = Sanctorum_hw
module C = Sanctorum_crypto
module S = Sanctorum.Sm
module A = Sanctorum.Attestation
module B = Sanctorum.Boot
module Img = Sanctorum.Image
module Tel = Sanctorum_telemetry
module An = Sanctorum_analysis
open Sanctorum_os

type config = {
  seed : string;
  backend : Testbed.backend;
  clients : int;
  batch : int;  (* evidence checks folded per verify_evidence_batch *)
  tamper_every : int;  (* every k-th client forges its evidence; 0 = none *)
}

let default =
  {
    seed = "attest-service";
    backend = Testbed.Keystone_backend;
    clients = 64;
    batch = 16;
    tamper_every = 0;
  }

type report = {
  ar_clients : int;
  ar_verified : int;
  ar_rejected : int;
  ar_tampered : int;
  ar_batches : int;
  ar_signs : int;  (* crypto.sign counter: one per served evidence *)
  ar_batch_verifies : int;  (* crypto.batch_verify counter *)
  ar_clean : bool;
}

let validate cfg =
  let need cond msg =
    if not cond then invalid_arg ("Attest_service.run: " ^ msg)
  in
  need (cfg.clients >= 1) "clients must be >= 1";
  need (cfg.batch >= 1) "batch must be >= 1";
  need (cfg.tamper_every >= 0) "tamper_every must be >= 0"

let tampered cfg i = cfg.tamper_every > 0 && i mod cfg.tamper_every = 0

let run cfg =
  validate cfg;
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~capacity:(1 lsl 14) ~metrics () in
  let tb = Testbed.create ~backend:cfg.backend ~seed:cfg.seed ~sink () in
  let sm = tb.Testbed.sm in
  let es = Result.get_ok (Testbed.install_signing_enclave tb) in
  let target =
    Img.of_program ~evbase:0x30000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let t = Result.get_ok (Os.install_enclave tb.Testbed.os target) in
  let expected_measurement = Img.measurement target in
  let root = (S.identity sm).B.root_public in
  let rng = tb.Testbed.rng in
  (* Pre-resolved counters: the loop below bumps these per client and
     per batch; crypto.sign is bumped inside the signing path against
     the same registry via the testbed's sink. *)
  let c_verify = Tel.Metrics.counter metrics "crypto.verify"
  and c_batch = Tel.Metrics.counter metrics "crypto.batch_verify" in
  let verified = ref 0 and rejected = ref 0 and batches = ref 0 in
  let tampered_n = ref 0 in
  let pending = ref [] and pending_n = ref 0 in
  let flush () =
    match List.rev !pending with
    | [] -> ()
    | reqs ->
        incr batches;
        Tel.Metrics.incr c_batch;
        Array.iter
          (fun verdict ->
            Tel.Metrics.incr c_verify;
            match verdict with
            | Ok () -> incr verified
            | Error _ -> incr rejected)
          (A.verify_evidence_batch reqs);
        pending := [];
        pending_n := 0
  in
  for i = 0 to cfg.clients - 1 do
    (* client side: DH keypair and a fresh nonce *)
    let _v_secret, v_public = C.Dh.generate rng in
    let e_secret, e_public = C.Dh.generate rng in
    ignore (C.Dh.shared_key e_secret v_public);
    let channel_binding =
      C.Sha3.sha3_256
        (C.Dh.public_to_bytes e_public ^ C.Dh.public_to_bytes v_public)
    in
    let nonce = C.Drbg.random_bytes rng 32 in
    match
      A.request_attestation sm ~eid:t.Os.eid ~es_eid:es.Os.eid ~nonce
        ~channel_binding
    with
    | Error e ->
        invalid_arg
          ("Attest_service.run: service failed: " ^ Sanctorum.Api_error.to_string e)
    | Ok evidence ->
        let evidence =
          if tampered cfg i then begin
            incr tampered_n;
            (* flip one bit of the signature: structurally valid, must
               be pinpointed by the batch fallback *)
            let b = Bytes.of_string evidence.A.signature in
            Bytes.set b 80 (Char.chr (Char.code (Bytes.get b 80) lxor 1));
            { evidence with A.signature = Bytes.to_string b }
          end
          else evidence
        in
        pending :=
          {
            A.vr_root = root;
            A.vr_expected_measurement = expected_measurement;
            A.vr_nonce = nonce;
            A.vr_channel_binding = channel_binding;
            A.vr_evidence = evidence;
          }
          :: !pending;
        incr pending_n;
        if !pending_n >= cfg.batch then flush ()
  done;
  flush ();
  let findings = List.length (An.Checker.snapshot sm) in
  let counter n =
    match Tel.Metrics.find metrics n with
    | Some (Tel.Metrics.Counter c) -> Tel.Metrics.value c
    | _ -> 0
  in
  {
    ar_clients = cfg.clients;
    ar_verified = !verified;
    ar_rejected = !rejected;
    ar_tampered = !tampered_n;
    ar_batches = !batches;
    ar_signs = counter "crypto.sign";
    ar_batch_verifies = counter "crypto.batch_verify";
    ar_clean =
      findings = 0
      && !verified + !rejected = cfg.clients
      && !rejected = !tampered_n;
  }
