(** Attestation protocols (paper §VI).

    {b Local attestation} (Fig. 6) needs no cryptography: the monitor's
    authenticated mailboxes tag each message with the sender's
    measurement, so two co-resident enclaves prove their identities to
    each other through mutual trust in the monitor. The raw {!Sm} mail
    API is the protocol; {!local_attest} packages the four steps.

    {b Remote attestation} (Fig. 7) routes through the trusted signing
    enclave E_S: after DH key agreement with the verifier, the attested
    enclave mails the verifier's nonce (bound to the channel transcript)
    to E_S, which retrieves the monitor's key — released only to the
    enclave matching the hard-coded measurement — and signs
    (nonce-binding, enclave measurement). The verifier checks the
    signature against the manufacturer PKI. *)

(** {2 The signing enclave} *)

val signing_image : Image.t
(** The canonical signing-enclave image. Its measurement is the value
    hard-coded into the monitor at boot. *)

val signing_expected_measurement : string
(** [Image.measurement signing_image]. *)

val signing_enclave_serve :
  Sm.t -> es_eid:int -> requester:int -> unit Api_error.result
(** First half of a signing-enclave service round (native model of its
    behaviour, acting as [Enclave_caller es_eid]): ready a mailbox for
    [requester] so its request can land. *)

val signing_enclave_respond :
  Sm.t -> es_eid:int -> requester:int -> unit Api_error.result
(** Second half: read (nonce ∥ channel binding) from the requester's
    mail — the requester's measurement comes from the monitor's tag,
    not from the message — fetch the monitor key via [get_key], sign,
    and mail the signature back. *)

(** {2 Evidence and verification} *)

type evidence = {
  enclave_measurement : string;
  channel_binding : string;  (** sha3-256 of both DH public keys *)
  nonce : string;
  signature : string;  (** by the monitor's attestation key *)
  certificates : string;  (** serialized chain from [get_field] *)
}

val attested_payload : evidence -> string
(** The exact byte string the signing enclave signs. *)

val request_attestation :
  Sm.t ->
  eid:int ->
  es_eid:int ->
  nonce:string ->
  channel_binding:string ->
  (evidence, Api_error.t) result
(** The attested enclave's side (native model, acting as
    [Enclave_caller eid]): mail the request to the signing enclave,
    collect the signature — verifying the responder's measurement tag
    against the monitor's published signing measurement — and assemble
    the evidence. [signing_enclave_serve] must run between the send and
    the receive; this function performs both halves and expects the OS
    to have scheduled E_S via the callback in {!run_protocol}. *)

val verify_evidence :
  root:Sanctorum_crypto.Schnorr.public_key ->
  expected_measurement:string ->
  nonce:string ->
  channel_binding:string ->
  evidence ->
  (unit, string) result
(** The trusted first party's check: {!verify_evidence_batch} on this
    one request. *)

type batch_request = {
  vr_root : Sanctorum_crypto.Schnorr.public_key;
  vr_expected_measurement : string;
  vr_nonce : string;
  vr_channel_binding : string;
  vr_evidence : evidence;
}

val verify_evidence_batch :
  batch_request list -> (unit, string) result array
(** Per item: nonce, channel binding and measurement, then the
    certificate chain to the root and the signature over the attested
    payload, with every Schnorr check of every item folded into one
    {!Sanctorum_crypto.Schnorr.verify_batch} call. Positional; a
    rejection names the first failing check. *)

(** {2 End-to-end drivers} *)

val local_attest :
  Sm.t ->
  verifier:int ->
  prover:int ->
  expected:string ->
  (bool, Api_error.t) result
(** Fig. 6: enclave [verifier] attests enclave [prover]; returns whether
    the measurement tag matched [expected]. The message content is a
    fixed challenge. *)

type remote_session = {
  session_key_verifier : string;
  session_key_enclave : string;
  verdict : (unit, string) result;
}

val run_remote_attestation :
  Sm.t ->
  rng:Sanctorum_crypto.Drbg.t ->
  eid:int ->
  es_eid:int ->
  expected_measurement:string ->
  remote_session
(** Fig. 7 end to end: key agreement, nonce, signing-enclave round trip,
    verification. Both derived session keys are returned so callers can
    confirm the channel agrees ([session_key_verifier =
    session_key_enclave]). *)
