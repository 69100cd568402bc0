(** Attestation at scale: one machine's signing enclave serves evidence
    to many remote verifier clients (DH key agreement + nonce + signed
    evidence each), and the clients' checks run through
    {!Sanctorum.Attestation.verify_evidence_batch} — one
    random-linear-combination curve equation per batch instead of three
    signature verifications per client.

    With [tamper_every > 0], every k-th client forges its evidence; a
    clean run then requires the batch fallback to pinpoint exactly the
    forged items while every honest client still verifies. *)

type config = {
  seed : string;
  backend : Sanctorum_os.Testbed.backend;
  clients : int;
  batch : int;  (** evidence checks folded per batch verification *)
  tamper_every : int;  (** every k-th client forges evidence; 0 = none *)
}

val default : config
(** keystone, 64 clients, batches of 16, no tampering. *)

type report = {
  ar_clients : int;
  ar_verified : int;
  ar_rejected : int;
  ar_tampered : int;
  ar_batches : int;
  ar_signs : int;  (** [crypto.sign]: one per evidence served *)
  ar_batch_verifies : int;  (** [crypto.batch_verify] *)
  ar_clean : bool;
      (** catalog silent, every client accounted for, and rejections
          exactly the tampered set *)
}

val run : config -> report
