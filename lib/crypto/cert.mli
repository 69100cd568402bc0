(** A minimal certificate format for the manufacturer PKI the paper
    assumes (§IV-B4): the chain conveys trust from a manufacturer root
    key, through the device key, to the monitor's attestation key bound
    to the monitor's measurement. *)

type t = {
  subject : string;  (** human-readable subject name *)
  subject_key : Schnorr.public_key;
  bound_measurement : string option;
      (** for SM certificates: the measurement of the SM binary the key
          was derived for *)
  issuer : string;
  signature : string;  (** issuer's signature over the TBS bytes *)
}

val issue :
  issuer:string ->
  issuer_key:Schnorr.secret_key ->
  subject:string ->
  subject_key:Schnorr.public_key ->
  ?bound_measurement:string ->
  unit ->
  t

val signature_claims :
  root:Schnorr.public_key ->
  t list ->
  ((Schnorr.public_key * string * string) list * Schnorr.public_key, string)
  result
(** The chain walker. Certificates are ordered root-first, each signed
    by the previous subject key and the first by [root]. Returns each
    certificate's [(issuer key, to-be-signed bytes, signature)] triple
    in chain order and the leaf key, verifying nothing: the caller
    checks the triples with {!Schnorr.verify_batch}. *)

val serialize : t -> string
val deserialize : string -> (t, string) result

val pp : Format.formatter -> t -> unit
