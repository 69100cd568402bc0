(** HKDF (RFC 5869) over HMAC-SHA3-256. The secure-boot protocol [7]
    derives the monitor's attestation key from the device root key and
    the monitor's own measurement with this KDF. *)

val derive : salt:string -> ikm:string -> info:string -> len:int -> string
(** HKDF-Extract followed by HKDF-Expand; [len] must be at most
    255 * 32. *)
