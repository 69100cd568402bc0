(** Schnorr signatures over the attestation curve ({!Curve}).

    This is the signature scheme behind the monitor's remote attestation
    (§VI-C): the signing enclave signs (nonce, enclave measurement) with
    the monitor's attestation key, and the manufacturer PKI signs the
    monitor's public key. Deterministic nonces (hash of secret and
    message) remove the catastrophic nonce-reuse failure mode. *)

type secret_key

type public_key
(** Carries a use counter and a lazily built fixed-base window table, so
    verifying repeatedly against the same long-lived key (the signing
    enclave's, a manufacturer root's) amortizes to a table walk. The
    caching is invisible: signatures and verdicts are byte-identical
    with or without it. *)

val secret_key_of_seed : string -> secret_key
(** Derive a key pair deterministically from seed bytes (the secure boot
    protocol derives the monitor's key this way). The public half is
    computed once here and cached. *)

val public_key : secret_key -> public_key

val public_key_to_bytes : public_key -> string
(** 64-byte curve-point encoding. *)

val public_key_of_bytes : string -> (public_key, string) result

val signature_size : int
(** 96 bytes: the commitment point R (64) and the response scalar s
    (32, big-endian). *)

val sign : secret_key -> string -> string
(** [sign sk msg] is a [signature_size]-byte signature. *)

val verify : public_key -> msg:string -> signature:string -> bool
(** Accepts when [s·B] and [R + c·A] differ at most by a point of order
    dividing 8 (the cofactored rule), which every check here shares. *)

val verify_batch : (public_key * string * string) list -> bool array
(** [verify_batch items] checks N [(pk, msg, signature)] triples with
    one random-linear-combination curve equation (coefficients derived
    from the whole batch, so items cannot cancel each other). The
    result array is positional and equals {!verify} on each item. If
    the combined check fails, every item is re-verified individually,
    so bad items are pinpointed and good items in a poisoned batch
    still verify. *)

val pp_public_key : Format.formatter -> public_key -> unit
