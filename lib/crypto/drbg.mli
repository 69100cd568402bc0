(** A deterministic random bit generator built from SHA3-256 (a
    hash-DRBG in the spirit of NIST SP 800-90A).

    In the paper the hardware platform provides a trusted entropy
    source (§IV-B4); in this reproduction the DRBG stands in for it so
    that every experiment is reproducible from a seed. *)

type t

val create : seed:string -> t
(** Instantiate from seed material of any length. *)

val random_bytes : t -> int -> string
(** [random_bytes t n] produces [n] fresh pseudorandom bytes and
    ratchets the internal state forward (backtracking resistance). *)

val random_scalar : t -> m:Bignum.t -> Bignum.t
(** Uniform in [1, m), for key generation (rejection sampling). *)
