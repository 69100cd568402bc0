(** The twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over
    GF(2^255 - 19) with the Ed25519 parameters. This is the group used
    by the monitor's attestation signatures ({!Schnorr}) and key
    agreement ({!Dh}).

    The base point is recovered from y = 4/5 at module initialization
    (choosing the even-x root), so no large coordinate constant needs to
    be trusted. *)

type point
(** A point of the curve in extended homogeneous coordinates. *)

val order : Bignum.t
(** The prime order L = 2^252 + 27742317777372353535851937790883648493
    of the base-point subgroup. *)

val identity : point
val base : point

val add : point -> point -> point
val double : point -> point
val negate : point -> point

val scalar_mul : Bignum.t -> point -> point
(** [scalar_mul k p] is {!multi_scalar_mul} of the one term [(k, p)]:
    4-bit windows over one doubling chain. *)

val equal : point -> point -> bool
val is_on_curve : point -> bool

type table
(** Fixed-base window (comb) precomputation for one point: per window
    of the scalar, every multiple of the windowed base, making a scalar
    multiply a handful of additions with no doublings. Worth building
    for long-lived points (the generator, the signing key, the
    manufacturer roots). *)

val make_table : point -> table
(** 4-bit windows: 64 windows of 16 points, cheap to build. *)

val table_mul : table -> Bignum.t -> point
(** [table_mul (make_table p) k] is [scalar_mul k p]. Scalars wider
    than 256 bits fall back to {!scalar_mul}. *)

val scalar_mul_base : Bignum.t -> point
(** [scalar_mul k base] through a table of 8-bit windows (32 windows of
    256 points) built at module init. *)

val multi_scalar_mul : (Bignum.t * point) list -> point
(** Σ kᵢ·Pᵢ with one shared doubling chain (Strauss), the core of batch
    signature verification. *)

val to_affine : point -> Field.t * Field.t
val of_affine : Field.t * Field.t -> point
(** Raises [Invalid_argument] if the coordinates are not on the curve. *)

val encode : point -> string
(** 64-byte uncompressed encoding: x (32 LE) followed by y (32 LE). *)

val decode : string -> (point, string) result
(** Inverse of {!encode}: rejects a coordinate that is not below the
    field prime, so every point has one encoding, and a point that is
    not on the curve. *)

val encoded_size : int

val pp : Format.formatter -> point -> unit
