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
(** [scalar_mul k p] is {!multi_scalar_mul} of the one term [(k, p)]. *)

val equal : point -> point -> bool
val is_on_curve : point -> bool

val scalar_mul_base : Bignum.t -> point
(** [scalar_mul k base] through the generator's comb, built at module
    init: 32 rows of the 255 nonzero multiples of 2^(8i)·B, stored
    affine, so a scalar below 2^256 costs one 7-product addition per
    nonzero byte and no doubling. Wider scalars go to {!scalar_mul}. *)

val multi_scalar_mul : (Bignum.t * point) list -> point
(** Σ kᵢ·Pᵢ with one shared doubling chain (Strauss), the core of batch
    signature verification: width-5 signed digits over a table of the
    eight odd multiples P, 3P, ..., 15P of each term. *)

val signed_digits : Bignum.t -> int array
(** The recoding {!multi_scalar_mul} walks, least significant first:
    Σ dᵢ·2^i = k, every nonzero digit is odd with |dᵢ| < 16 and is
    followed by at least four zeros, and the last digit is nonzero. *)

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
