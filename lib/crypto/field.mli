(** The prime field GF(2^255 - 19), used by the attestation curve.

    Elements use ref10's representation: ten signed limbs in radix
    2^25.5, in plain (not Montgomery) form. A product is straight-line
    code over locals that allocates only its result. Elements are not
    canonical: compare them with {!equal}, never with [=], [compare] or
    as [Hashtbl] keys. {!equal}, {!is_zero}, {!is_odd} and
    {!to_bytes_le} reduce to the representative below [p] first. *)

type t

val p : Bignum.t
(** The field prime 2^255 - 19. *)

val zero : t
val one : t

val of_bignum : Bignum.t -> t
(** Reduces the argument mod [p]. *)

val to_bignum : t -> Bignum.t
val of_int : int -> t

val of_bytes_le : string -> t option
(** 32 little-endian bytes; [None] for any other length and unless the
    value is below [p] (bit 255 clear), so every element has exactly one
    encoding. *)

val to_bytes_le : t -> string
(** Canonical 32-byte little-endian form. *)

val equal : t -> t -> bool
val is_zero : t -> bool
val is_odd : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val square : t -> t
(** [mul x x] with the 55 products a square needs instead of 100. *)

val inv : t -> t
(** Inverse by Fermat's little theorem, x^(p-2), through ref10's
    addition chain (254 squarings, 11 products). Raises
    [Invalid_argument] on zero. *)

val sqrt : t -> t option
(** A square root if one exists (p ≡ 5 mod 8 method). *)
