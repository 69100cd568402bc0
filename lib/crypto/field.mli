(** The prime field GF(2^255 - 19), used by the attestation curve.

    Elements are kept in Montgomery form through a {!Bignum.Mont}
    context, so a field multiply is one division-free CIOS pass.
    Conversions happen only at the byte/bignum boundary. *)

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
(** 32 little-endian bytes; [None] unless the value is below [p], so
    every element has exactly one encoding. *)

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
val inv : t -> t
(** Inverse by Fermat's little theorem. Raises [Invalid_argument] on
    zero. *)

val sqrt : t -> t option
(** A square root if one exists (p ≡ 5 mod 8 method). *)

val pp : Format.formatter -> t -> unit
