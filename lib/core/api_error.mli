(** Errors returned by the monitor API. Every call is a transaction:
    on error, no state has changed (paper §V-A). *)

type t =
  | Illegal_argument of string
      (** malformed request: bad id, bad range, misalignment, ... *)
  | Unauthorized
      (** the authenticated caller may not make this request *)
  | Concurrent_call
      (** a fine-grained lock was held: the transaction aborts and the
          caller retries (§V-A) *)
  | Invalid_state of string
      (** the target exists but is not in a state admitting this
          transition (Figs. 2–5) *)
  | Out_of_resources of string
  | Internal_fault of string
      (** the monitor hit an unexpected condition (a hardware fault, a
          corrupted structure) mid-call and aborted: the call fails
          closed instead of raising into untrusted code *)

type 'a result = ('a, t) Stdlib.result

val equal : t -> t -> bool
val to_string : t -> string
