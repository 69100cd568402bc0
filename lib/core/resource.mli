(** The generic resource state machine of paper Fig. 2, instantiated for
    every typed machine resource the monitor tracks (cores and memory
    allocation units).

    States and edges:
    {v
      owned(d)  --block by owner-->  blocked(d)
      blocked(d) --clean by OS/SM--> available
      available --grant(new) by OS--> offered(new) --accept by new--> owned(new)
    v}

    [offered] is the intermediate point of the grant→accept edge the
    paper's text describes ("An existing domain can accept resources the
    OS offers, completing the transition"). Grants to the untrusted
    domain itself, and grants to an enclave that is still loading (where
    the monitor acts on the enclave's behalf), complete immediately. *)

type domain = Sanctorum_hw.Trap.domain

type state = Available | Offered of domain | Owned of domain | Blocked of domain

type kind = Core_resource | Memory_resource

type t

val create : cores:int -> memory_units:int -> t
(** All resources start [Owned untrusted]; the monitor marks its own
    memory afterwards with {!force_owner}. *)

val count : t -> kind -> int

val version : t -> int
(** Moves on every state write, by any of the mutators below; equal
    versions mean every resource holds the state it held. *)

val state : t -> kind -> rid:int -> state Api_error.result
val owner : t -> kind -> rid:int -> domain option
(** The owning domain for [Owned]/[Blocked]/[Offered] states. *)

val force_owner : t -> kind -> rid:int -> domain -> unit
(** Unchecked assignment, used only during monitor boot. *)

val block : t -> kind -> rid:int -> by:domain -> unit Api_error.result
(** Owner (or the monitor on its behalf, e.g. enclave deletion) marks
    the resource reclaimable. *)

val clean : t -> kind -> rid:int -> domain Api_error.result
(** OS reclaims a blocked resource; returns the previous owner so the
    caller can scrub the corresponding hardware state. *)

val grant : t -> kind -> rid:int -> to_:domain -> auto_accept:bool ->
  unit Api_error.result

val accept : t -> kind -> rid:int -> by:domain -> unit Api_error.result

val units_owned_by : t -> kind -> domain -> int list
(** Resource ids currently [Owned] by the domain, ascending. *)

val pp_state : Format.formatter -> state -> unit
