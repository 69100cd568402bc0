(** The SM audit log: the security-review view of the event stream.

    Dorami-style auditing asks {e which} monitor entry points fired,
    on whose behalf, and with what decision. This module projects the
    raw trace down to exactly that: one entry per SM API call,
    accepted or rejected with the API error that justified the
    rejection. *)

type decision = Accepted | Rejected of string

type entry = {
  seq : int;
  core : int;  (** [-1] = host context *)
  cycles : int;
  api : string;
  caller : string;
  decision : decision;
  latency : int;  (** simulated cycles inside the monitor *)
}

val of_events : Event.t list -> entry list
(** Project the SM API decisions out of a trace, oldest first. *)

val accepted : entry list -> entry list
val rejected : entry list -> entry list

val pp : Format.formatter -> entry list -> unit
(** A table, one line per decision, plus an accept/reject tally. *)
