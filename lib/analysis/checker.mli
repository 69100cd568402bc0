(** The combined entry point for all three analysis passes.

    {!snapshot} runs the state-based invariant checker over a quiescent
    monitor; {!trace} runs the lock-discipline analyzer and the
    orderliness lint over a recorded telemetry stream; {!run_all}
    composes them. All passes are read-only and re-entrant from
    {!Sanctorum.Sm.set_post_api_hook}. *)

val catalog : (string * string) list
(** Every invariant id either pass can report, with a one-line
    description naming the paper section it encodes. *)

val snapshot : Sanctorum.Sm.t -> Report.violation list
(** The invariant pass with a fresh {!Invariants.memo}: every call
    walks every page table, and keeps nothing. *)

val trace : Sanctorum_telemetry.Event.t list -> Report.violation list

val run_all :
  ?events:Sanctorum_telemetry.Event.t list ->
  Sanctorum.Sm.t ->
  Report.violation list
(** [run_all ~events sm] = [snapshot sm @ trace events]. [events]
    defaults to the empty trace (snapshot only). *)
