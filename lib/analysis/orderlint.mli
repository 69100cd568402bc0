(** The API-orderliness lint.

    A pure pass over a telemetry trace that flags illegal SM API
    sequences independent of monitor state: double create
    ([order.create]), init before create or double init ([order.init]),
    enter before init ([order.enter]), exit without enter
    ([order.exit]), destroy while entered ([order.destroy]), double
    grant without free ([order.grant]), AEX resume with no AEX pending
    ([order.aex-resume]), and mailbox receive without a matching send
    ([order.mailbox]). *)

val ids : string list
(** Every invariant id this pass can report, in catalog order. *)

type t
(** The pass's state over the events fed so far: live enclaves, the
    core each entered enclave occupies, pending AEXs, outstanding
    grants and undelivered mail. *)

val create : unit -> t
(** A pass that has seen no events. *)

val step :
  t -> seq:int -> core:int -> Sanctorum_telemetry.Event.payload -> unit
(** Continue the pass over the next event of the trace, given by its
    seq, core and payload. *)

val feed : t -> Sanctorum_telemetry.Event.t list -> unit
(** Continue the pass over the next events of the same trace, oldest
    first. Feeding a trace window by window, split anywhere, flags
    exactly what one {!check} of the whole trace flags. *)

val findings : t -> Report.violation list
(** Everything flagged so far, in trace order. *)

val check : Sanctorum_telemetry.Event.t list -> Report.violation list
(** [check events] is {!findings} after one {!feed} of [events] into a
    fresh pass. *)
