(** The lock-discipline analyzer (§V-A).

    A lockset pass over a telemetry trace: tracks
    [Lock_acquired]/[Lock_released] pairs and checks that every
    [Guarded_write] happens under its lock ([lock.guard]), that no lock
    survives an API return or the end of the trace ([lock.leak]), and
    that the observed acquisition order between lock classes
    (resource, enclave, thread) is acyclic ([lock.order]). *)

val ids : string list
(** Every invariant id this pass can report, in catalog order. *)

type t
(** The pass's state over the events stepped so far: the locks held
    and the first witness of each lock-class edge. *)

val create : unit -> t
(** A pass that has seen no events. *)

val step : t -> seq:int -> Sanctorum_telemetry.Event.payload -> unit
(** Continue the pass over the next event of the trace, given by its
    seq and payload. Allocates nothing unless it flags. *)

val finish : t -> Report.violation list
(** End the trace: flag each lock still held, then each class edge on
    an order cycle, and return everything flagged, the per-event
    findings in trace order first. Call once. *)

val check : Sanctorum_telemetry.Event.t list -> Report.violation list
(** [check events] is {!finish} after {!step}ping a fresh pass over
    [events], oldest first. *)
