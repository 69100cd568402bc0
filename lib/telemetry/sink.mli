(** The instrumentation interface the simulator hot paths program
    against.

    A sink is either {!null} — tracing off, and every instrumentation
    site reduces to one boolean test — or a recording sink created by
    {!create}, which appends events to a ring buffer and optionally
    carries a {!Metrics.t} registry for counters.

    The contract for instrumented code:

    {[
      if Sink.enabled sink then
        Sink.emit sink ~core ~cycles (Event.Trap_enter { cause })
    ]}

    i.e. guard event {e construction} (an allocation) behind
    {!enabled} so the disabled path stays near-zero-cost. Counter
    handles should be resolved once when the sink is attached, not per
    bump. *)

type t

val null : t
(** Tracing off. [emit] is a no-op, [metrics] is [None]. *)

val create : ?capacity:int -> ?metrics:Metrics.t -> unit -> t
(** A recording sink. [capacity] (default 65536) bounds the event ring;
    the oldest events are overwritten on overflow and counted as
    dropped. *)

val enabled : t -> bool

val metrics : t -> Metrics.t option

val emit : t -> core:int -> cycles:int -> Event.payload -> unit
(** Stamp the payload with a global sequence number and append it.
    [core] is [-1] for host-context (non-core) actions. No-op on a
    null sink. *)

val events : t -> Event.t list
(** Recorded events, oldest first (the surviving window if the ring
    wrapped). *)

val iter : (Event.t -> unit) -> t -> unit
(** [iter f t] calls [f] on each event {!events} would return, in the
    same order, straight from the ring: one traversal and no list, so
    several passes over a window can share it. No-op on a null sink. *)

val event_count : t -> int
(** Total events ever emitted (including dropped ones). *)

val dropped : t -> int

val clear : t -> unit

val incr_counter : t -> string -> unit
(** Convenience for cold paths: bump a registry counter by name; no-op
    without a metrics registry. Hot paths should hold
    {!Metrics.counter} handles instead. *)

val observe : t -> string -> int -> unit
(** Convenience for cold paths: record a histogram sample by name. *)
