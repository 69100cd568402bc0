(** The instrumentation interface the simulator hot paths program
    against.

    A sink is either {!null} — tracing off, and every instrumentation
    site reduces to one boolean test — or a recording sink created by
    {!create}, which appends events to a ring buffer and optionally
    carries a {!Metrics.t} registry for counters.

    The ring is fixed-capacity and overwrites its oldest event on
    overflow, counting it as dropped: a long run keeps the most recent
    window. It holds each event's core and cycles in flat int arrays
    beside an array of payloads, and an event's seq is its push index
    since the last {!clear}; {!iter} and {!events} build the
    {!Event.t} values. The arrays start empty and double, up to the
    capacity, when an emit finds them full; otherwise emitting
    allocates nothing beyond the caller's payload.

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
    dropped. Raises [Invalid_argument] if [capacity <= 0]. *)

val enabled : t -> bool

val metrics : t -> Metrics.t option

val emit : t -> core:int -> cycles:int -> Event.payload -> unit
(** Append the payload; its seq is the number of events emitted before
    it since the last {!clear}. [core] is [-1] for host-context
    (non-core) actions. No-op on a null sink. *)

val events : t -> Event.t list
(** Recorded events, oldest first (the surviving window if the ring
    wrapped). *)

val iter : (Event.t -> unit) -> t -> unit
(** [iter f t] calls [f] on each event {!events} would return, in the
    same order, straight from the ring: one traversal and no list, so
    several passes over a window can share it. No-op on a null sink. *)

val event_count : t -> int
(** Events emitted since the last {!clear}, dropped ones included. *)

val dropped : t -> int

val clear : t -> unit
(** Empties the ring and restarts seq, {!event_count} and {!dropped}
    from 0. *)

val incr_counter : t -> string -> unit
(** Convenience for cold paths: bump a registry counter by name; no-op
    without a metrics registry. Hot paths should hold
    {!Metrics.counter} handles instead. *)

val observe : t -> string -> int -> unit
(** Convenience for cold paths: record a histogram sample by name. *)
