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
    since the last {!clear}; {!events} builds the {!Event.t} values and
    {!iter} hands out the slots' fields. The arrays start empty and
    double, up to the capacity, when an emit finds them full; otherwise
    emitting allocates nothing beyond the caller's payload.

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

val iter :
  ?from:int ->
  ?want:int ->
  (seq:int -> core:int -> cycles:int -> Event.payload -> unit) ->
  t ->
  unit
(** [iter f t] calls [f] with the fields of each event {!events} would
    return, in the same order, straight from the ring's slots: one
    traversal that builds no {!Event.t} and no list, so several passes
    over a window can share it. With [~from], it starts at the held
    event of seq [from], or at the oldest held one if that is later,
    so a reader that keeps its place visits each event once. With
    [~want], a mask of [1 lsl ]{!Event.kind} bits, it visits only the
    events of those kinds, and reads no other slot's payload. No-op on
    a null sink. *)

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

(** {2 Counting functions for hot paths}

    Each function below counts into the sink's registry through handles
    it resolves on the event that first needs each one, so a name
    registers exactly when {!incr_counter} or {!observe} by name would
    have registered it, and later events build no name and look nothing
    up in the registry. A function counts into the registry of the sink
    it was made from: make new ones when the sink changes. On a sink
    without a registry they do nothing. *)

val calls : t -> prefix:string -> string -> rejected:bool -> latency:int -> unit
(** [calls t ~prefix] counts the calls of one traced API surface: for
    a call of [api], the counter [<prefix>.calls.<api>], the counter
    [<prefix>.rejected.<api>] when [rejected], and a [latency] sample
    in the histogram [<prefix>.latency]. *)

val counter_bump : t -> string -> unit -> unit
(** [counter_bump t name] bumps the counter [name] by one. *)
