(** A registry of named monotonic counters and histograms.

    Names are dotted paths, ["subsystem.detail"], e.g.
    ["hw.cache.l1.hits"] or ["sm.api.calls.create_enclave"]. The first
    segment is the owning subsystem; exporters group by it. A name is
    registered at most once and with a single kind: re-registering
    returns the existing instrument, registering it as the other kind
    raises [Invalid_argument].

    Instrument handles are plain mutable records, so the hot-path cost
    of [incr] is one store — instrument once at attach time, bump
    directly afterwards. *)

type t

type counter
type histogram

type summary = {
  count : int;
  sum : int;
  min : int;  (** meaningless when [count = 0] *)
  max : int;
  mean : float;
}

type item = Counter of counter | Histogram of histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if [name] is already a
    histogram. *)

val histogram : t -> string -> histogram
(** Get-or-create. Raises [Invalid_argument] if [name] is already a
    counter. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val observe : histogram -> int -> unit
(** Record one sample (negative samples are clamped to 0). *)

val summary : histogram -> summary

val percentile : histogram -> float -> int
(** [percentile h q] for [q] in [0, 1]: an upper bound on the value of
    the [q]-th sample, resolved to the histogram's log-linear buckets
    (exact below 8; at most 25% above the true value elsewhere) and
    clamped to the observed maximum. [0] on an empty histogram. *)

val merge : into:histogram -> histogram -> unit
(** Fold [src]'s samples into [into] — bucket-by-bucket, so percentiles
    of the merged histogram are exactly those of the concatenated
    streams. Used to aggregate per-shard latency histograms into
    fleet-level percentiles. *)

val find : t -> string -> item option
val to_list : t -> (string * item) list
(** Sorted by name. *)

val reset : t -> unit
(** Zero every registered instrument (registrations survive). *)
