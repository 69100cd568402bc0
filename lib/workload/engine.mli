(** The single-shard workload engine: one [Machine]+SM+OS stack, a
    scheduler, and a table of {e jobs} — enclaves (pairs, for the ipc
    mix) driven through scheduler rounds until they reach an exit
    target, forever (the round-bounded {!Workload.run} mode), or until
    the shard fails closed.

    This is the step/report API the fleet layer drives: a cluster node
    owns exactly one engine, submits the jobs the control plane placed
    on it, steps it round by round, and ships the architectural report
    back for aggregation. Everything here is single-domain; engines
    share no mutable state, which is what makes one-engine-per-domain
    a sound shard boundary.

    {b Determinism.} Every engine decision comes from splitmix64
    streams: the engine stream is seeded by [config.seed], and each
    job's stream by the [seed] passed to {!submit} — so a job's image
    (and churn coin flips) replay identically wherever the job runs,
    including after migration to another shard. *)

type config = {
  seed : string;
  backend : Sanctorum_os.Testbed.backend;
  cores : int;
  enclaves : int;
      (** capacity: sizes the keystone PMP (one deny entry per live
          enclave domain) and, in {!Workload.run} mode, the population *)
  rounds : int;
  mix : Programs.mix;
  fuel : int;  (** per-quantum fuel budget (instructions) *)
  quantum : int;  (** preemption-timer quantum (cycles); keep [fuel]
                      comfortably above it so lost-tick recovery stays
                      the exception *)
  check_every : int;
      (** run the checker + trace analyzers every this many rounds
          (0 = only at the end) *)
}

type report = {
  rp_mix : Programs.mix;
  rp_seed : string;
  rp_cores : int;
  rp_enclaves : int;
  rp_rounds : int;  (** scheduler rounds actually executed *)
  rp_installs : int;
  rp_reclaims : int;
  rp_exits : int;
  rp_preempts : int;
  rp_fuel_exhausted : int;
  rp_os_faults : int;  (** faults the OS observed (delegated AEX) *)
  rp_killed : int;
  rp_api_errors : int;
  rp_quanta : int;  (** scheduler slots dispatched *)
  rp_instret : int;  (** instructions retired across all quanta *)
  rp_sim_cycles : int;  (** simulated cycles across all quanta *)
  rp_msgs_sent : int;  (** mailbox messages deposited (ipc mix) *)
  rp_msgs_received : int;  (** mailbox messages retrieved (ipc mix) *)
  rp_msgs_inflight : int;
      (** messages still sitting in a mailbox when its owner was
          reclaimed — the in-flight tail that explains any
          sent/received gap *)
  rp_msgs_accounted : bool;
      (** [sent = received + inflight]: no message is unaccounted for *)
  rp_wall_s : float;
      (** monotonic host seconds inside [step] and [finish] (wall time,
          not process CPU time) *)
  rp_mips : float;  (** simulated Minstr / host second *)
  rp_ops_per_sec : float;
      (** (installs + reclaims + exits) / host second *)
  rp_quantum_p50 : int;  (** per-quantum simulated-cycle latency *)
  rp_quantum_p90 : int;
  rp_quantum_p99 : int;
  rp_findings : Sanctorum_analysis.Report.violation list;
      (** every checker / trace violation from all checkpoints *)
  rp_trace_dropped : int;  (** telemetry events lost to ring overflow *)
  rp_drained : bool;  (** all pinned threads reached a stop *)
  rp_free_units_boot : int;
  rp_free_units_end : int;
  rp_reclaimed : bool;
      (** end-state is clean: no enclaves, no threads, and the OS free
          pool back at its boot value *)
  rp_meas_cache_hits : int;
      (** monitor measurement-cache hits ([measurement.cache.hit]) *)
  rp_meas_cache_misses : int;
}

type t

val create : config -> t
(** Boot the full stack for one shard; no jobs yet. Raises
    [Invalid_argument] on a nonsensical config (no cores,
    [fuel <= quantum]...). *)

val testbed : t -> Sanctorum_os.Testbed.t
(** The shard's stack — the fleet node uses it to install the signing
    and agent enclaves for its join-time attestation. *)

val submit : t -> jid:int -> seed:int64 -> target:int option -> unit
(** Install and enqueue job [jid]: one worker enclave, or an enclave
    pair for the ipc mix. [target = Some n] completes the job after
    [n] exits per member; [None] runs it until the caller stops
    stepping. Raises [Failure] if the install itself is denied — the
    shard cannot even host the job. *)

val step : t -> int list
(** One scheduler round; returns the jids that completed this round
    (already reclaimed). Jobs that failed locally (enclave fault,
    killed with a quarantined core, repeated API errors) are parked —
    collect them with {!take_failed}. *)

val abort : t -> jid:int -> reason:string -> unit
(** Give up on an in-flight job (round cap hit, shard quarantined):
    park it for {!take_failed} with [reason]. Members still in the
    scheduler keep running until their next architectural stop and are
    reclaimed as they surface (or at {!finish}) — there is no mid-queue
    eviction. No-op on an unknown or already-settled jid. *)

val take_failed : t -> (int * string) list
(** Jobs that failed locally since the last call, with a reason — the
    fleet re-places them elsewhere. Their enclaves are already
    reclaimed (or were destroyed by the monitor's emergency path). *)

val healthy : t -> bool
(** No core of the shard's machine is quarantined. *)

val finish : t -> report
(** Drain the scheduler, reclaim every remaining enclave (accounting
    in-flight mailbox messages first), run the final analysis passes,
    and assemble the report. The engine must not be used afterwards. *)

val latency_histogram : t -> Sanctorum_telemetry.Metrics.histogram
(** The per-quantum simulated-cycle histogram, for fleet-level
    percentile aggregation. Stable after {!finish}. *)

val seconds_since : int64 -> float
(** Monotonic wall seconds since [t0], a [Monotonic_clock.now] reading:
    the one clock every host-time figure of this repo uses. Process CPU
    time ([Sys.time]) would charge each fleet domain for all of them,
    and [Unix.gettimeofday] can step backwards under NTP. *)
