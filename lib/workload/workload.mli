(** A deterministic closed-loop multicore enclave load generator.

    Boots a {!Sanctorum_os.Testbed}, installs M enclaves (M usually far
    larger than the core count), and drives them through
    {!Sanctorum_os.Os.Scheduler} rounds: create / enter, quantum-expiry
    AEX + resume, mailbox IPC meshes, demand-paging storms, and
    destroy / reclaim churn — while the analysis layer's invariant
    checker and lock-discipline analyzer watch the whole run.

    This is a thin driver over {!Engine}, the job-oriented single-shard
    API: [run] submits the whole population as unbounded jobs and steps
    the engine for a fixed round count. The fleet layer drives the same
    engine with per-job exit targets instead.

    {b Determinism contract.} The schedule and every architectural
    outcome — which enclave runs on which core in which round, every
    AEX, every fault, every mailbox delivery, the per-quantum
    simulated-cycle latencies and their percentiles — are a pure
    function of [(seed, backend, cores, enclaves, rounds, mix)]. Host
    wall-clock time is consulted only to convert the simulated totals
    into MIPS / ops-per-second rates; it never influences a decision. *)

(** The four traffic mixes (= {!Programs.mix}). *)
type mix = Programs.mix =
  | Compute  (** tight store loops; exercises enter / preempt / resume *)
  | Ipc  (** enclave pairs exchanging mailbox messages *)
  | Paging
      (** each enclave touches an unmapped address and self-pages via
          its registered fault handler (§V-A) *)
  | Churn
      (** short-lived enclaves; exits trigger probabilistic
          destroy + reclaim + reinstall *)

val mix_name : mix -> string

val mix_of_string : string -> (mix, string) result
(** Accepts ["compute"], ["ipc"], ["paging"], ["churn"]. *)

val all_mixes : mix list

type config = Engine.config = {
  seed : string;
  backend : Sanctorum_os.Testbed.backend;
  cores : int;
  enclaves : int;
  rounds : int;
  mix : mix;
  fuel : int;  (** per-quantum fuel budget (instructions) *)
  quantum : int;  (** preemption-timer quantum (cycles); keep [fuel]
                      comfortably above it so lost-tick recovery stays
                      the exception *)
  check_every : int;
      (** run the checker + trace analyzers every this many rounds
          (0 = only at the end) *)
}

val default : config
(** keystone backend (4 KiB allocation units — the capacity the
    many-enclave mixes need), 4 cores, 64 enclaves, 1000 rounds,
    compute mix, seed ["workload"]. *)

type report = Engine.report = {
  rp_mix : mix;
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
      (** monotonic host seconds for the scheduling loop (wall time, not
          process CPU time) *)
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

val run : config -> report
(** Execute the closed loop: install, schedule [rounds] rounds with
    per-mix re-enqueue policy, drain, reclaim everything, run a final
    checker pass. Raises [Invalid_argument] on a nonsensical config
    (no cores, no enclaves, [fuel <= quantum]...). *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human-readable summary. *)

val arch_signature : report -> string
(** Every architectural field of the report, rendered to one line —
    and none of the host-clock ones ([rp_wall_s], [rp_mips],
    [rp_ops_per_sec]). Two runs of the same shard are bit-deterministic
    iff their signatures are byte-identical; the fleet tests compare
    these across replays and domain counts. *)
