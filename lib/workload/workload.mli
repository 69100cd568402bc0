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

include module type of struct
  include Engine
end
(** Everything {!Engine} exports, re-exported: a [Workload.config] is
    an [Engine.config] and a [Workload.report] an [Engine.report]. *)

val default : config
(** keystone backend (4 KiB allocation units — the capacity the
    many-enclave mixes need), 4 cores, 64 enclaves, 1000 rounds,
    compute mix, seed ["workload"]. *)

val validate : config -> unit
(** Raises [Invalid_argument] on a nonsensical config (no cores, no
    enclaves, [fuel <= quantum]...). *)

val run : config -> report
(** Execute the closed loop: install, schedule [rounds] rounds with
    per-mix re-enqueue policy, drain, reclaim everything, run a final
    checker pass. Raises [Invalid_argument] where {!validate} does, and
    [Failure] when the backend cannot hold the population (an install
    refused for want of memory units or metadata). *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human-readable summary. *)

val arch_signature : report -> string
(** Every architectural field of the report, rendered to one line —
    and none of the host-clock ones ([rp_wall_s], [rp_mips],
    [rp_ops_per_sec]). Two runs of the same shard are bit-deterministic
    iff their signatures are byte-identical; the fleet tests compare
    these across replays and domain counts. *)
