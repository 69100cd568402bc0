(** The chaos harness: honest workloads under a seeded fault storm.

    Each round installs a small counting enclave
    ({!Sanctorum_os.Testbed.counting_image}), drives it to completion
    through preemptions (running it again after every AEX and every
    lost timer tick), verifies its result, and reclaims it — while the
    {!Injector} delivers the scheduled faults. The harness asserts the
    two fail-closed properties the paper's recovery story promises:

    - an honest workload either completes with the right answer or
      fails {e closed} (denied, faulted, or killed with its core) —
      it never completes with a wrong answer, never observes a raised
      exception, and no misfired DMA lands outside untrusted memory;
    - after the storm, one patrol-scrub pass finishes recovery and
      {!Sanctorum_analysis.Checker.run_all} reports {e zero} findings.

    Determinism: same [seed], [spec], [backend] and [rounds] give the
    same report, so any failure reproduces from the log line. *)

type report = {
  backend : string;
  seed : int64;
  spec : Spec.t;
  rounds : int;
  completed : int;  (** rounds that finished with the right answer *)
  failed_closed : int;
      (** rounds denied/faulted/killed — computation lost, nothing
          leaked *)
  incidents : string list;
      (** one line per fail-closed outcome, oldest first *)
  stats : Injector.stats;
  ecc_corrected : int;  (** single-bit corrections, including patrol *)
  words_retired : int;  (** uncorrectable words retired by recovery *)
  quarantined_cores : int;
  findings : Sanctorum_analysis.Report.violation list;
      (** invariant findings after recovery — must be empty *)
  fail_open : string list;  (** fail-open evidence — must be empty *)
}

val run :
  ?backend:Sanctorum_os.Testbed.backend ->
  ?rounds:int ->
  ?horizon:int ->
  ?sink:Sanctorum_telemetry.Sink.t ->
  seed:int64 ->
  spec:Spec.t ->
  unit ->
  report
(** Defaults: Sanctum backend, 5 rounds, horizon [1500 * rounds]. *)

val ok : report -> bool
(** No fail-open evidence and no post-recovery findings. *)

val pp : Format.formatter -> report -> unit
