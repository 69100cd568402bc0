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
    - after the storm, one patrol-scrub pass finishes recovery and the
      analysis reports {e zero} findings: the snapshot pass over the
      monitor, and the lock-discipline and orderliness passes over the
      run's whole trace, stepped round by round. An event the sink's
      ring overwrote before those passes read it is a finding too
      ([trace.lost]).

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
      (** invariant and trace findings after recovery — must be empty *)
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
(** Defaults: Sanctum backend, 5 rounds, horizon [1500 * rounds], and a
    fresh recording sink. A caller's [sink] receives the whole trace
    (the run never clears it), after any events it already holds;
    those are checked as the start of the run's trace. *)

val ok : report -> bool
(** No fail-open evidence and no post-recovery findings. *)

val pp : Format.formatter -> report -> unit
