(** The fleet control plane: N shard {!Node}s, one OCaml domain each,
    sharing no mutable state, under a seeded load balancer, an attested
    join protocol, and — because the link between cluster and node is
    hostile ({!Netfault}) — a reliable {!Session} layer with
    retransmit, heartbeats, a deadline failure detector, and
    rejoin-with-rekey.

    Life of a run:

    + spawn one domain per shard; each boots a private machine from
      its shard-qualified seed;
    + challenge every node with an epoch, a fresh nonce and DH key;
      verify the returned evidence against the {e independently
      derived} manufacturer root and the agent measurement the cluster
      computes itself — a node that fails verification never receives
      a job. Under a fault spec, unanswered or corrupted challenges
      are retried a bounded number of times, each with a fresh
      epoch+nonce+key;
    + place jobs generation by generation via the {!Policy}, capped by
      each shard's enclave capacity; each batch travels as a
      sequence-numbered, cumulatively-acked, HMAC'd session frame, and
      unacked frames retransmit under deterministic exponential
      backoff with seeded jitter;
    + while a generation is outstanding, heartbeats keep each waiting
      link alive; a node silent past the suspicion deadline (or out of
      retransmit budget) is {e fenced}: evicted, its batch re-placed
      through the quarantine/migration path, its key epoch dead. A
      fenced node is probed with fresh challenges — full
      re-attestation and DH rekey let a merely-partitioned node
      rejoin, while anything it sent under the old epoch is rejected
      as stale;
    + after each generation, fold in completions, re-place failed jobs
      (bounded per-job retry budget) and jobs left in flight by a
      quarantined or fenced shard. The job ledger's Done/Failed states
      are absorbing, so no duplicated, reordered, or stale message can
      credit a job twice;
    + when every job is completed or failed closed, shut nodes down
      out-of-band (the operator console, not the network — so
      teardown terminates under any fault spec), collect final
      per-shard reports and latency histograms, merge them
      ({!Sanctorum_telemetry.Metrics.merge}) into fleet percentiles
      and aggregate rates.

    With no net spec, every protocol timer is quiesced and the run is
    a pure function of the config — per-shard reports are
    bit-deterministic and the completed / failed-closed partition
    replays exactly. Under a net spec the fault schedules are seeded
    and replayable, and the accounting invariants above still hold for
    every (seed, policy, fault spec, net spec). *)

type config = {
  seed : string;
  backend : Sanctorum_os.Testbed.backend;
  shards : int;  (** one OCaml domain each *)
  cores : int;  (** simulated cores per shard *)
  enclaves : int;  (** per-shard capacity (PMP sizing + batch cap) *)
  jobs : int;  (** total jobs across the fleet *)
  target : int;  (** exits per job member before it completes *)
  mix : Sanctorum_workload.Programs.mix;
  policy : Policy.t;
  retry_budget : int;
      (** re-placements (migrations and retries) allowed per job before
          it is failed closed *)
  batch_rounds : int;  (** per-shard round cap per generation *)
  fuel : int;
  quantum : int;
  check_every : int;
  faults : (int * Sanctorum_faults.Spec.t) list;
      (** per-shard fault specs, armed before any job runs *)
  fault_horizon : int;
  rogue : int list;  (** shards presenting corrupted evidence *)
  net : Netfault.spec;
      (** link-fault spec, armed (independently seeded) on both
          directions of every cluster<->node link *)
  net_horizon : int;  (** send-index window the link faults land in *)
}

val default : config
(** keystone backend, 2 shards x 4 cores, 24 jobs (capacity 12) of the
    compute mix at target 4, round-robin, retry budget 3, no net
    faults. *)

type shard_outcome = {
  so_node : int;
  so_joined : bool;  (** evidence verified at least once *)
  so_evicted : bool;  (** quarantined or fenced, and never rejoined *)
  so_rejoined : bool;  (** fenced, then re-attested under a new epoch *)
  so_epoch : int;  (** final key epoch (1 = first join; >1 = rekeyed) *)
  so_report : Sanctorum_workload.Workload.report;
}

type outcome = {
  r_config_shards : int;
  r_policy : Policy.t;
  r_seed : string;
  r_shards : shard_outcome list;  (** ascending node id *)
  r_completed : int list;  (** ascending jid *)
  r_failed_closed : (int * string) list;  (** ascending jid, with reason *)
  r_generations : int;
  r_wall_s : float;  (** monotonic host time, spawn to last [Bye] *)
  r_instret : int;  (** simulated instructions, all shards *)
  r_ops : int;  (** installs + reclaims + exits, all shards *)
  r_mips : float;  (** aggregate: instret / wall *)
  r_ops_per_sec : float;  (** aggregate: ops / wall *)
  r_p50 : int;  (** fleet-level per-quantum latency percentiles, *)
  r_p90 : int;  (** from the merged per-shard histograms *)
  r_p99 : int;
  r_findings : int;  (** invariant/trace violations across all shards *)
  r_accounted : bool;
      (** [completed + failed_closed] partitions the job set exactly *)
  r_clean : bool;
      (** no findings anywhere, every job accounted, and every
          non-evicted joined shard drained + fully reclaimed with its
          mailbox traffic accounted *)
  r_counters : (string * int) list;
      (** every counter, sorted by name:
          [fleet.jobs.placed/migrated/retried],
          [fleet.nodes.joined/rejoined/evicted],
          [fleet.attest.verified/rejected], and the transport's
          [net.retransmits/dups_dropped/hmac_rejects/stale_rejected],
          [net.heartbeats/heartbeats_missed/join_timeouts/rekeys],
          [net.link.dropped/duplicated/corrupted/delayed/reordered/
          partition_dropped] (both directions of every link summed) *)
}

val shard_seed : config -> int -> string
(** The seed shard [i] boots from — [seed ^ "/shard-i"]. The cluster
    uses it to derive the manufacturer root it verifies evidence
    against, independently of anything the node sends. *)

val job_seed : config -> int -> int64
(** The splitmix seed of job [jid]'s private stream — identical
    wherever the job lands, so migrated jobs replay their images. *)

val validate : config -> unit
(** Raises [Invalid_argument] on a nonsensical config: non-positive
    [shards]/[cores]/[enclaves]/[jobs]/[target]/[fuel]/[quantum]/
    [batch_rounds]/[fault_horizon]/[net_horizon], negative
    [retry_budget] or [check_every], or ipc capacity below one pair.
    {!run} calls this first. *)

val run : config -> outcome
(** Raises [Invalid_argument] exactly when {!validate} does. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Multi-line human-readable summary. *)
