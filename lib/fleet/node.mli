(** One fleet node: a complete, independent [Machine]+SM+OS shard
    wrapped in a {!Sanctorum_workload.Engine}, running in its own
    domain and speaking the cluster protocol over two {!Channel}s —
    through a {!Netfault} link and a {!Session}, because the link is
    hostile: messages drop, duplicate, reorder, corrupt, and partition.

    Nothing mutable is shared with any other shard — each node boots
    its own simulated machine from its own seed — so the only
    cross-domain traffic is the message protocol below.

    {b Join protocol} (paper Fig. 7, with the cluster as the trusted
    first party): the cluster sends an epoch, a fresh nonce, and its DH
    public key; the node installs the canonical signing enclave E_S and
    a fixed agent enclave on its own monitor, obtains signed evidence
    over (nonce, channel binding, agent measurement), and replies with
    the evidence and its own DH public key. Only if the cluster
    verifies the evidence against the {e independently derived}
    manufacturer root does the node receive jobs. A {e higher-epoch}
    challenge — a rejoin after the node was fenced off as suspected
    dead, or a retry after a corrupted handshake — triggers full
    re-attestation (the enclaves are reinstalled if retired) and a DH
    rekey; batches queued under the old epoch are discarded, because
    the cluster has already re-placed them. A {e same-epoch} challenge
    is a retransmit: the cached reply is resent, never re-attested.

    {b Data plane}: every batch and result travels as a {!Session}
    frame — sequence-numbered, cumulatively acked, HMAC'd under the
    epoch's DH key. The session dedups redelivered batches (acked, not
    re-run), buffers reordered ones, rejects corrupted or stale ones,
    and retransmits unacked results when the cluster's heartbeats poke
    it. Mid-crunch the node services its inbox every few engine rounds
    so a long batch never reads as a dead node.

    {b Teardown} is out-of-band ([Shutdown]/[Bye] bypass the fault
    layer — the operator console, not the network), so a run
    terminates under any fault spec. *)

type job_spec = {
  js_jid : int;
  js_seed : int64;  (** seeds the job's private splitmix stream *)
  js_target : int;  (** exits per member before the job completes *)
}

type down = Batch of { gen : int; jobs : job_spec list }
(** cluster -> node session payloads *)

(** node -> cluster session payloads *)
type up =
  | Batch_done of {
      bd_node : int;
      bd_gen : int;
      bd_completed : int list;
      bd_failed : (int * string) list;
          (** jobs that failed on this shard (fault, kill, API errors) *)
      bd_unfinished : int list;
          (** jobs aborted still-running — quarantine or round cap —
              for the cluster to re-place *)
      bd_healthy : bool;  (** no core quarantined *)
    }

type to_node =
  | Challenge of { ch_epoch : int; ch_nonce : string; ch_cluster_pub : string }
  | Down of down Session.frame
  | Shutdown  (** out-of-band: answer {!Bye} and exit *)

type from_node =
  | Joined of {
      jd_node : int;
      jd_epoch : int;
      jd_evidence : Sanctorum.Attestation.evidence;
      jd_node_pub : string;
    }
  | Join_failed of { jf_node : int; jf_epoch : int; jf_reason : string }
  | Up of up Session.frame
  | Bye of {
      bye_node : int;
      bye_report : Sanctorum_workload.Workload.report;
      bye_hist : Sanctorum_telemetry.Metrics.histogram;
      bye_net : (string * int) list;
          (** this node's [net.*] counters, merged fleet-wide *)
    }

type config = {
  node_id : int;
  engine : Sanctorum_workload.Engine.config;
      (** the shard's engine. Its [seed] is already shard-qualified and
          also seeds the node's fault, link and session streams; its
          [rounds] is the per-batch round cap — jobs still in flight at
          the cap are aborted and reported unfinished *)
  faults : Sanctorum_faults.Spec.t option;
      (** armed on this shard's machine before any job runs *)
  fault_horizon : int;  (** cycle window the fault schedule is drawn in *)
  rogue : bool;
      (** present evidence with a corrupted signature — a node
          impersonating a genuine Sanctorum machine *)
  net : Netfault.spec;  (** faults armed on this node's uplink *)
  net_horizon : int;
}

val agent_image : Sanctorum.Image.t
(** The enclave every node attests at join time. The cluster computes
    [Image.measurement agent_image] on its own — the expected value
    never travels over the wire. *)

val down_bytes : down -> string
val up_bytes : up -> string
(** Canonical MAC inputs for the two session directions. *)

val corrupt_to_node : to_node -> to_node
(** What in-flight corruption does to a message: one flipped tag bit on
    a session frame, one flipped handshake byte otherwise. Every
    authenticity check must catch the result. *)

val run :
  ?throttle:Throttle.t ->
  config ->
  inbox:to_node Channel.t ->
  outbox:from_node Channel.t ->
  unit
(** The domain body: boot, then serve challenges and batches until an
    out-of-band [Shutdown], then tear down and send [Bye].

    When [throttle] is given, engine boot and batch crunching each take
    a slot, bounding how many shards compute at once (see
    {!Throttle}); protocol waits never hold a slot. *)
