(** A reliable, authenticated session over an unreliable link — one
    endpoint's half of the fleet's transport protocol.

    Every data frame carries a monotone sequence number, a cumulative
    ack of the peer's frames, a key {e epoch}, and an HMAC-SHA3 tag
    over all of it under the DH session key, with the sending direction
    mixed into the MAC input so a reflected frame never verifies.

    - {b stop-and-wait}: at most one data frame is in flight; {!send}
      refuses another until the peer acks it. The fleet's traffic
      needs no more — the cluster sends a node its next batch only
      after that node's [Batch_done], which carries the batch's ack;
    - {b exactly-once delivery}: the receiver delivers the frame with
      the next sequence number and drops (but re-acks) any other — a
      retransmitted batch is acked, never re-run;
    - {b bounded retransmit}: the unacked frame is re-sent under
      deterministic exponential backoff with seeded jitter, up to a
      retry limit ({!exhausted});
    - {b heartbeats}: payload-less frames keep the peer's failure
      detector fed and carry acks ({!heartbeat_due}, {!ack_frame});
    - {b epoch fencing}: {!set_key} installs a new key epoch and resets
      all transfer state; frames from any other epoch are rejected as
      stale, so a re-keyed (rejoined) node can never smuggle in results
      from before it was fenced.

    Time is the caller's virtual clock (cluster ticks, or messages
    received on the node side) — nothing here reads the wall clock, so
    a run is replayable from its seeds. *)

type config = {
  retransmit_base : int;
      (** first retransmit deadline, in clock units; later delays double
          up to [base * 2^4], plus seeded jitter *)
  retry_limit : int;  (** retransmits before the peer is presumed dead *)
  heartbeat_every : int;  (** clock units between {!heartbeat_due} fires *)
}

val cluster_config : config
(** paced in cluster ticks *)

val node_config : config
(** paced in received messages: the node's clock only advances when the
    cluster pokes it, so deadlines are short and the retry limit high *)

type 'a frame = {
  fr_epoch : int;
  fr_seq : int;  (** -1 on payload-less (heartbeat/ack) frames *)
  fr_ack : int;  (** highest contiguously received peer seq, -1 none *)
  fr_payload : 'a option;
  fr_tag : string;
}

type role = Cluster_end | Node_end

type ('tx, 'rx) t

val create :
  config ->
  seed:int64 ->
  role:role ->
  encode_tx:('tx -> string) ->
  encode_rx:('rx -> string) ->
  ('tx, 'rx) t
(** [encode_tx]/[encode_rx] produce the canonical bytes MAC'd for each
    direction's payloads ({!Node.down_bytes} and {!Node.up_bytes}). *)

val set_key : ('tx, 'rx) t -> epoch:int -> key:string -> unit
(** Install a key and epoch; resets sequence numbers and drops the
    frame in flight. A later call with a higher epoch is a rekey —
    everything in flight under the old epoch is fenced off. *)

val send : ('tx, 'rx) t -> now:int -> 'tx -> 'tx frame
(** Assign the next sequence number, tag the frame, and hold it for
    retransmission until acked. Raises [Invalid_argument] if no key is
    set or a frame is already in flight ({!in_flight}). *)

type 'rx verdict =
  | Delivered of 'rx  (** the next in sequence; an ack is scheduled *)
  | Heartbeat  (** valid payload-less frame; ack processed *)
  | Duplicate  (** not the next seq; dropped, re-ack scheduled *)
  | Bad_mac
  | Stale  (** wrong epoch *)
  | No_key

val receive : ('tx, 'rx) t -> now:int -> 'rx frame -> 'rx verdict
(** Verify, process the piggybacked ack, and classify. An ack covering
    the frame in flight clears it. *)

val verify_only : ('tx, 'rx) t -> 'rx frame -> bool
(** MAC + epoch check with no state change — liveness evidence from a
    fenced peer whose frames must not be delivered. *)

val due : ('tx, 'rx) t -> now:int -> ('tx frame * int) option
(** The frame in flight if its retransmit deadline passed, re-tagged
    with a fresh cumulative ack, paired with the backoff delay (for the
    [net.retransmit.delay] histogram). Each firing backs the deadline
    off exponentially with seeded jitter. *)

val exhausted : ('tx, 'rx) t -> bool
(** The frame in flight has hit the retry limit — the peer is presumed
    dead. *)

val heartbeat_due : ('tx, 'rx) t -> now:int -> 'tx frame option
(** A heartbeat if [heartbeat_every] clock units have passed since the
    last one (and a key is set). *)

val want_ack : ('tx, 'rx) t -> bool

val ack_frame : ('tx, 'rx) t -> 'tx frame
(** A payload-less frame carrying the current cumulative ack; clears
    {!want_ack}. Also the node's reply to a cluster heartbeat. *)

val last_heard : ('tx, 'rx) t -> int
(** Clock time of the last authentically verified frame. *)

val in_flight : ('tx, 'rx) t -> bool
(** A sent frame still awaits its ack. *)

type stats = {
  retransmits : int;
  dups_dropped : int;
  mac_rejects : int;
  stale_rejects : int;
  heartbeats : int;
}

val stats : ('tx, 'rx) t -> stats
