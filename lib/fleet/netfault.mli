(** A seeded, replayable fault layer for one direction of a fleet link.

    The fleet's {!Channel} is a perfect lossless FIFO; real links are
    not. A [link] wraps the sending end of a channel and, before each
    message reaches the queue, consults a fault schedule that is a pure
    function of [(seed, spec, horizon)] — the [lib/faults/injector]
    discipline applied to the network: every random choice is drawn
    from a private splitmix stream in a fixed generation order, so a
    run replays bit-for-bit from its seed.

    Fault classes (counts drawn within the first [horizon] sends):

    - {b drop} — the message vanishes;
    - {b dup} — the message is enqueued twice;
    - {b corrupt} — the caller-supplied [corrupt] function mangles the
      payload (the receiver's HMAC must catch it — the link is never
      trusted);
    - {b delay} — the message is held back a few sends and released
      out of order;
    - {b reorder} — a bounded-depth shuffle buffer collects the next
      few sends and releases them in a seeded permutation;
    - {b part} — a timed partition: every send while the link's clock
      is inside the window is dropped. Windows are measured on the
      caller's [clock] (cluster ticks, on the fleet's downlink) so a
      partition always ends even when the send rate collapses. A window
      opens at a fixed tick, or on the tick the caller places a given
      job generation ({!note_placement}), which no host speed moves. A
      partition is a downlink-only fault class: the uplink's clock is
      its received-message count, which freezes the moment the
      downlink goes dark, so a window there could outlive any probe
      budget — the uplink experiences a partition as silence instead,
      and callers strip the class with {!without_partitions}.

    Faults are applied on the {e sender's} side of the channel, so each
    domain runs its own schedule and no mutable state crosses domains
    beyond the channel itself. *)

type fault_class = Drop | Dup | Corrupt | Delay | Reorder | Part

type spec = {
  counts : (fault_class * int) list;
  windows : (int * int) list;
      (** explicit partition windows [(start, len)] in clock units, in
          addition to any seeded [Part] windows. Like the seeded kind,
          they belong on the tick-denominated downlink only — see
          {!without_partitions}. *)
  placed : (int * int) list;
      (** explicit partition windows [(gen, len)] that open on the tick
          generation [gen] is placed ({!note_placement}), for [len]
          clock units; downlink-only as well. *)
}

val empty : spec

val without_partitions : spec -> spec
(** [spec] minus every partition: seeded [Part] counts and explicit
    windows. Applied to the uplink's copy of a fleet net spec, whose
    received-message clock cannot measure a partition window. *)

val is_empty : spec -> bool
(** no fault ever fires: all counts zero and no windows *)

val parse : string -> (spec, string) result
(** Comma-separated [class:count] terms ([drop:3,dup:2,...]; a bare
    class means count 1) plus explicit partitions [part\@START+LEN] and
    [part\@gGEN+LEN] (from the placement of generation [GEN >= 1]).
    [""], ["none"] parse to {!empty}; ["all"] is a preset with every
    class enabled. *)

val to_string : spec -> string
(** Round-trips through {!parse}. *)

type 'a link

type stats = {
  sent : int;  (** messages offered to the link (faulted path only) *)
  delivered : int;  (** messages that reached the channel, dups included *)
  dropped : int;
  duplicated : int;
  corrupted : int;
  delayed : int;
  reordered : int;  (** shuffle buffers released *)
  partition_dropped : int;
}

val create :
  chan:'a Channel.t ->
  seed:int64 ->
  spec:spec ->
  horizon:int ->
  clock:(unit -> int) ->
  corrupt:('a -> 'a) ->
  unit ->
  'a link
(** [horizon] is the send-index window the per-message faults are drawn
    in; seeded partition windows are drawn in clock units scaled from
    it. Raises [Invalid_argument] if [horizon < 1]. *)

val note_placement : 'a link -> gen:int -> unit
(** The caller is about to send generation [gen]'s work: open the
    spec's windows anchored at [gen], from the clock's current tick. *)

val send : 'a link -> 'a -> unit
(** Offer one message to the faulted path. *)

val flush : 'a link -> unit
(** Release everything still held back (delay holds and a partially
    filled shuffle buffer), in schedule order. Called automatically by
    {!send_oob}. *)

val send_oob : 'a link -> 'a -> unit
(** Out-of-band delivery that bypasses the fault path entirely — the
    operator console, not the network. Used only for final teardown
    ([Shutdown]/[Bye]), so a run always terminates no matter the
    spec. *)

val stats : 'a link -> stats
