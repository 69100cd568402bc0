module C = Sanctorum_crypto
module Rng = Sanctorum_util.Splitmix

type config = {
  retransmit_base : int;
  retry_limit : int;
  heartbeat_every : int;
}

let cluster_config =
  { retransmit_base = 24; retry_limit = 10; heartbeat_every = 8 }

let node_config =
  { retransmit_base = 2; retry_limit = 1000; heartbeat_every = max_int / 2 }

(* Retransmit delays stop doubling after this many attempts. *)
let backoff_cap = 4

type 'a frame = {
  fr_epoch : int;
  fr_seq : int;
  fr_ack : int;
  fr_payload : 'a option;
  fr_tag : string;
}

type role = Cluster_end | Node_end

type 'tx pending = {
  pd_payload : 'tx;
  pd_seq : int;
  mutable pd_attempts : int;
  mutable pd_due : int;
}

type ('tx, 'rx) t = {
  cfg : config;
  rng : Rng.t;
  tx_dir : string;
  rx_dir : string;
  encode_tx : 'tx -> string;
  encode_rx : 'rx -> string;
  mutable key : string option;
  mutable epoch : int;
  mutable next_seq : int;
  mutable recv_next : int;
  mutable outstanding : 'tx pending option;  (* sent, not yet acked *)
  mutable want_ack : bool;
  mutable exhausted : bool;
  mutable last_heard : int;
  mutable last_hb : int;
  mutable s_retransmits : int;
  mutable s_dups : int;
  mutable s_mac_rejects : int;
  mutable s_stale : int;
  mutable s_heartbeats : int;
}

let create cfg ~seed ~role ~encode_tx ~encode_rx =
  let tx_dir, rx_dir =
    match role with
    | Cluster_end -> ("c2n", "n2c")
    | Node_end -> ("n2c", "c2n")
  in
  {
    cfg;
    rng = Rng.create ~seed;
    tx_dir;
    rx_dir;
    encode_tx;
    encode_rx;
    key = None;
    epoch = 0;
    next_seq = 0;
    recv_next = 0;
    outstanding = None;
    want_ack = false;
    exhausted = false;
    last_heard = 0;
    last_hb = 0;
    s_retransmits = 0;
    s_dups = 0;
    s_mac_rejects = 0;
    s_stale = 0;
    s_heartbeats = 0;
  }

let set_key t ~epoch ~key =
  t.key <- Some key;
  t.epoch <- epoch;
  t.next_seq <- 0;
  t.recv_next <- 0;
  t.outstanding <- None;
  t.want_ack <- false;
  t.exhausted <- false

(* The direction string keys the MAC to one flow of one epoch: a frame
   reflected back at its sender, or replayed across a rekey, never
   verifies. *)
let mac_input dir encode ~epoch ~seq ~ack payload =
  let body = match payload with None -> "hb" | Some p -> encode p in
  Printf.sprintf "%s|e=%d;s=%d;a=%d;%s" dir epoch seq ack body

let the_key t =
  match t.key with
  | Some k -> k
  | None -> invalid_arg "Session: no key established"

let cum_ack t = t.recv_next - 1

let tag_tx t ~seq payload =
  C.Hmac.mac ~key:(the_key t)
    (mac_input t.tx_dir t.encode_tx ~epoch:t.epoch ~seq ~ack:(cum_ack t)
       payload)

let make_tx t ~seq payload =
  {
    fr_epoch = t.epoch;
    fr_seq = seq;
    fr_ack = cum_ack t;
    fr_payload = payload;
    fr_tag = tag_tx t ~seq payload;
  }

let jitter t = Rng.int t.rng ~bound:(max 1 t.cfg.retransmit_base)

let send t ~now payload =
  if Option.is_some t.outstanding then
    invalid_arg "Session.send: a frame is already in flight";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.outstanding <-
    Some
      {
        pd_payload = payload;
        pd_seq = seq;
        pd_attempts = 0;
        pd_due = now + t.cfg.retransmit_base + jitter t;
      };
  t.want_ack <- false;
  make_tx t ~seq (Some payload)

type 'rx verdict =
  | Delivered of 'rx
  | Heartbeat
  | Duplicate
  | Bad_mac
  | Stale
  | No_key

type check = Valid | Bad_tag | Wrong_epoch | None_key

let verify t frame =
  match t.key with
  | None -> None_key
  | Some key ->
      if frame.fr_epoch <> t.epoch then Wrong_epoch
      else if
        C.Hmac.verify ~key
          ~msg:
            (mac_input t.rx_dir t.encode_rx ~epoch:frame.fr_epoch
               ~seq:frame.fr_seq ~ack:frame.fr_ack frame.fr_payload)
          ~tag:frame.fr_tag
      then Valid
      else Bad_tag

let verify_only t frame = verify t frame = Valid

let process_ack t ack =
  match t.outstanding with
  | Some p when p.pd_seq <= ack -> t.outstanding <- None
  | Some _ | None -> ()

let receive t ~now frame =
  match verify t frame with
  | None_key -> No_key
  | Wrong_epoch ->
      t.s_stale <- t.s_stale + 1;
      Stale
  | Bad_tag ->
      t.s_mac_rejects <- t.s_mac_rejects + 1;
      Bad_mac
  | Valid -> (
      t.last_heard <- now;
      process_ack t frame.fr_ack;
      match frame.fr_payload with
      | None -> Heartbeat
      | Some p ->
          t.want_ack <- true;
          if frame.fr_seq = t.recv_next then begin
            t.recv_next <- t.recv_next + 1;
            Delivered p
          end
          else begin
            (* not the next seq: a retransmitted copy of a delivered
               frame, since the peer sends nothing newer until that one
               is acked. Drop it, but re-ack so the sender stops. *)
            t.s_dups <- t.s_dups + 1;
            Duplicate
          end)

let due t ~now =
  match t.outstanding with
  | Some p when p.pd_due <= now ->
      p.pd_attempts <- p.pd_attempts + 1;
      if p.pd_attempts > t.cfg.retry_limit then begin
        t.exhausted <- true;
        None
      end
      else begin
        let backoff =
          t.cfg.retransmit_base * (1 lsl min p.pd_attempts backoff_cap)
        in
        let delay = backoff + jitter t in
        p.pd_due <- now + delay;
        t.s_retransmits <- t.s_retransmits + 1;
        Some (make_tx t ~seq:p.pd_seq (Some p.pd_payload), delay)
      end
  | Some _ | None -> None

let exhausted t = t.exhausted

let hb t =
  {
    fr_epoch = t.epoch;
    fr_seq = -1;
    fr_ack = cum_ack t;
    fr_payload = None;
    fr_tag = tag_tx t ~seq:(-1) None;
  }

let heartbeat_due t ~now =
  if t.key <> None && now - t.last_hb >= t.cfg.heartbeat_every then begin
    t.last_hb <- now;
    t.s_heartbeats <- t.s_heartbeats + 1;
    Some (hb t)
  end
  else None

let want_ack t = t.want_ack

let ack_frame t =
  t.want_ack <- false;
  hb t

let last_heard t = t.last_heard
let in_flight t = Option.is_some t.outstanding

type stats = {
  retransmits : int;
  dups_dropped : int;
  mac_rejects : int;
  stale_rejects : int;
  heartbeats : int;
}

let stats t =
  {
    retransmits = t.s_retransmits;
    dups_dropped = t.s_dups;
    mac_rejects = t.s_mac_rejects;
    stale_rejects = t.s_stale;
    heartbeats = t.s_heartbeats;
  }
