module Hw = Sanctorum_hw
module C = Sanctorum_crypto
module S = Sanctorum.Sm
module A = Sanctorum.Attestation
module Img = Sanctorum.Image
module Tel = Sanctorum_telemetry
module Wl = Sanctorum_workload
module Rng = Sanctorum_util.Splitmix
module Engine = Sanctorum_workload.Engine
open Sanctorum_os

type job_spec = { js_jid : int; js_seed : int64; js_target : int }
type down = Batch of { gen : int; jobs : job_spec list }

type up =
  | Batch_done of {
      bd_node : int;
      bd_gen : int;
      bd_completed : int list;
      bd_failed : (int * string) list;
      bd_unfinished : int list;
      bd_healthy : bool;
    }

type to_node =
  | Challenge of { ch_epoch : int; ch_nonce : string; ch_cluster_pub : string }
  | Down of down Session.frame
  | Shutdown

type from_node =
  | Joined of {
      jd_node : int;
      jd_epoch : int;
      jd_evidence : A.evidence;
      jd_node_pub : string;
    }
  | Join_failed of { jf_node : int; jf_epoch : int; jf_reason : string }
  | Up of up Session.frame
  | Bye of {
      bye_node : int;
      bye_report : Wl.Workload.report;
      bye_hist : Tel.Metrics.histogram;
      bye_net : (string * int) list;
    }

type config = {
  node_id : int;
  engine : Engine.config;
  faults : Sanctorum_faults.Spec.t option;
  fault_horizon : int;
  rogue : bool;
  net : Netfault.spec;
  net_horizon : int;
}

let agent_image =
  Img.of_program ~evbase:0x30000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]

let batch_bytes ~gen jobs =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "gen=%d" gen);
  List.iter
    (fun j ->
      Buffer.add_string b
        (Printf.sprintf ";%d:%Lx:%d" j.js_jid j.js_seed j.js_target))
    jobs;
  Buffer.contents b

let down_bytes = function Batch { gen; jobs } -> batch_bytes ~gen jobs

let up_bytes = function
  | Batch_done { bd_node; bd_gen; bd_completed; bd_failed; bd_unfinished;
                 bd_healthy } ->
      let ints l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "done;n=%d;g=%d;c=%s;f=%s;u=%s;h=%b" bd_node bd_gen
        (ints bd_completed)
        (String.concat ","
           (List.map
              (fun (jid, r) -> Printf.sprintf "%d=%s" jid r)
              bd_failed))
        (ints bd_unfinished) bd_healthy

(* ------------------------------------------------------------------ *)
(* Wire corruption: what [Netfault]'s corrupt class does to a message
   in flight. Flipping one tag bit (or one nonce/key byte for the
   unkeyed handshake) is the minimal mangling that every authenticity
   check must still catch — if any corrupted message is ever acted on,
   the HMAC or the evidence verification has a hole. *)

let flip_byte s =
  if s = "" then s
  else
    String.mapi
      (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
      s

let corrupt_frame fr = { fr with Session.fr_tag = flip_byte fr.Session.fr_tag }

let corrupt_to_node = function
  | Challenge c -> Challenge { c with ch_nonce = flip_byte c.ch_nonce }
  | Down fr -> Down (corrupt_frame fr)
  | Shutdown -> Shutdown (* out-of-band only; never routed through faults *)

let corrupt_from_node = function
  | Joined j -> Joined { j with jd_node_pub = flip_byte j.jd_node_pub }
  | Join_failed f -> Join_failed { f with jf_reason = flip_byte f.jf_reason }
  | Up fr -> Up (corrupt_frame fr)
  | Bye b -> Bye b (* out-of-band only *)

(* A rogue machine holds no monitor attestation key, so the best it can
   do is present evidence whose signature does not verify — modelled by
   corrupting one signature bit of otherwise honest evidence. *)
let corrupt_signature (e : A.evidence) =
  { e with A.signature = flip_byte e.A.signature }

type session = {
  eng : Engine.t;
  mutable es_eid : int option;
  mutable agent_eid : int option;
}

(* The attestation enclaves exist for the join handshake only. Keeping
   them resident would tax every later context switch — the keystone
   backend walks the live-enclave set on each one — so the node returns
   their memory as soon as the challenge is answered, and reinstalls
   them if a rejoin demands fresh evidence. *)
let retire_attestation sess =
  let tb = Engine.testbed sess.eng in
  let reclaim = function
    | None -> ()
    | Some eid ->
        ignore
          (Os.retry_transient (fun () -> Os.reclaim_enclave tb.Testbed.os ~eid))
  in
  reclaim sess.es_eid;
  reclaim sess.agent_eid;
  sess.es_eid <- None;
  sess.agent_eid <- None

let ensure_attestation sess =
  let tb = Engine.testbed sess.eng in
  (match sess.es_eid with
  | Some _ -> ()
  | None -> (
      match Testbed.install_signing_enclave tb with
      | Ok inst -> sess.es_eid <- Some inst.Os.eid
      | Error _ -> ()));
  match sess.agent_eid with
  | Some _ -> ()
  | None -> (
      match Os.install_enclave tb.Testbed.os agent_image with
      | Ok inst -> sess.agent_eid <- Some inst.Os.eid
      | Error _ -> ())

let join cfg sess ~nonce ~cluster_pub =
  let tb = Engine.testbed sess.eng in
  let sm = tb.Testbed.sm in
  match (sess.agent_eid, sess.es_eid, C.Dh.public_of_bytes cluster_pub) with
  | None, _, _ | _, None, _ -> Error "attestation enclaves unavailable"
  | _, _, Error m -> Error ("bad cluster key: " ^ m)
  | Some agent_eid, Some es_eid, Ok cluster_public -> (
      let secret, public = C.Dh.generate tb.Testbed.rng in
      let node_pub = C.Dh.public_to_bytes public in
      (* enclave key first, verifier key second — the same transcript
         order [run_remote_attestation] pins *)
      let channel_binding = C.Sha3.sha3_256 (node_pub ^ cluster_pub) in
      match
        A.request_attestation sm ~eid:agent_eid ~es_eid ~nonce ~channel_binding
      with
      | Error e -> Error (Sanctorum.Api_error.to_string e)
      | Ok evidence ->
          let evidence =
            if cfg.rogue then corrupt_signature evidence else evidence
          in
          Ok (evidence, node_pub, C.Dh.shared_key secret cluster_public))

(* Run one batch to completion: submit every job, step until they have
   all settled, the round cap hits, or a core of this shard is
   quarantined. [service] runs every round — it costs one try_recv and
   a few timer checks against a round's worth of simulation, and the
   cadence is what keeps heartbeats answered and retransmits firing
   mid-crunch: at large batch sizes even a handful of rounds of
   silence outruns the cluster's suspicion deadline and an honest,
   hard-working node reads as dead. Jobs still in flight at the end
   are aborted and reported unfinished so the cluster can re-place
   them — the quarantine-driven migration path. *)
let run_batch cfg sess ~service ~interrupted ~gen ~jobs =
  let eng = sess.eng in
  let completed = ref [] and failed = ref [] in
  let submitted =
    List.filter
      (fun j ->
        try
          Engine.submit eng ~jid:j.js_jid ~seed:j.js_seed
            ~target:(Some j.js_target);
          true
        with Failure m ->
          failed := (j.js_jid, m) :: !failed;
          false)
      jobs
  in
  let remaining = ref (List.map (fun j -> j.js_jid) submitted) in
  let rounds = ref 0 in
  while
    !remaining <> []
    && !rounds < cfg.engine.Engine.rounds
    && Engine.healthy eng
    && not (interrupted ())
  do
    let done_now = Engine.step eng in
    let failed_now = Engine.take_failed eng in
    remaining :=
      List.filter
        (fun j ->
          (not (List.mem j done_now)) && not (List.mem_assoc j failed_now))
        !remaining;
    completed := !completed @ done_now;
    failed := !failed @ failed_now;
    incr rounds;
    service ()
  done;
  let unfinished = !remaining in
  let reason =
    if not (Engine.healthy eng) then "shard quarantined"
    else if interrupted () then "batch interrupted"
    else "batch round cap"
  in
  List.iter (fun jid -> Engine.abort eng ~jid ~reason) unfinished;
  (* drain the abort notifications so they don't masquerade as genuine
     failures of a later batch *)
  ignore (Engine.take_failed eng);
  Batch_done
    {
      bd_node = cfg.node_id;
      bd_gen = gen;
      bd_completed = !completed;
      bd_failed = !failed;
      bd_unfinished = unfinished;
      bd_healthy = Engine.healthy eng;
    }

let run ?throttle cfg ~inbox ~outbox =
  let seed = cfg.engine.Engine.seed in
  (* Slots guard only the compute-bound stretches (engine boot and
     batch crunching), never a channel wait — a node holding a slot
     always runs to the next protocol message without blocking. *)
  let crunching ?while_waiting f =
    match throttle with
    | Some th -> Throttle.with_slot ?while_waiting th f
    | None -> f ()
  in
  let sess =
    crunching (fun () ->
        let eng = Engine.create cfg.engine in
        let tb = Engine.testbed eng in
        (match cfg.faults with
        | None -> ()
        | Some spec ->
            let inj =
              Sanctorum_faults.Injector.create ~horizon:cfg.fault_horizon
                ~machine:tb.Testbed.machine
                ~seed:(Rng.next (Rng.of_string (seed ^ "/faults")))
                ~spec ()
            in
            Sanctorum_faults.Injector.arm inj);
        let sess = { eng; es_eid = None; agent_eid = None } in
        ensure_attestation sess;
        (match (sess.es_eid, sess.agent_eid) with
        | Some _, Some _ -> ()
        | _ -> failwith "fleet node: attestation enclaves failed to install");
        sess)
  in
  (* The node's clock is its received-message count — virtual time that
     only advances when the cluster pokes it, keeping every deadline
     here replayable. *)
  let now = ref 0 in
  (* Partitions — explicit [part\@S+L] windows and seeded [part:N]
     draws alike — sever the downlink only. They are measured in
     control-plane ticks, a clock this uplink does not have: its clock
     is the received-message count, which freezes the moment the
     downlink goes dark, so a window here could outlive any rejoin
     probe budget (observed: every Joined reply of a fenced node
     swallowed until the fleet failed the whole job set closed). The
     uplink experiences a partition as what it is from this side —
     silence. *)
  let uplink =
    Netfault.create ~chan:outbox
      ~seed:(Rng.next (Rng.of_string (seed ^ "/net-up")))
      ~spec:(Netfault.without_partitions cfg.net)
      ~horizon:cfg.net_horizon
      ~clock:(fun () -> !now)
      ~corrupt:corrupt_from_node ()
  in
  let sn =
    Session.create Session.node_config
      ~seed:(Rng.next (Rng.of_string (seed ^ "/session")))
      ~role:Session.Node_end ~encode_tx:up_bytes ~encode_rx:down_bytes
  in
  let epoch_now = ref 0 in
  let cached_reply = ref None in
  (* Counted so that a corrupted (or merely late) challenge that dies
     at the epoch guard still shows up as a stale rejection — no
     faulted message may vanish without a counter saying why. *)
  let stale_challenges = ref 0 in
  let batchq = Queue.create () in
  let deferred = Queue.create () in
  let running = ref true in
  let emit fr = Netfault.send uplink (Up fr) in
  let pump () =
    Option.iter (fun (fr, _) -> emit fr) (Session.due sn ~now:!now);
    if Session.want_ack sn then emit (Session.ack_frame sn)
  in
  let handle_challenge ~ch_epoch ~ch_nonce ~ch_cluster_pub =
    if ch_epoch < !epoch_now then
      incr stale_challenges (* obsolete duplicate *)
    else if ch_epoch = !epoch_now && !epoch_now > 0 then
      (* retransmitted challenge: our reply was lost — resend it *)
      Option.iter (Netfault.send uplink) !cached_reply
    else begin
      (* fresh (or higher-epoch) challenge: full re-attestation *)
      epoch_now := ch_epoch;
      ensure_attestation sess;
      (match join cfg sess ~nonce:ch_nonce ~cluster_pub:ch_cluster_pub with
      | Ok (evidence, node_pub, key) ->
          Session.set_key sn ~epoch:ch_epoch ~key;
          (* work delivered under a previous epoch is fenced off: the
             cluster has already re-placed it, so running it here could
             only burn cycles or double-run a job *)
          Queue.clear batchq;
          let r =
            Joined
              {
                jd_node = cfg.node_id;
                jd_epoch = ch_epoch;
                jd_evidence = evidence;
                jd_node_pub = node_pub;
              }
          in
          cached_reply := Some r;
          Netfault.send uplink r
      | Error reason ->
          let r =
            Join_failed
              { jf_node = cfg.node_id; jf_epoch = ch_epoch; jf_reason = reason }
          in
          cached_reply := Some r;
          Netfault.send uplink r);
      retire_attestation sess
    end
  in
  (* [light] marks mid-crunch servicing: session upkeep only — a
     challenge (engine surgery) or shutdown waits for the crunch. *)
  let handle ~light msg =
    match msg with
    | (Challenge _ | Shutdown) when light -> Queue.push msg deferred
    | Challenge { ch_epoch; ch_nonce; ch_cluster_pub } ->
        handle_challenge ~ch_epoch ~ch_nonce ~ch_cluster_pub
    | Shutdown -> running := false
    | Down fr -> (
        match Session.receive sn ~now:!now fr with
        | Session.Delivered p -> Queue.push p batchq
        | Session.Heartbeat -> emit (Session.ack_frame sn)
        | Session.Duplicate (* re-acked by [pump] *)
        | Session.Bad_mac | Session.Stale | Session.No_key ->
            ())
  in
  let rec drain ~light () =
    match Channel.try_recv inbox with
    | None -> ()
    | Some msg ->
        incr now;
        handle ~light msg;
        drain ~light ()
  in
  let service () =
    drain ~light:true ();
    pump ()
  in
  while !running do
    if not (Queue.is_empty deferred) then
      handle ~light:false (Queue.pop deferred)
    else if not (Queue.is_empty batchq) then begin
      match Queue.pop batchq with
      | Batch { gen; jobs } ->
          (* [while_waiting]: a node queued for a compute slot still
             answers heartbeats — slot starvation must not look like
             death to the cluster's failure detector. [interrupted]: a
             deferred challenge means the cluster has fenced this
             epoch, so every further round of this batch is work for a
             ledger that will reject it as stale — abort at the round
             boundary, report the remainder unfinished, and let the
             re-attestation run while the probe budget is still
             breathing. A deferred shutdown bounds teardown the same
             way. A delayed or duplicated copy of an old challenge is
             neither — only a strictly newer epoch interrupts. *)
          let interrupting = function
            | Challenge { ch_epoch; _ } -> ch_epoch > !epoch_now
            | Shutdown -> true
            | Down _ -> false
          in
          let interrupted () =
            Queue.fold (fun acc m -> acc || interrupting m) false deferred
          in
          let resp =
            crunching ~while_waiting:service (fun () ->
                run_batch cfg sess ~service ~interrupted ~gen ~jobs)
          in
          (* a rekey can't have happened mid-crunch (challenges are
             deferred), so the response rides the same epoch that
             delivered the batch *)
          emit (Session.send sn ~now:!now resp);
          pump ()
    end
    else begin
      let msg = Channel.recv inbox in
      incr now;
      handle ~light:false msg;
      drain ~light:false ();
      pump ()
    end
  done;
  retire_attestation sess;
  let report = Engine.finish sess.eng in
  let ls = Netfault.stats uplink in
  let ss = Session.stats sn in
  Netfault.send_oob uplink
    (Bye
       {
         bye_node = cfg.node_id;
         bye_report = report;
         bye_hist = Engine.latency_histogram sess.eng;
         bye_net =
           [
             ("net.link.dropped", ls.Netfault.dropped);
             ("net.link.duplicated", ls.Netfault.duplicated);
             ("net.link.corrupted", ls.Netfault.corrupted);
             ("net.link.delayed", ls.Netfault.delayed);
             ("net.link.reordered", ls.Netfault.reordered);
             ("net.link.partition_dropped", ls.Netfault.partition_dropped);
             ("net.retransmits", ss.Session.retransmits);
             ("net.dups_dropped", ss.Session.dups_dropped);
             ("net.hmac_rejects", ss.Session.mac_rejects);
             ( "net.stale_rejected",
               ss.Session.stale_rejects + !stale_challenges );
           ];
       })
