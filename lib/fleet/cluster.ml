module C = Sanctorum_crypto
module A = Sanctorum.Attestation
module B = Sanctorum.Boot
module Img = Sanctorum.Image
module Tel = Sanctorum_telemetry
module Wl = Sanctorum_workload
module Rng = Sanctorum_util.Splitmix
open Sanctorum_os

type config = {
  seed : string;
  backend : Testbed.backend;
  shards : int;
  cores : int;
  enclaves : int;
  jobs : int;
  target : int;
  mix : Wl.Programs.mix;
  policy : Policy.t;
  retry_budget : int;
  batch_rounds : int;
  fuel : int;
  quantum : int;
  check_every : int;
  faults : (int * Sanctorum_faults.Spec.t) list;
  fault_horizon : int;
  rogue : int list;
  net : Netfault.spec;
  net_horizon : int;
}

let default =
  {
    seed = "fleet";
    backend = Testbed.Keystone_backend;
    shards = 2;
    cores = 4;
    enclaves = 12;
    jobs = 24;
    target = 4;
    mix = Wl.Programs.Compute;
    policy = Policy.Round_robin;
    retry_budget = 3;
    batch_rounds = 600;
    fuel = 2000;
    quantum = 500;
    check_every = 16;
    faults = [];
    fault_horizon = 200_000;
    rogue = [];
    net = Netfault.empty;
    net_horizon = 48;
  }

type shard_outcome = {
  so_node : int;
  so_joined : bool;
  so_evicted : bool;
  so_rejoined : bool;
  so_epoch : int;
  so_report : Wl.Workload.report;
}

type outcome = {
  r_config_shards : int;
  r_policy : Policy.t;
  r_seed : string;
  r_shards : shard_outcome list;
  r_completed : int list;
  r_failed_closed : (int * string) list;
  r_generations : int;
  r_wall_s : float;
  r_instret : int;
  r_ops : int;
  r_mips : float;
  r_ops_per_sec : float;
  r_p50 : int;
  r_p90 : int;
  r_p99 : int;
  r_findings : int;
  r_accounted : bool;
  r_clean : bool;
  r_counters : (string * int) list;
}

let shard_seed cfg i = Printf.sprintf "%s/shard-%d" cfg.seed i

let job_seed cfg jid =
  Rng.next (Rng.of_string (Printf.sprintf "%s/job-%d" cfg.seed jid))

(* Protocol pacing, all in cluster ticks (virtual time: one event-loop
   sweep). Nothing here reads the wall clock. *)
let join_deadline = 120 (* challenge unanswered -> retry, fresh epoch *)
let suspect_deadline = 240 (* silence while work is outstanding -> fence *)
let probe_every = 64 (* rejoin challenge cadence for a fenced node *)

(* Join and probe budgets must outlast the longest partition the fault
   layer can draw — [Netfault.plan] caps a seeded window at
   horizon*8 + 512 ticks — or a merely-partitioned node is declared
   Dead (an absorbing state) and, with every peer dark, the whole job
   set fails closed. 8 x 120 and 24 x 64 both clear the default
   horizon's worst window (~900 ticks) with margin while keeping every
   run bounded. *)
let join_tries = 8 (* challenge attempts before a node is given up *)
let probe_tries = 24 (* rejoin challenges before a fenced node is dead *)

type phase =
  | Joining  (* challenge outstanding, never established this epoch *)
  | Established
  | Fenced  (* suspected dead: fenced off, rejoin probes running *)
  | Dead  (* join/rejoin budget exhausted, or quarantined *)

(* Per-node control-plane bookkeeping. The channels are the only state
   shared with the node's domain; the downlink fault schedule and the
   session are cluster-private. *)
type peer = {
  p_id : int;
  p_inbox : Node.to_node Channel.t;  (* cluster -> node *)
  p_outbox : Node.from_node Channel.t;  (* node -> cluster *)
  p_domain : unit Domain.t;
  p_link : Node.to_node Netfault.link;
  p_session : (Node.down, Node.up) Session.t;
  mutable p_phase : phase;
  mutable p_epoch : int;  (* epoch of the current/last challenge *)
  mutable p_secret : C.Dh.secret;  (* fresh per challenge *)
  mutable p_pub_bytes : string;
  mutable p_nonce : string;
  mutable p_challenge_sent : int;  (* tick *)
  mutable p_tries : int;  (* join/rejoin attempts left *)
  mutable p_next_probe : int;  (* tick of the next rejoin challenge *)
  mutable p_alive_at : int;  (* tick the failure-detector clock started *)
  mutable p_ever_joined : bool;
  mutable p_rejoined : bool;
  mutable p_evicted : bool;
  mutable p_batch : (int * Node.job_spec list) option;  (* outstanding *)
  mutable p_reply : Node.up option;
}

let validate cfg =
  let need cond msg = if not cond then invalid_arg ("Cluster.run: " ^ msg) in
  need (cfg.shards >= 1) "shards must be >= 1";
  need (cfg.cores >= 1) "cores must be >= 1";
  need (cfg.enclaves >= 1) "enclaves must be >= 1";
  need (cfg.jobs >= 1) "jobs must be >= 1";
  need (cfg.target >= 1) "target must be >= 1";
  need (cfg.retry_budget >= 0) "retry budget must be >= 0";
  need (cfg.batch_rounds >= 1) "batch_rounds must be >= 1";
  need (cfg.fuel >= 1) "fuel must be >= 1";
  need (cfg.quantum >= 1) "quantum must be >= 1";
  need (cfg.check_every >= 0) "check_every must be >= 0";
  need (cfg.fault_horizon >= 1) "fault_horizon must be >= 1";
  need (cfg.net_horizon >= 1) "net_horizon must be >= 1";
  let members = if cfg.mix = Wl.Programs.Ipc then 2 else 1 in
  need (cfg.enclaves >= members) "enclave capacity below one job"

let run cfg =
  validate cfg;
  let members_per_job = if cfg.mix = Wl.Programs.Ipc then 2 else 1 in
  let batch_cap = max 1 (cfg.enclaves / members_per_job) in
  let net_enabled = not (Netfault.is_empty cfg.net) in
  let metrics = Tel.Metrics.create () in
  let ctr n = Tel.Metrics.counter metrics ("fleet." ^ n) in
  let nctr n = Tel.Metrics.counter metrics ("net." ^ n) in
  let c_placed = ctr "jobs.placed"
  and c_migrated = ctr "jobs.migrated"
  and c_retried = ctr "jobs.retried"
  and c_joined = ctr "nodes.joined"
  and c_rejoined = ctr "nodes.rejoined"
  and c_evicted = ctr "nodes.evicted"
  and c_verified = ctr "attest.verified"
  and c_rejected = ctr "attest.rejected" in
  let c_crypto_verify = Tel.Metrics.counter metrics "crypto.verify"
  and c_crypto_batch = Tel.Metrics.counter metrics "crypto.batch_verify" in
  (* Pre-resolved handles: the event loop bumps these on its hot path,
     so each is resolved to a record once, never by name. *)
  let c_retx = nctr "retransmits"
  and c_dups = nctr "dups_dropped"
  and c_hmac = nctr "hmac_rejects"
  and c_stale = nctr "stale_rejected"
  and c_hb = nctr "heartbeats"
  and c_hb_missed = nctr "heartbeats_missed"
  and c_join_timeouts = nctr "join_timeouts"
  and c_rekeys = nctr "rekeys" in
  let h_retx_delay = Tel.Metrics.histogram metrics "net.retransmit.delay" in
  let fleet_hist = Tel.Metrics.histogram metrics "fleet.quantum.cycles" in
  let drbg = C.Drbg.create ~seed:(cfg.seed ^ "/cluster") in
  let tick = ref 0 in
  let progress = ref false in
  let t0 = Monotonic_clock.now () in
  (* -------------------------------------------------------------- *)
  (* Spawn: one domain per shard, each with a private machine. A
     shard's compute-bound stretches take a slot from this throttle,
     so no more shards crunch at once than the host has cores — on a
     wide machine it admits everyone. *)
  let crunch = Throttle.create (Throttle.host_parallelism ()) in
  let peers =
    List.init cfg.shards (fun i ->
        let node_cfg =
          {
            Node.node_id = i;
            engine =
              {
                Wl.Engine.seed = shard_seed cfg i;
                backend = cfg.backend;
                cores = cfg.cores;
                enclaves = cfg.enclaves;
                rounds = cfg.batch_rounds;
                mix = cfg.mix;
                fuel = cfg.fuel;
                quantum = cfg.quantum;
                check_every = cfg.check_every;
              };
            faults = List.assoc_opt i cfg.faults;
            fault_horizon = cfg.fault_horizon;
            rogue = List.mem i cfg.rogue;
            net = cfg.net;
            net_horizon = cfg.net_horizon;
          }
        in
        let inbox = Channel.create () and outbox = Channel.create () in
        let domain =
          Domain.spawn (fun () ->
              (* A minor collection is a stop-the-world sync across
                 every running domain; on a host with fewer cores than
                 shards those syncs serialize through the kernel
                 scheduler and dominate the run. A large per-domain
                 minor heap makes them rare (measured ~4.5x on an
                 oversubscribed single-core host). *)
              Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
              Node.run ~throttle:crunch node_cfg ~inbox ~outbox)
        in
        let link =
          Netfault.create ~chan:inbox
            ~seed:(Rng.next (Rng.of_string (shard_seed cfg i ^ "/net-down")))
            ~spec:cfg.net ~horizon:cfg.net_horizon
            ~clock:(fun () -> !tick)
            ~corrupt:Node.corrupt_to_node ()
        in
        let session =
          Session.create Session.cluster_config
            ~seed:(Rng.next (Rng.of_string (shard_seed cfg i ^ "/session")))
            ~role:Session.Cluster_end ~encode_tx:Node.down_bytes
            ~encode_rx:Node.up_bytes
        in
        let secret, _public = C.Dh.generate drbg in
        {
          p_id = i;
          p_inbox = inbox;
          p_outbox = outbox;
          p_domain = domain;
          p_link = link;
          p_session = session;
          p_phase = Joining;
          p_epoch = 0;
          p_secret = secret;
          p_pub_bytes = "";
          p_nonce = "";
          p_challenge_sent = 0;
          p_tries = (if net_enabled then join_tries else 1);
          p_next_probe = 0;
          p_alive_at = 0;
          p_ever_joined = false;
          p_rejoined = false;
          p_evicted = false;
          p_batch = None;
          p_reply = None;
        })
  in
  (* -------------------------------------------------------------- *)
  (* Job ledger: every jid moves Waiting -> Running -> Done | Failed,
     and the Done/Failed states are absorbing — a duplicated or stale
     completion can never credit a job twice, and a late completion
     never reopens a job that was already failed closed. *)
  let policy_state =
    Policy.create cfg.policy ~nodes:cfg.shards
      ~seed:(Rng.next (Rng.of_string (cfg.seed ^ "/policy")))
  in
  let jstate = Array.make cfg.jobs `Waiting in
  let retries = Array.make cfg.jobs 0 in
  let pending = ref (List.init cfg.jobs Fun.id) in
  let completed = ref [] in
  let failed_closed = ref [] in
  let generations = ref 0 in
  (* Each generation either completes a job, burns a retry, or evicts a
     node, so this bound is unreachable without a livelock bug. *)
  let generation_cap = (cfg.jobs * (cfg.retry_budget + 2)) + cfg.shards + 8 in
  let fail_closed jid reason =
    match jstate.(jid) with
    | `Done | `Failed -> ()
    | `Waiting | `Running ->
        jstate.(jid) <- `Failed;
        failed_closed := (jid, reason) :: !failed_closed
  in
  let complete jid =
    match jstate.(jid) with
    | `Done | `Failed -> ()
    | `Waiting | `Running ->
        jstate.(jid) <- `Done;
        completed := jid :: !completed
  in
  let replace counter jid reason =
    match jstate.(jid) with
    | `Done | `Failed -> ()
    | `Waiting | `Running ->
        jstate.(jid) <- `Waiting;
        Tel.Metrics.incr counter;
        retries.(jid) <- retries.(jid) + 1;
        if retries.(jid) > cfg.retry_budget then
          fail_closed jid (Printf.sprintf "retry budget exhausted (%s)" reason)
        else pending := !pending @ [ jid ]
  in
  (* -------------------------------------------------------------- *)
  (* Join: challenge every node, verify evidence against a root the
     cluster derives itself — never one the node supplied. Every
     challenge attempt gets a fresh epoch, nonce, and DH key, so a
     reply always proves possession of {e this} attempt's transcript
     and a node re-attested after fencing comes back under a new key
     epoch that fences off everything from before. *)
  let expected_measurement = Img.measurement Node.agent_image in
  let challenge p ~epoch =
    let secret, public = C.Dh.generate drbg in
    p.p_secret <- secret;
    p.p_pub_bytes <- C.Dh.public_to_bytes public;
    p.p_nonce <- C.Drbg.random_bytes drbg 32;
    p.p_epoch <- epoch;
    p.p_challenge_sent <- !tick;
    Netfault.send p.p_link
      (Node.Challenge
         {
           ch_epoch = epoch;
           ch_nonce = p.p_nonce;
           ch_cluster_pub = p.p_pub_bytes;
         })
  in
  let evict p =
    if not p.p_evicted then begin
      p.p_evicted <- true;
      Tel.Metrics.incr c_evicted
    end
  in
  let fence p =
    Tel.Metrics.incr c_hb_missed;
    evict p;
    p.p_phase <- Fenced;
    p.p_tries <- probe_tries;
    p.p_next_probe <- !tick + probe_every
  in
  let join_reject p =
    Tel.Metrics.incr c_rejected;
    p.p_tries <- p.p_tries - 1;
    if p.p_tries <= 0 then p.p_phase <- Dead
    else challenge p ~epoch:(p.p_epoch + 1)
  in
  (* A join reply is verified the moment it is drained, against the
     root and measurement the cluster derived itself. *)
  let joined p ~jd_epoch ~jd_evidence ~jd_node_pub =
    if
      jd_epoch <> p.p_epoch || (p.p_phase <> Joining && p.p_phase <> Fenced)
    then
      (* a reply for an epoch that already moved on (a duplicate after
         establishment, or a reply to a superseded challenge) dies at
         this guard — counted, so a corrupted handshake frame never
         vanishes untallied *)
      Tel.Metrics.incr c_stale
    else begin
      Tel.Metrics.incr c_crypto_batch;
      Tel.Metrics.incr c_crypto_verify;
      let verdict =
        A.verify_evidence
          ~root:
            (C.Schnorr.public_key
               (B.manufacturer_root ~seed:(shard_seed cfg p.p_id)))
          ~expected_measurement ~nonce:p.p_nonce
          ~channel_binding:(C.Sha3.sha3_256 (jd_node_pub ^ p.p_pub_bytes))
          jd_evidence
      in
      match (verdict, C.Dh.public_of_bytes jd_node_pub) with
      | Ok (), Ok node_public ->
          Tel.Metrics.incr c_verified;
          Session.set_key p.p_session ~epoch:p.p_epoch
            ~key:(C.Dh.shared_key p.p_secret node_public);
          if p.p_phase = Fenced then begin
            p.p_rejoined <- true;
            p.p_evicted <- false;
            Tel.Metrics.incr c_rejoined;
            Tel.Metrics.incr c_rekeys;
            (* The node voided its batch queue when it re-attested (a
               fresh key epoch fences off all in-flight work), so any
               batch still charged to this peer is lost: migrate it
               now, before the peer re-enters Established — otherwise
               the generation barrier waits forever for a Batch_done
               the rekeyed node can no longer send. A reply that
               landed before the fence still counts and folds
               normally. *)
            match (p.p_batch, p.p_reply) with
            | Some (_, jobs), None ->
                List.iter
                  (fun (j : Node.job_spec) ->
                    replace c_migrated j.Node.js_jid "rekeyed mid-batch")
                  jobs;
                p.p_batch <- None
            | _ -> ()
          end;
          if not p.p_ever_joined then Tel.Metrics.incr c_joined;
          p.p_ever_joined <- true;
          p.p_phase <- Established;
          p.p_alive_at <- !tick
      | _ -> join_reject p
    end
  in
  let record_up p up =
    match up with
    | Node.Batch_done { bd_gen; _ } -> (
        match p.p_batch with
        | Some (gen, _) when gen = bd_gen && p.p_reply = None ->
            p.p_reply <- Some up
        | _ -> ())
  in
  let drain_peer p =
    let rec go () =
      match Channel.try_recv p.p_outbox with
      | None -> ()
      | Some msg ->
          progress := true;
          (match msg with
          | Node.Joined { jd_epoch; jd_evidence; jd_node_pub; _ } ->
              joined p ~jd_epoch ~jd_evidence ~jd_node_pub
          | Node.Join_failed { jf_epoch; _ } ->
              if
                jf_epoch = p.p_epoch
                && (p.p_phase = Joining || p.p_phase = Fenced)
              then join_reject p
              else Tel.Metrics.incr c_stale (* wrong epoch/phase: tallied *)
          | Node.Up fr -> (
              match p.p_phase with
              | Established -> (
                  match Session.receive p.p_session ~now:!tick fr with
                  | Session.Delivered up -> record_up p up
                  | Session.Heartbeat | Session.Duplicate -> ()
                  | Session.Bad_mac | Session.Stale | Session.No_key -> ())
              | Fenced ->
                  (* liveness evidence at best; a fenced node's results
                     are never credited — its work was re-placed. A
                     frame that verifies under no known epoch is an
                     authenticity reject, same as on a live session. *)
                  if Session.verify_only p.p_session fr then
                    Tel.Metrics.incr c_stale
                  else Tel.Metrics.incr c_hmac
              | Joining | Dead ->
                  (* no live session to judge it against: stale by
                     definition, and still tallied *)
                  Tel.Metrics.incr c_stale)
          | Node.Bye _ -> () (* teardown only *));
          go ()
    in
    go ()
  in
  let gen_outstanding () = List.exists (fun p -> p.p_batch <> None) peers in
  let gen_resolved () =
    List.for_all
      (fun p ->
        p.p_batch = None || p.p_reply <> None || p.p_phase <> Established)
      peers
  in
  let fold_generation () =
    progress := true;
    List.iter
      (fun p ->
        (match (p.p_batch, p.p_reply) with
        | None, _ -> ()
        | ( Some _,
            Some
              (Node.Batch_done
                 { bd_completed; bd_failed; bd_unfinished; bd_healthy; _ }) )
          ->
            List.iter complete bd_completed;
            List.iter
              (fun (jid, reason) -> replace c_retried jid reason)
              bd_failed;
            List.iter
              (fun jid -> replace c_migrated jid "migrated off shard")
              bd_unfinished;
            if not bd_healthy then begin
              (* quarantined hardware, not a flaky link: no rejoin *)
              evict p;
              p.p_phase <- Dead
            end
        | Some (_, jobs), None ->
            (* fenced or dead mid-generation: the whole batch migrates,
               exactly like a quarantined shard's unfinished jobs *)
            List.iter
              (fun (j : Node.job_spec) ->
                replace c_migrated j.Node.js_jid "node suspected")
              jobs);
        p.p_batch <- None;
        p.p_reply <- None)
      peers
  in
  let place_generation () =
    if List.for_all (fun p -> p.p_phase = Dead) peers then begin
      (* no shard left to run anything: fail the remainder closed *)
      progress := true;
      List.iter (fun jid -> fail_closed jid "no eligible shard") !pending;
      pending := []
    end
    else if List.exists (fun p -> p.p_phase = Established) peers then
      if !generations >= generation_cap then begin
        progress := true;
        List.iter (fun jid -> fail_closed jid "generation cap") !pending;
        pending := []
      end
      else begin
        progress := true;
        incr generations;
        let gen = !generations in
        List.iter (fun p -> Netfault.note_placement p.p_link ~gen) peers;
        let room = Array.make cfg.shards batch_cap in
        let batches = Array.make cfg.shards [] in
        let unplaced = ref [] in
        List.iter
          (fun jid ->
            let eligible =
              List.filter_map
                (fun p ->
                  if p.p_phase = Established && room.(p.p_id) > 0 then
                    Some p.p_id
                  else None)
                peers
            in
            match Policy.place policy_state ~jid ~eligible with
            | None -> unplaced := jid :: !unplaced (* capacity backlog *)
            | Some n ->
                room.(n) <- room.(n) - 1;
                Tel.Metrics.incr c_placed;
                jstate.(jid) <- `Running;
                batches.(n) <-
                  batches.(n)
                  @ [
                      {
                        Node.js_jid = jid;
                        js_seed = job_seed cfg jid;
                        js_target = cfg.target;
                      };
                    ])
          !pending;
        pending := List.rev !unplaced;
        List.iter
          (fun p ->
            match batches.(p.p_id) with
            | [] -> ()
            | jobs ->
                let frame =
                  Session.send p.p_session ~now:!tick (Node.Batch { gen; jobs })
                in
                Netfault.send p.p_link (Node.Down frame);
                p.p_batch <- Some (gen, jobs);
                p.p_alive_at <- !tick)
          peers
      end
    (* else: every live peer is still joining or probing — wait *)
  in
  (* -------------------------------------------------------------- *)
  (* The event loop. One sweep = one tick of virtual time: drain every
     outbox in node-id order (so processing order is deterministic even
     though domains interleave arbitrarily), run the protocol timers,
     then fold/place at the generation barrier. When a sweep makes no
     progress the loop sleeps, adaptively, so an idle cluster costs
     nothing and a busy one never waits. *)
  let net_timers p =
    match p.p_phase with
    | Joining ->
        if !tick - p.p_challenge_sent > join_deadline then begin
          progress := true;
          Tel.Metrics.incr c_join_timeouts;
          p.p_tries <- p.p_tries - 1;
          if p.p_tries <= 0 then p.p_phase <- Dead
          else challenge p ~epoch:(p.p_epoch + 1)
        end
    | Established ->
        Option.iter
          (fun (fr, delay) ->
            progress := true;
            Tel.Metrics.incr c_retx;
            Tel.Metrics.observe h_retx_delay delay;
            Netfault.send p.p_link (Node.Down fr))
          (Session.due p.p_session ~now:!tick);
        if Session.exhausted p.p_session then fence p
        else if p.p_batch <> None then begin
          (match Session.heartbeat_due p.p_session ~now:!tick with
          | Some fr -> Netfault.send p.p_link (Node.Down fr)
          | None -> ());
          let heard = max (Session.last_heard p.p_session) p.p_alive_at in
          if !tick - heard > suspect_deadline then fence p
        end
    | Fenced ->
        if !tick >= p.p_next_probe then begin
          progress := true;
          p.p_tries <- p.p_tries - 1;
          if p.p_tries <= 0 then p.p_phase <- Dead
          else begin
            challenge p ~epoch:(p.p_epoch + 1);
            p.p_next_probe <- !tick + probe_every
          end
        end
    | Dead -> ()
  in
  let joins_settled () = List.for_all (fun p -> p.p_phase <> Joining) peers in
  let finished () =
    !pending = [] && List.for_all (fun p -> p.p_batch = None) peers
  in
  (* Pure livelock insurance: the protocol's own bounds (finite fault
     schedules, bounded windows, bounded retries and probes, the
     generation cap) terminate every run long before this trips. *)
  let quiet_cap = 200_000 in
  let quiet = ref 0 in
  List.iter (fun p -> challenge p ~epoch:1) peers;
  while (not (finished ())) && !quiet < quiet_cap do
    incr tick;
    progress := false;
    List.iter drain_peer peers;
    if net_enabled then List.iter net_timers peers;
    List.iter
      (fun p ->
        if p.p_phase = Established && Session.want_ack p.p_session then
          Netfault.send p.p_link (Node.Down (Session.ack_frame p.p_session)))
      peers;
    if gen_outstanding () then begin
      if gen_resolved () then fold_generation ()
    end
    else if !pending <> [] && joins_settled () then place_generation ();
    if !progress then quiet := 0
    else begin
      incr quiet;
      if !quiet > 3 then
        Unix.sleepf (min 0.002 (0.00005 *. float_of_int !quiet))
    end;
    (* Wall-clock floor on the sweep rate while protocol timers are
       live: heartbeat-ack chatter keeps [progress] hot, and an
       unpaced loop then spins ticks so fast that [suspect_deadline]
       elapses inside one engine round of an honest, hard-crunching
       node — fencing it for being busy, over and over (observed as a
       fence/re-attest/migrate livelock under loss specs). One tick >=
       ~1ms keeps every tick-denominated deadline meaningful in the
       only clock the nodes' compute actually runs in. Faults-off runs
       skip the timers and keep the unpaced barrier path. *)
    if net_enabled then Unix.sleepf 0.001
  done;
  if !quiet >= quiet_cap then begin
    List.iter
      (fun p ->
        match p.p_batch with
        | Some (_, jobs) ->
            List.iter
              (fun (j : Node.job_spec) ->
                fail_closed j.Node.js_jid "livelock safety valve")
              jobs;
            p.p_batch <- None
        | None -> ())
      peers;
    List.iter (fun jid -> fail_closed jid "livelock safety valve") !pending;
    pending := []
  end;
  (* -------------------------------------------------------------- *)
  (* Teardown: out-of-band shutdown past the fault layer (the operator
     console, not the network), so every domain is joined no matter
     the spec. *)
  let finals =
    List.map
      (fun p ->
        Netfault.send_oob p.p_link Node.Shutdown;
        let rec await () =
          match Channel.recv p.p_outbox with
          | Node.Bye { bye_report; bye_hist; bye_net; _ } ->
              (bye_report, bye_hist, bye_net)
          | Node.Up fr ->
              (* the ledger is closed, but a late frame still gets
                 classified — a corrupted one must die at the MAC
                 tally, not vanish into the teardown *)
              ignore (Session.receive p.p_session ~now:!tick fr);
              await ()
          | Node.Joined _ | Node.Join_failed _ ->
              Tel.Metrics.incr c_stale;
              await ()
        in
        let r = await () in
        Domain.join p.p_domain;
        r)
      peers
  in
  let wall_s = Wl.Engine.seconds_since t0 in
  (* Fold the per-endpoint transport counters into the fleet metrics:
     cluster-side links and sessions directly, node-side via [Bye]. *)
  let l n = Tel.Metrics.counter metrics ("net.link." ^ n) in
  List.iter
    (fun p ->
      let ls = Netfault.stats p.p_link in
      Tel.Metrics.add (l "dropped") ls.Netfault.dropped;
      Tel.Metrics.add (l "duplicated") ls.Netfault.duplicated;
      Tel.Metrics.add (l "corrupted") ls.Netfault.corrupted;
      Tel.Metrics.add (l "delayed") ls.Netfault.delayed;
      Tel.Metrics.add (l "reordered") ls.Netfault.reordered;
      Tel.Metrics.add (l "partition_dropped") ls.Netfault.partition_dropped;
      let ss = Session.stats p.p_session in
      Tel.Metrics.add c_dups ss.Session.dups_dropped;
      Tel.Metrics.add c_hmac ss.Session.mac_rejects;
      Tel.Metrics.add c_stale ss.Session.stale_rejects;
      Tel.Metrics.add c_hb ss.Session.heartbeats)
    peers;
  List.iter
    (fun (_, _, bye_net) ->
      List.iter
        (fun (name, v) -> Tel.Metrics.add (Tel.Metrics.counter metrics name) v)
        bye_net)
    finals;
  let shards =
    List.map2
      (fun p (report, _, _) ->
        {
          so_node = p.p_id;
          so_joined = p.p_ever_joined;
          so_evicted = p.p_evicted;
          so_rejoined = p.p_rejoined;
          so_epoch = p.p_epoch;
          so_report = report;
        })
      peers finals
  in
  List.iter (fun (_, h, _) -> Tel.Metrics.merge ~into:fleet_hist h) finals;
  let sum f = List.fold_left (fun acc s -> acc + f s.so_report) 0 shards in
  let instret = sum (fun r -> r.Wl.Workload.rp_instret) in
  let ops =
    sum (fun r ->
        r.Wl.Workload.rp_installs + r.Wl.Workload.rp_reclaims
        + r.Wl.Workload.rp_exits)
  in
  let findings = sum (fun r -> List.length r.Wl.Workload.rp_findings) in
  let completed = List.sort_uniq compare !completed in
  let failed_closed =
    List.sort (fun (a, _) (b, _) -> compare a b) !failed_closed
  in
  let accounted =
    List.length completed + List.length failed_closed = cfg.jobs
    && List.sort compare (completed @ List.map fst failed_closed)
       = List.init cfg.jobs Fun.id
  in
  let shard_clean s =
    let r = s.so_report in
    r.Wl.Workload.rp_reclaimed && r.Wl.Workload.rp_drained
    && r.Wl.Workload.rp_trace_dropped = 0
    && r.Wl.Workload.rp_msgs_accounted
  in
  let clean =
    findings = 0 && accounted
    && List.for_all
         (fun s -> s.so_evicted || (not s.so_joined) || shard_clean s)
         shards
  in
  let rate v = if wall_s > 0. then float_of_int v /. wall_s else 0. in
  {
    r_config_shards = cfg.shards;
    r_policy = cfg.policy;
    r_seed = cfg.seed;
    r_shards = shards;
    r_completed = completed;
    r_failed_closed = failed_closed;
    r_generations = !generations;
    r_wall_s = wall_s;
    r_instret = instret;
    r_ops = ops;
    r_mips = rate instret /. 1e6;
    r_ops_per_sec = rate ops;
    r_p50 = Tel.Metrics.percentile fleet_hist 0.5;
    r_p90 = Tel.Metrics.percentile fleet_hist 0.9;
    r_p99 = Tel.Metrics.percentile fleet_hist 0.99;
    r_findings = findings;
    r_accounted = accounted;
    r_clean = clean;
    r_counters =
      List.filter_map
        (fun (n, i) ->
          match i with
          | Tel.Metrics.Counter c -> Some (n, Tel.Metrics.value c)
          | Tel.Metrics.Histogram _ -> None)
        (Tel.Metrics.to_list metrics);
  }

let pp_outcome fmt r =
  Format.fprintf fmt
    "@[<v>fleet: seed=%S shards=%d policy=%s@,\
     jobs     : completed=%d failed-closed=%d generations=%d accounted=%b@,\
     rates    : wall=%.3fs aggregate-mips=%.2f enclave-ops/s=%.1f@,\
     latency  : fleet per-quantum sim cycles p50<=%d p90<=%d p99<=%d@,\
     health   : findings=%d clean=%b@,\
     counters : %a@,\
     shards   :%a@]"
    r.r_seed r.r_config_shards (Policy.name r.r_policy)
    (List.length r.r_completed)
    (List.length r.r_failed_closed)
    r.r_generations r.r_accounted r.r_wall_s r.r_mips r.r_ops_per_sec r.r_p50
    r.r_p90 r.r_p99 r.r_findings r.r_clean
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt " ")
       (fun fmt (n, v) -> Format.fprintf fmt "%s=%d" n v))
    r.r_counters
    (fun fmt shards ->
      List.iter
        (fun s ->
          Format.fprintf fmt
            "@,  node %d: joined=%b evicted=%b rejoined=%b epoch=%d \
             installs=%d exits=%d reclaimed=%b findings=%d"
            s.so_node s.so_joined s.so_evicted s.so_rejoined s.so_epoch
            s.so_report.Wl.Workload.rp_installs s.so_report.Wl.Workload.rp_exits
            s.so_report.Wl.Workload.rp_reclaimed
            (List.length s.so_report.Wl.Workload.rp_findings))
        shards)
    r.r_shards
