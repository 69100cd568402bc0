(* The fleet layer (DESIGN.md §9): domain-parallel shards under an
   attested control plane. The contracts under test:

   - channels deliver FIFO and block correctly across domains;
   - placement policies are pure functions of (policy, seed, history);
   - per-shard reports are bit-deterministic: two runs of the same
     config produce byte-identical architectural signatures;
   - a node whose evidence fails verification never joins and never
     receives a job — the negative half of remote attestation;
   - a quarantined shard is evicted and every job it held is either
     completed on a healthy shard or failed closed, with the
     completed/failed partition covering the job set exactly;
   - the property: for any (seed, policy, fault spec), the run ends
     with every shard clean or the fleet failed closed with every job
     accounted. *)
module Fl = Sanctorum_fleet.Cluster
module Policy = Sanctorum_fleet.Policy
module Channel = Sanctorum_fleet.Channel
module Netfault = Sanctorum_fleet.Netfault
module Session = Sanctorum_fleet.Session
module Node = Sanctorum_fleet.Node
module W = Sanctorum_workload.Workload
module Spec = Sanctorum_faults.Spec
module C = Sanctorum_crypto

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A config small enough that a run stays under a second: the qcheck
   property and the negative tests all start from here. *)
let small_config =
  {
    Fl.default with
    Fl.shards = 2;
    cores = 2;
    enclaves = 4;
    jobs = 6;
    target = 2;
    batch_rounds = 400;
  }

(* ------------------------------------------------------------------ *)
(* Channels. *)

let test_channel_fifo () =
  let ch = Channel.create () in
  List.iter (Channel.send ch) [ 1; 2; 3 ];
  check_int "len" 3 (Channel.length ch);
  check_int "fifo 1" 1 (Channel.recv ch);
  check_int "fifo 2" 2 (Channel.recv ch);
  check_bool "try_recv last" true (Channel.try_recv ch = Some 3);
  check_bool "try_recv empty" true (Channel.try_recv ch = None)

let test_channel_cross_domain () =
  let req = Channel.create () and resp = Channel.create () in
  let echo = Domain.spawn (fun () ->
      let rec loop () =
        match Channel.recv req with
        | 0 -> ()
        | n ->
            Channel.send resp (n * 2);
            loop ()
      in
      loop ())
  in
  for i = 1 to 100 do
    Channel.send req i;
    check_int "echoed doubled" (i * 2) (Channel.recv resp)
  done;
  Channel.send req 0;
  Domain.join echo

(* ------------------------------------------------------------------ *)
(* Placement policies. *)

let test_policy_round_robin () =
  let st = Policy.create Policy.Round_robin ~nodes:3 ~seed:1L in
  let picks = List.map (fun jid -> Policy.place st ~jid ~eligible:[ 0; 1; 2 ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  check_bool "cycles" true
    (picks = [ Some 0; Some 1; Some 2; Some 0; Some 1; Some 2 ]);
  (* an ineligible node is skipped, not waited for *)
  check_bool "skips ineligible" true
    (Policy.place st ~jid:6 ~eligible:[ 1 ] = Some 1);
  check_bool "empty eligible" true (Policy.place st ~jid:7 ~eligible:[] = None)

let test_policy_least_loaded () =
  let st = Policy.create Policy.Least_loaded ~nodes:3 ~seed:1L in
  ignore (Policy.place st ~jid:0 ~eligible:[ 0 ]);
  ignore (Policy.place st ~jid:1 ~eligible:[ 0 ]);
  (* node 0 carries 2 jobs; the next free choice must avoid it *)
  check_bool "avoids the loaded node" true
    (Policy.place st ~jid:2 ~eligible:[ 0; 1; 2 ] = Some 1);
  ignore (Policy.place st ~jid:3 ~eligible:[ 0; 1; 2 ]);
  check_int "loads recorded" 2 (Policy.load st 0);
  check_int "tie went to lowest id" 1 (Policy.load st 1)

let test_policy_affinity_deterministic () =
  let homes seed =
    let st = Policy.create Policy.Affinity ~nodes:4 ~seed in
    List.map (fun jid -> Policy.place st ~jid ~eligible:[ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  check_bool "same seed, same homes" true (homes 7L = homes 7L);
  (* a job keeps its home across repeated placements (migration replays) *)
  let st = Policy.create Policy.Affinity ~nodes:4 ~seed:7L in
  let h1 = Policy.place st ~jid:5 ~eligible:[ 0; 1; 2; 3 ] in
  let h2 = Policy.place st ~jid:5 ~eligible:[ 0; 1; 2; 3 ] in
  check_bool "home is sticky" true (h1 = h2)

(* ------------------------------------------------------------------ *)
(* Fleet runs. *)

let test_clean_run () =
  let o = Fl.run small_config in
  check_bool "clean" true o.Fl.r_clean;
  check_int "all jobs completed" small_config.Fl.jobs
    (List.length o.Fl.r_completed);
  check_bool "none failed closed" true (o.Fl.r_failed_closed = []);
  check_int "both shards joined" 2
    (List.length (List.filter (fun s -> s.Fl.so_joined) o.Fl.r_shards));
  check_bool "attestations verified" true
    (List.assoc "fleet.attest.verified" o.Fl.r_counters = 2);
  check_bool "placements counted" true
    (List.assoc "fleet.jobs.placed" o.Fl.r_counters >= small_config.Fl.jobs)

(* Bit-determinism: the architectural half of every shard report — and
   the fleet-level job partition — replays byte-identically. *)
let test_shard_determinism () =
  let cfg = { small_config with Fl.policy = Policy.Affinity } in
  let a = Fl.run cfg and b = Fl.run cfg in
  List.iter2
    (fun sa sb ->
      Alcotest.(check string)
        (Printf.sprintf "shard %d replays byte-identically" sa.Fl.so_node)
        (W.arch_signature sa.Fl.so_report)
        (W.arch_signature sb.Fl.so_report))
    a.Fl.r_shards b.Fl.r_shards;
  check_bool "same completion set" true (a.Fl.r_completed = b.Fl.r_completed);
  check_bool "same failure set" true
    (a.Fl.r_failed_closed = b.Fl.r_failed_closed);
  check_int "same generations" a.Fl.r_generations b.Fl.r_generations

(* The attestation negative: a rogue shard presents corrupted evidence;
   it must never join, never hold a job, and the work must complete on
   the honest shard alone. *)
let test_rogue_node_starved () =
  let o = Fl.run { small_config with Fl.rogue = [ 1 ] } in
  let rogue = List.nth o.Fl.r_shards 1 in
  let honest = List.nth o.Fl.r_shards 0 in
  check_bool "rogue never joined" false rogue.Fl.so_joined;
  check_int "rogue installed nothing" 0 rogue.Fl.so_report.W.rp_installs;
  check_int "rogue ran nothing" 0 rogue.Fl.so_report.W.rp_exits;
  check_bool "honest shard did the work" true
    (honest.Fl.so_report.W.rp_installs > 0);
  check_int "rejection counted" 1
    (List.assoc "fleet.attest.rejected" o.Fl.r_counters);
  check_int "one join" 1 (List.assoc "fleet.nodes.joined" o.Fl.r_counters);
  check_int "all jobs still completed" small_config.Fl.jobs
    (List.length o.Fl.r_completed);
  check_bool "clean despite the rogue" true o.Fl.r_clean

(* The quarantine negative: machine checks take shard 0 down mid-run.
   The shard must be evicted, and every job is either completed on a
   healthy shard or failed closed — nothing lost, nothing duplicated. *)
let test_quarantine_migration () =
  let spec = Result.get_ok (Spec.parse "mce:2") in
  let cfg =
    {
      Fl.default with
      Fl.shards = 3;
      jobs = 12;
      enclaves = 6;
      target = 3;
      faults = [ (0, spec) ];
    }
  in
  let o = Fl.run cfg in
  check_bool "every job accounted" true o.Fl.r_accounted;
  let completed = List.length o.Fl.r_completed in
  let failed = List.length o.Fl.r_failed_closed in
  check_int "partition covers the job set" cfg.Fl.jobs (completed + failed);
  let sorted_union =
    List.sort compare (o.Fl.r_completed @ List.map fst o.Fl.r_failed_closed)
  in
  check_bool "no duplicates, no gaps" true
    (sorted_union = List.init cfg.Fl.jobs (fun i -> i));
  check_bool "no findings even under fire" true (o.Fl.r_findings = 0);
  (* if the faults actually bit (the schedule is seeded, so they do),
     the shard was evicted and its in-flight jobs moved *)
  let sh0 = List.hd o.Fl.r_shards in
  check_bool "faulted shard evicted" true sh0.Fl.so_evicted;
  check_bool "migrations recorded" true
    (List.assoc "fleet.jobs.migrated" o.Fl.r_counters > 0);
  check_int "eviction counted" 1
    (List.assoc "fleet.nodes.evicted" o.Fl.r_counters)

(* ------------------------------------------------------------------ *)
(* Net-fault specs. *)

let netspec s =
  match Netfault.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "netspec %S: %s" s e

let test_netspec_parse () =
  check_bool "empty string" true (Netfault.is_empty (netspec ""));
  check_bool "none" true (Netfault.is_empty (netspec "none"));
  check_bool "all preset armed" false (Netfault.is_empty (netspec "all"));
  check_bool "zero counts are empty" true
    (Netfault.is_empty (netspec "drop:0,dup:0"));
  check_bool "bare class means one" true (netspec "drop" = netspec "drop:1");
  (* to_string round-trips through parse *)
  List.iter
    (fun s ->
      let v = netspec s in
      check_bool
        (Printf.sprintf "%S round-trips" s)
        true
        (netspec (Netfault.to_string v) = v))
    [ "drop:3,dup:2"; "corrupt:2,delay:1,reorder:1"; "part@60+500"; "all";
      "none"; "drop:2,part@10+40,part@100+32"; "part@g2+500,part@30+8" ];
  let rejected s =
    match Netfault.parse s with Error _ -> true | Ok _ -> false
  in
  check_bool "unknown class" true (rejected "bogus:2");
  check_bool "bad count" true (rejected "drop:x");
  check_bool "negative count" true (rejected "drop:-1");
  check_bool "window needs +LEN" true (rejected "part@5");
  check_bool "window needs numbers" true (rejected "part@a+b");
  check_bool "zero-length window" true (rejected "part@5+0");
  check_bool "generations count from 1" true (rejected "part@g0+5");
  check_bool "generation needs a number" true (rejected "part@g+5");
  check_bool "only part takes a window" true (rejected "drop@5+10")

(* The link schedule is a pure function of (seed, spec, horizon): two
   links built alike fault identically, and the stats account for every
   send — after a flush each message was dropped, partition-dropped, or
   delivered (plus one extra delivery per dup). *)
let test_netfault_deterministic () =
  let run seed =
    let ch = Channel.create () in
    let clock = ref 0 in
    let l =
      Netfault.create ~chan:ch ~seed
        ~spec:(netspec "drop:2,dup:2,corrupt:2,delay:2,reorder:1,part@10+4")
        ~horizon:32
        ~clock:(fun () -> !clock)
        ~corrupt:(fun x -> x + 1000)
        ()
    in
    for i = 0 to 31 do
      clock := i;
      Netfault.send l i
    done;
    Netfault.flush l;
    let rec drain acc =
      match Channel.try_recv ch with
      | None -> List.rev acc
      | Some x -> drain (x :: acc)
    in
    (drain [], Netfault.stats l)
  in
  let d1, s1 = run 7L and d2, s2 = run 7L and d3, _ = run 8L in
  check_bool "same seed replays" true (d1 = d2 && s1 = s2);
  check_bool "different seed differs" true (d1 <> d3);
  check_int "every send offered" 32 s1.Netfault.sent;
  check_int "accounting identity"
    (s1.Netfault.sent - s1.Netfault.dropped - s1.Netfault.partition_dropped
   + s1.Netfault.duplicated)
    s1.Netfault.delivered;
  check_bool "explicit window fired" true (s1.Netfault.partition_dropped >= 1);
  (* out-of-band delivery ignores the spec entirely *)
  let ch = Channel.create () in
  let l =
    Netfault.create ~chan:ch ~seed:1L ~spec:(netspec "part@0+1000") ~horizon:8
      ~clock:(fun () -> 5)
      ~corrupt:Fun.id ()
  in
  Netfault.send l 1;
  Netfault.send_oob l 2;
  check_bool "in-band partitioned away" true (Channel.try_recv ch = Some 2);
  check_bool "nothing else" true (Channel.try_recv ch = None)

(* ------------------------------------------------------------------ *)
(* Sessions: the reliable transport, one endpoint pair in isolation. *)

let flip_tag fr =
  let flip s =
    String.mapi
      (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
      s
  in
  { fr with Session.fr_tag = flip fr.Session.fr_tag }

let session_pair () =
  let a =
    Session.create Session.cluster_config ~seed:11L ~role:Session.Cluster_end
      ~encode_tx:Fun.id ~encode_rx:Fun.id
  in
  let b =
    Session.create Session.node_config ~seed:22L ~role:Session.Node_end
      ~encode_tx:Fun.id ~encode_rx:Fun.id
  in
  Session.set_key a ~epoch:1 ~key:"shared-key";
  Session.set_key b ~epoch:1 ~key:"shared-key";
  (a, b)

let test_session_delivery () =
  let a, b = session_pair () in
  let f0 = Session.send a ~now:0 "x" in
  check_bool "frame in flight" true (Session.in_flight a);
  (* stop-and-wait: no second frame until the first is acked *)
  check_bool "second send refused" true
    (match Session.send a ~now:0 "y" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "in-order delivery" true
    (Session.receive b ~now:0 f0 = Session.Delivered "x");
  (* a retransmitted frame is acked, never re-delivered *)
  check_bool "duplicate flagged" true
    (Session.receive b ~now:1 f0 = Session.Duplicate);
  check_bool "dup wants a re-ack" true (Session.want_ack b);
  check_int "dup counted" 1 (Session.stats b).Session.dups_dropped;
  (* the ack travels back and clears the frame in flight *)
  let ack = Session.ack_frame b in
  check_bool "ack is payload-less" true (ack.Session.fr_payload = None);
  check_bool "ack verifies as heartbeat" true
    (Session.receive a ~now:2 ack = Session.Heartbeat);
  check_bool "ack clears the frame" false (Session.in_flight a);
  let f1 = Session.send a ~now:3 "y" in
  (* a frame whose seq is not the next one is dropped and re-acked: a
     receiver that never got seq 0 sees seq 1 *)
  let c =
    Session.create Session.node_config ~seed:33L ~role:Session.Node_end
      ~encode_tx:Fun.id ~encode_rx:Fun.id
  in
  Session.set_key c ~epoch:1 ~key:"shared-key";
  check_bool "seq ahead is a duplicate" true
    (Session.receive c ~now:0 f1 = Session.Duplicate);
  check_bool "seq ahead wants a re-ack" true (Session.want_ack c);
  check_bool "next in order" true
    (Session.receive b ~now:3 f1 = Session.Delivered "y")

let test_session_rejects () =
  let a, b = session_pair () in
  let f = Session.send a ~now:0 "x" in
  check_bool "flipped tag rejected" true
    (Session.receive b ~now:0 (flip_tag f) = Session.Bad_mac);
  check_bool "reflected frame rejected" true
    (* the sender's own frame bounced straight back: same key, wrong
       direction string in the MAC input *)
    (Session.receive a ~now:0 f = Session.Bad_mac);
  check_int "mac rejects counted" 1 (Session.stats b).Session.mac_rejects;
  (* epoch fencing: after a rekey, old-epoch frames are stale *)
  Session.set_key b ~epoch:2 ~key:"new-key";
  check_bool "old epoch stale" true
    (Session.receive b ~now:1 f = Session.Stale);
  check_int "stale counted" 1 (Session.stats b).Session.stale_rejects;
  check_bool "verify_only agrees" false (Session.verify_only b f);
  (* and a keyless endpoint delivers nothing *)
  let c =
    Session.create Session.node_config ~seed:3L ~role:Session.Node_end
      ~encode_tx:Fun.id ~encode_rx:Fun.id
  in
  check_bool "no key, no delivery" true
    (Session.receive c ~now:0 f = Session.No_key)

let test_session_retransmit () =
  let a, _ = session_pair () in
  ignore (Session.send a ~now:0 "x");
  check_bool "nothing due yet" true (Session.due a ~now:1 = None);
  let t = ref 0 and last = ref 0 and delays = ref [] in
  (* drive virtual time until the retry budget is spent; each due fire
     must back off further than the last *)
  while not (Session.exhausted a) && !t < 1_000_000 do
    t := !t + 1;
    match Session.due a ~now:!t with
    | None -> ()
    | Some (_, delay) ->
        check_bool "deadline moved forward" true (!t > !last);
        last := !t;
        delays := delay :: !delays
  done;
  check_bool "retry budget exhausts" true (Session.exhausted a);
  check_int "retransmits counted"
    (List.length !delays)
    (Session.stats a).Session.retransmits;
  let ds = List.rev !delays in
  check_bool "backoff grows then caps" true
    (List.length ds >= 3 && List.nth ds 0 < List.nth ds 2)

let test_session_heartbeat () =
  let a, b = session_pair () in
  check_bool "not due immediately" true
    (Session.heartbeat_due a ~now:0 = None);
  match Session.heartbeat_due a ~now:100 with
  | None -> Alcotest.fail "heartbeat never came due"
  | Some hb ->
      check_bool "payload-less" true (hb.Session.fr_payload = None);
      check_bool "peer verifies it" true
        (Session.receive b ~now:0 hb = Session.Heartbeat);
      check_int "heard at the hb's arrival" 0 (Session.last_heard b);
      check_int "heartbeats counted" 1 (Session.stats a).Session.heartbeats

(* ------------------------------------------------------------------ *)
(* Channel under contention: many senders, many receivers. Exactly-once
   across the fleet of receivers, and each sender's messages appear in
   send order within any single receiver's view (FIFO per source). *)

let test_channel_many_to_many () =
  let ch = Channel.create () in
  let senders = 4 and receivers = 3 and per = 400 in
  let total = senders * per in
  let claimed = Atomic.make 0 in
  let rxs =
    List.init receivers (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              if Atomic.fetch_and_add claimed 1 < total then
                loop (Channel.recv ch :: acc)
              else List.rev acc
            in
            loop []))
  in
  let txs =
    List.init senders (fun s ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Channel.send ch (s, i)
            done))
  in
  List.iter Domain.join txs;
  let views = List.map Domain.join rxs in
  check_int "queue drained" 0 (Channel.length ch);
  let union = List.sort compare (List.concat views) in
  let expect =
    List.sort compare
      (List.concat_map
         (fun s -> List.init per (fun i -> (s, i)))
         (List.init senders Fun.id))
  in
  check_bool "exactly-once union across receivers" true (union = expect);
  List.iteri
    (fun r view ->
      for s = 0 to senders - 1 do
        let mine = List.filter_map
            (fun (s', i) -> if s' = s then Some i else None)
            view
        in
        check_bool
          (Printf.sprintf "receiver %d sees sender %d in order" r s)
          true
          (List.sort compare mine = mine)
      done)
    views

(* ------------------------------------------------------------------ *)
(* Config validation: every numeric field is checked before any domain
   spawns, so a bad flag is a usage error, never a wedged fleet. *)

let test_config_validation () =
  check_bool "baseline accepted" true (Fl.validate small_config = ());
  let rejects name cfg =
    match Fl.validate cfg with
    | () -> Alcotest.failf "%s: nonsense accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "shards" { small_config with Fl.shards = 0 };
  rejects "cores" { small_config with Fl.cores = 0 };
  rejects "enclaves" { small_config with Fl.enclaves = -1 };
  rejects "jobs" { small_config with Fl.jobs = 0 };
  rejects "target" { small_config with Fl.target = 0 };
  rejects "fuel" { small_config with Fl.fuel = 0 };
  rejects "quantum" { small_config with Fl.quantum = -5 };
  rejects "batch_rounds" { small_config with Fl.batch_rounds = 0 };
  rejects "retry_budget" { small_config with Fl.retry_budget = -1 };
  rejects "check_every" { small_config with Fl.check_every = -1 };
  rejects "fault_horizon" { small_config with Fl.fault_horizon = 0 };
  rejects "net_horizon" { small_config with Fl.net_horizon = 0 }

(* The demo binary maps that to the 0/1/2 exit convention: 0 clean,
   1 dirty run (findings or unaccounted jobs — the state the rest of
   this file exists to make unreachable), 2 usage error. The scenario
   subcommands fail closed too: a refused install, a rejected
   attestation or session key, a probe that gets through, or a count
   short of --count exits 1, so each clean scenario must exit 0. *)
let demo_exe =
  (* anchored to this binary, so the test passes whether dune runs it
     from the build sandbox or via `dune exec` from the root *)
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/sanctorum_demo.exe"

(* The exit status of the demo run with [args], its output dropped. *)
let demo args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" demo_exe args)

let test_demo_exit_codes () =
  if not (Sys.file_exists demo_exe) then
    Alcotest.fail "demo binary missing (dune deps should have built it)";
  List.iter
    (fun (args, expect) -> check_int args expect (demo args))
    [
      ("fleet --shards 1 --jobs 2 --target 1", 0);
      ("fleet --shards 1 --jobs 2 --target 1 --net-faults drop:1,dup:1", 0);
      ("fleet --net-faults bogus:3", 2);
      ("fleet --net-faults drop:x", 2);
      ("fleet --net-faults part@5", 2);
      ("fleet --net-horizon 0", 2);
      ("fleet --shards 0", 2);
      ("fleet --jobs 0", 2);
      ("fleet --target 0", 2);
      ("fleet --retry-budget -1", 2);
      ("fleet --no-such-flag", 2);
      ("run -b sanctum", 0);
      ("run -b keystone", 0);
      ("attest -b sanctum", 0);
      ("attest -b keystone", 0);
      ("probe -b sanctum", 0);
      ("probe -b keystone", 0);
      ("leak -b sanctum", 0);
      ("leak -b keystone", 0);
      ("check", 0);
    ]

(* The same convention for the workload and chaos subcommands: a
   config the library refuses, or a population the backend cannot hold
   (Sanctum's region-sized units at the default 64 enclaves, Keystone's
   metadata at 2000), is a usage error, reported on stderr, never an
   uncaught exception (cmdliner's 125). So is a count or quantum below
   1, and a shared flag on a command it would not act on: --slow-sim
   on chaos, boot and attest, --check-invariants on chaos and boot, and
   the telemetry flags on modelcheck. *)
let test_demo_config_exit_codes () =
  List.iter
    (fun args -> check_int args 2 (demo args))
    [
      "workload --cores 0";
      "workload --rounds 0";
      "workload --fuel 100";
      "workload --mix ipc --enclaves 1";
      "workload -b sanctum";
      "workload --enclaves 2000";
      "chaos --rounds 0";
      "chaos --slow-sim";
      "chaos --check-invariants";
      "modelcheck --trace t.json";
      "modelcheck --metrics";
      "boot --slow-sim";
      "boot --check-invariants";
      "attest --slow-sim";
      "run --count 0";
      "run --count=-3";
      "run --quantum 0";
    ]

(* ------------------------------------------------------------------ *)
(* Duplicate delivery at the node: re-sending an already-executed batch
   frame must produce an ack and nothing else — the work never re-runs.
   This drives one node domain by hand, playing the cluster's half of
   the protocol over bare channels (the no-fault path). *)

let test_node_dup_idempotent () =
  let seed = "dup-idem/shard-0" in
  let ncfg =
    {
      Node.node_id = 0;
      engine =
        {
          W.seed;
          backend = Fl.default.Fl.backend;
          cores = 2;
          enclaves = 4;
          rounds = 400;
          mix = Fl.default.Fl.mix;
          fuel = Fl.default.Fl.fuel;
          quantum = Fl.default.Fl.quantum;
          check_every = Fl.default.Fl.check_every;
        };
      faults = None;
      fault_horizon = 200_000;
      rogue = false;
      net = Netfault.empty;
      net_horizon = 48;
    }
  in
  let inbox = Channel.create () and outbox = Channel.create () in
  let dom = Domain.spawn (fun () -> Node.run ncfg ~inbox ~outbox) in
  (* challenge, verify, derive the shared key — the cluster's join *)
  let drbg = C.Drbg.create ~seed:"dup-idem/cluster" in
  let secret, public = C.Dh.generate drbg in
  let pub_bytes = C.Dh.public_to_bytes public in
  let nonce = C.Drbg.random_bytes drbg 32 in
  Channel.send inbox
    (Node.Challenge
       { ch_epoch = 1; ch_nonce = nonce; ch_cluster_pub = pub_bytes });
  let key =
    match Channel.recv outbox with
    | Node.Joined { jd_epoch; jd_evidence; jd_node_pub; _ } ->
        check_int "joined at epoch 1" 1 jd_epoch;
        let root =
          C.Schnorr.public_key (Sanctorum.Boot.manufacturer_root ~seed)
        in
        let channel_binding = C.Sha3.sha3_256 (jd_node_pub ^ pub_bytes) in
        check_bool "evidence verifies" true
          (Sanctorum.Attestation.verify_evidence ~root
             ~expected_measurement:
               (Sanctorum.Image.measurement Node.agent_image)
             ~nonce ~channel_binding jd_evidence
          = Ok ());
        C.Dh.shared_key secret
          (Result.get_ok (C.Dh.public_of_bytes jd_node_pub))
    | _ -> Alcotest.fail "expected Joined"
  in
  let cs =
    Session.create Session.cluster_config ~seed:5L ~role:Session.Cluster_end
      ~encode_tx:Node.down_bytes ~encode_rx:Node.up_bytes
  in
  Session.set_key cs ~epoch:1 ~key;
  let batch =
    Node.Batch
      { gen = 0; jobs = [ { Node.js_jid = 0; js_seed = 42L; js_target = 1 } ] }
  in
  let fr = Session.send cs ~now:0 batch in
  Channel.send inbox (Node.Down fr);
  (* the node crunches, then reports exactly one Batch_done *)
  let rec await_done () =
    match Channel.recv outbox with
    | Node.Up f -> (
        match Session.receive cs ~now:1 f with
        | Session.Delivered (Node.Batch_done { bd_gen; bd_completed; _ }) ->
            check_int "our generation" 0 bd_gen;
            check_bool "our job completed" true (bd_completed = [ 0 ])
        | Session.Heartbeat | Session.Duplicate -> await_done ()
        | v ->
            Alcotest.failf "unexpected verdict on first reply: %s"
              (match v with
              | Session.Bad_mac -> "bad mac"
              | Session.Stale -> "stale"
              | Session.No_key -> "no key"
              | _ -> "?"))
    | _ -> Alcotest.fail "expected a session frame"
  in
  await_done ();
  (* ack it so the node stops retransmitting its result *)
  Channel.send inbox (Node.Down (Session.ack_frame cs));
  (* now re-deliver the very same batch frame *)
  Channel.send inbox (Node.Down fr);
  (match Channel.recv outbox with
  | Node.Up f -> (
      match Session.receive cs ~now:2 f with
      | Session.Heartbeat | Session.Duplicate -> ()
      | Session.Delivered _ -> Alcotest.fail "duplicate batch was re-executed"
      | _ -> Alcotest.fail "unexpected verdict on the dup's ack")
  | _ -> Alcotest.fail "expected a session frame");
  Channel.send inbox Node.Shutdown;
  let rec await_bye () =
    match Channel.recv outbox with
    | Node.Bye { bye_report; bye_net; _ } ->
        (* the node saw the duplicate and dropped it at the session *)
        check_int "node deduped once" 1
          (List.assoc "net.dups_dropped" bye_net);
        check_int "node ran the job exactly once" 1 bye_report.W.rp_installs;
        check_bool "node drained" true bye_report.W.rp_reclaimed
    | _ -> await_bye ()
  in
  await_bye ();
  Domain.join dom

(* ------------------------------------------------------------------ *)
(* Pinned chaos scenarios. *)

(* Under the full preset — drop, dup, corrupt, delay, reorder, seeded
   partition — the transport absorbs everything: all jobs complete,
   corrupted traffic dies at the HMAC, and the catalog stays silent. *)
let test_chaos_all_clean () =
  let cfg =
    {
      Fl.default with
      Fl.shards = 2;
      jobs = 8;
      target = 2;
      net = netspec "all";
    }
  in
  let o = Fl.run cfg in
  check_bool "clean under full chaos" true o.Fl.r_clean;
  check_int "all jobs completed" 8 (List.length o.Fl.r_completed);
  check_bool "nothing failed closed" true (o.Fl.r_failed_closed = []);
  let c n = List.assoc n o.Fl.r_counters in
  check_bool "link faults actually fired" true
    (c "net.link.dropped" + c "net.link.duplicated" + c "net.link.corrupted"
     + c "net.link.delayed" + c "net.link.reordered"
     + c "net.link.partition_dropped"
    > 0);
  check_bool "every corruption was rejected, none trusted" true
    (c "net.link.corrupted"
    <= c "net.hmac_rejects" + c "fleet.attest.rejected"
       + c "net.stale_rejected");
  check_int "no findings" 0 o.Fl.r_findings

(* The partition drill, pinned: a 500-tick blackout from the placement
   of the second generation. Both nodes must be fenced (heartbeats dead
   past the suspicion deadline), their jobs migrated, and — once the
   partition heals — re-attested under a fresh epoch, finishing the
   work themselves. The blackout opens on the tick the generation is
   placed, so its batches are sent into it, leaving both nodes silent
   with work outstanding however fast the host simulates. A blackout at
   a fixed tick (60) raced the jobs: ticks are paced by the wall clock,
   and a fast enough host placed its last generation before it. *)
let test_partition_evict_rejoin () =
  let cfg =
    {
      Fl.default with
      Fl.seed = "net1";
      Fl.shards = 2;
      enclaves = 2;
      jobs = 32;
      target = 32;
      net = netspec "part@g2+500";
    }
  in
  let o = Fl.run cfg in
  check_bool "accounted" true o.Fl.r_accounted;
  check_bool "clean" true o.Fl.r_clean;
  check_int "all jobs completed despite the blackout" 32
    (List.length o.Fl.r_completed);
  let c n = List.assoc n o.Fl.r_counters in
  check_bool "partition actually bit" true
    (c "net.link.partition_dropped" > 0);
  check_bool "someone was fenced" true (c "fleet.nodes.evicted" >= 1);
  check_bool "someone rejoined" true (c "fleet.nodes.rejoined" >= 1);
  check_bool "rejoin rekeyed" true (c "net.rekeys" >= 1);
  check_bool "fenced jobs migrated" true (c "fleet.jobs.migrated" >= 1);
  let rejoined =
    List.filter (fun s -> s.Fl.so_rejoined) o.Fl.r_shards
  in
  check_bool "a rejoined shard exists" true (rejoined <> []);
  List.iter
    (fun s ->
      check_bool "rejoined shard is no longer evicted" false s.Fl.so_evicted;
      check_bool "rejoined under a later epoch" true (s.Fl.so_epoch >= 2))
    rejoined

(* The fleet-wide property, the reason the layer exists: for any
   (seed, policy, fault spec) the run terminates with every job in
   exactly one of {completed, failed-closed}, and either everything is
   clean or the failure was contained by eviction — never an
   unaccounted job, never a finding. *)
let prop_fleet_accounts_for_every_job =
  QCheck2.Test.make
    ~name:"fleet: any (seed, policy, faults, net) accounts for every job"
    ~count:6
    ~print:(fun (seed, policy, fault, net) ->
      Printf.sprintf "(%d, %s, %s, %s)" seed (Policy.name policy)
        (Option.value ~default:"none" fault)
        net)
    QCheck2.Gen.(
      quad (int_bound 1000) (oneofl Policy.all)
        (oneofl [ None; Some "mce:1"; Some "bitflip:3"; Some "mce:1,bitflip:2" ])
        (oneofl
           [
             "none";
             "drop:3,dup:2";
             "drop:2,dup:2,reorder:1,corrupt:2";
             "corrupt:3,delay:2";
             "all";
           ]))
    (fun (seed, policy, fault, net) ->
      let faults =
        match fault with
        | None -> []
        | Some s -> [ (1, Result.get_ok (Spec.parse s)) ]
      in
      let cfg =
        {
          small_config with
          Fl.seed = Printf.sprintf "prop-%d" seed;
          policy;
          faults;
          fault_horizon = 120_000;
          net = Result.get_ok (Netfault.parse net);
        }
      in
      let o = Fl.run cfg in
      if not o.Fl.r_accounted then QCheck2.Test.fail_report "job lost";
      if o.Fl.r_findings <> 0 then
        QCheck2.Test.fail_reportf "%d findings" o.Fl.r_findings;
      (* completed and failed-closed partition the job set exactly:
         nothing lost, and — dup, reorder, retransmit or not — nothing
         credited twice *)
      let union =
        List.sort compare
          (o.Fl.r_completed @ List.map fst o.Fl.r_failed_closed)
      in
      if union <> List.init cfg.Fl.jobs Fun.id then
        QCheck2.Test.fail_report "completed/failed sets are not a partition";
      (* every corrupted message died at an authenticity check *)
      let c n = List.assoc n o.Fl.r_counters in
      if
        c "net.link.corrupted" > 0
        && c "net.hmac_rejects" + c "fleet.attest.rejected"
           + c "net.stale_rejected"
           = 0
      then QCheck2.Test.fail_report "corrupted traffic was trusted";
      List.iter
        (fun (s : Fl.shard_outcome) ->
          if s.Fl.so_joined && not s.Fl.so_evicted then begin
            if not s.Fl.so_report.W.rp_reclaimed then
              QCheck2.Test.fail_reportf "shard %d leaked" s.Fl.so_node;
            if not s.Fl.so_report.W.rp_msgs_accounted then
              QCheck2.Test.fail_reportf "shard %d mail unaccounted"
                s.Fl.so_node
          end)
        o.Fl.r_shards;
      true)

let suite =
  ( "fleet",
    [
      Alcotest.test_case "channel: fifo and try_recv" `Quick test_channel_fifo;
      Alcotest.test_case "channel: cross-domain echo" `Quick
        test_channel_cross_domain;
      Alcotest.test_case "channel: many senders, many receivers" `Quick
        test_channel_many_to_many;
      Alcotest.test_case "netspec: parse, round-trip, reject" `Quick
        test_netspec_parse;
      Alcotest.test_case "netfault: schedule replays from its seed" `Quick
        test_netfault_deterministic;
      Alcotest.test_case "session: exactly-once, in-order delivery" `Quick
        test_session_delivery;
      Alcotest.test_case "session: mac, reflection, epoch fencing" `Quick
        test_session_rejects;
      Alcotest.test_case "session: bounded backoff retransmit" `Quick
        test_session_retransmit;
      Alcotest.test_case "session: heartbeats feed the detector" `Quick
        test_session_heartbeat;
      Alcotest.test_case "config: every numeric field validated" `Quick
        test_config_validation;
      Alcotest.test_case "demo: exit-code convention (fleet and scenarios)"
        `Slow test_demo_exit_codes;
      Alcotest.test_case "node: redelivered batch acked, not re-run" `Slow
        test_node_dup_idempotent;
      Alcotest.test_case "chaos: full fault preset stays clean" `Slow
        test_chaos_all_clean;
      Alcotest.test_case "chaos: partition, fence, rejoin, rekey" `Slow
        test_partition_evict_rejoin;
      Alcotest.test_case "policy: round-robin cycles and skips" `Quick
        test_policy_round_robin;
      Alcotest.test_case "policy: least-loaded avoids hot nodes" `Quick
        test_policy_least_loaded;
      Alcotest.test_case "policy: affinity homes are sticky" `Quick
        test_policy_affinity_deterministic;
      Alcotest.test_case "cluster: clean run completes every job" `Slow
        test_clean_run;
      Alcotest.test_case "cluster: shard reports replay byte-identically"
        `Slow test_shard_determinism;
      Alcotest.test_case "attestation: rogue node never receives a job" `Slow
        test_rogue_node_starved;
      Alcotest.test_case "quarantine: evicted shard's jobs land elsewhere"
        `Slow test_quarantine_migration;
      QCheck_alcotest.to_alcotest prop_fleet_accounts_for_every_job;
      (* registered last, so that the indices above stay put *)
      Alcotest.test_case "demo: workload and chaos config errors exit 2" `Slow
        test_demo_config_exit_codes;
    ] )
