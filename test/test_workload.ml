(* The workload engine (DESIGN.md §8): the closed loop must stay clean
   — zero analysis findings, full resource reclamation — for any (seed,
   mix), must be deterministic in its architectural outcomes, and the
   scheduler must honor its queue discipline. Also pins the satellite
   fix of this PR's sweep: every aex_state clear goes through the
   locked [clear_aex_state] helper, so the delete path's clear is
   visible to (and clean under) the lock-discipline analyzer. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module Tel = Sanctorum_telemetry
module An = Sanctorum_analysis
module W = Sanctorum_workload.Workload
module E = Sanctorum_workload.Engine
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_config ~seed ~mix =
  {
    W.seed;
    backend = Testbed.Keystone_backend;
    cores = 2;
    enclaves = 4;
    rounds = 10;
    mix;
    (* the quantum must at least cover an enclave's cold-start page
       walks or no entry ever completes *)
    fuel = 1200;
    quantum = 300;
    check_every = 3;
  }

(* Any (seed, mix): no findings, nothing dropped, everything given
   back. This is the reclamation property the workload engine exists
   to enforce at scale. *)
let prop_clean_and_reclaimed =
  QCheck2.Test.make ~name:"workload: any (seed, mix) ends clean and reclaimed"
    ~count:12
    ~print:(fun (s, m) -> Printf.sprintf "(%d, %s)" s (W.mix_name m))
    QCheck2.Gen.(pair (int_bound 1000) (oneofl W.all_mixes))
    (fun (seed, mix) ->
      let r = W.run (small_config ~seed:(string_of_int seed) ~mix) in
      if r.W.rp_findings <> [] then
        QCheck2.Test.fail_reportf "findings: %s"
          (Format.asprintf "%a" An.Report.pp_list r.W.rp_findings);
      if r.W.rp_trace_dropped <> 0 then
        QCheck2.Test.fail_reportf "dropped %d trace events" r.W.rp_trace_dropped;
      if not r.W.rp_drained then QCheck2.Test.fail_report "drain failed";
      if not r.W.rp_reclaimed then
        QCheck2.Test.fail_reportf "not reclaimed: free units %d -> %d"
          r.W.rp_free_units_boot r.W.rp_free_units_end;
      true)

(* [W.run] step for step through the engine API, with the machine's
   fast path set before the first install. Returns the report and the
   superblock tier's hw.sb.instret. *)
let run_with_fast_path ~fast cfg =
  let eng = E.create cfg in
  let m = (E.testbed eng).Testbed.machine in
  Hw.Machine.set_fast_path m fast;
  let rng = Sanctorum_util.Splitmix.of_string cfg.W.seed in
  let jobs = if cfg.W.mix = W.Ipc then cfg.W.enclaves / 2 else cfg.W.enclaves in
  for jid = 0 to jobs - 1 do
    E.submit eng ~jid ~seed:(Sanctorum_util.Splitmix.next rng) ~target:None
  done;
  for _ = 1 to cfg.W.rounds do
    ignore (E.step eng : int list)
  done;
  let r = E.finish eng in
  let sb_instret =
    match Tel.Sink.metrics (Hw.Machine.sink m) with
    | None -> 0
    | Some metrics -> (
        match Tel.Metrics.find metrics "hw.sb.instret" with
        | Some (Tel.Metrics.Counter c) -> Tel.Metrics.value c
        | _ -> 0)
  in
  (r, sb_instret)

(* The determinism contract: the architectural half of the report is a
   pure function of the config. The execution tier is not part of the
   config: every mix on both backends must replay to a byte-identical
   [arch_signature] with the fast path off, i.e. on the stepped
   reference pipeline, and compute must actually run superblocks with
   it on, so the comparison is not vacuous. *)
let test_deterministic () =
  let arch (r : W.report) =
    ( ( r.W.rp_installs,
        r.W.rp_reclaims,
        r.W.rp_exits,
        r.W.rp_preempts,
        r.W.rp_quanta ),
      ( r.W.rp_instret,
        r.W.rp_sim_cycles,
        r.W.rp_msgs_sent,
        r.W.rp_msgs_received,
        (r.W.rp_quantum_p50, r.W.rp_quantum_p90, r.W.rp_quantum_p99) ) )
  in
  List.iter
    (fun mix ->
      let cfg = small_config ~seed:"det" ~mix in
      let a = W.run cfg and b = W.run cfg in
      check_bool
        (Printf.sprintf "%s replays identically" (W.mix_name mix))
        true
        (arch a = arch b))
    W.all_mixes;
  List.iter
    (fun backend ->
      List.iter
        (fun mix ->
          let cfg = { (small_config ~seed:"det" ~mix) with W.backend } in
          let label what =
            Printf.sprintf "%s on %s: %s" (W.mix_name mix)
              (Testbed.backend_name backend)
              what
          in
          let plain = W.arch_signature (W.run cfg) in
          let fast, sb = run_with_fast_path ~fast:true cfg in
          let slow, sb_slow = run_with_fast_path ~fast:false cfg in
          Alcotest.(check string)
            (label "engine API replays W.run") plain (W.arch_signature fast);
          Alcotest.(check string)
            (label "stepped tier replays the superblock tier")
            plain (W.arch_signature slow);
          check_int (label "stepped tier ran no superblocks") 0 sb_slow;
          if mix = W.Compute then
            check_bool (label "superblock tier engaged") true (sb > 0))
        W.all_mixes)
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

(* The ipc mix must actually move mail, and receive counts can lag the
   sends only by the in-flight tail. *)
let test_ipc_delivers () =
  let r = W.run { (small_config ~seed:"mail" ~mix:W.Ipc) with W.rounds = 30 } in
  check_bool "messages delivered" true (r.W.rp_msgs_received > 0);
  check_bool "received <= sent" true
    (r.W.rp_msgs_received <= r.W.rp_msgs_sent)

(* The accounting regression this PR's sweep fixes: a deposit the peer
   never retrieved used to vanish from the ledger, so sent > received
   looked like message loss. The report now reads each mailbox's
   deposited/retrieved counters before reclaim and carries the gap as
   [rp_msgs_inflight]; sent must equal received + in-flight exactly,
   across seeds. *)
let test_ipc_accounting () =
  List.iter
    (fun seed ->
      let r =
        W.run { (small_config ~seed ~mix:W.Ipc) with W.rounds = 17 }
      in
      check_bool
        (Printf.sprintf "seed %S: ledger balances" seed)
        true r.W.rp_msgs_accounted;
      check_int
        (Printf.sprintf "seed %S: sent = received + in-flight" seed)
        r.W.rp_msgs_sent
        (r.W.rp_msgs_received + r.W.rp_msgs_inflight);
      check_bool
        (Printf.sprintf "seed %S: in-flight non-negative" seed)
        true
        (r.W.rp_msgs_inflight >= 0))
    [ "mail"; "mail-2"; "acct" ]

(* Scheduler queue discipline: Exited jobs leave the queue; re-enqueue
   puts them back; pending tracks both. *)
let test_scheduler_queue () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let image =
    Sanctorum.Image.of_program ~evbase:0x10000
      Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  let inst1 = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  let inst2 = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  let sched = Os.Scheduler.create tb.Testbed.os ~cores:[ 0 ] in
  Os.Scheduler.enqueue sched ~eid:inst1.Os.eid ~tid:(List.hd inst1.Os.tids);
  Os.Scheduler.enqueue sched ~eid:inst2.Os.eid ~tid:(List.hd inst2.Os.tids);
  check_int "both pending" 2 (Os.Scheduler.pending sched);
  let slots = Os.Scheduler.round sched ~fuel:1000 ~quantum:500 in
  check_int "one core, one slot" 1 (List.length slots);
  (match slots with
  | [ s ] ->
      check_bool "first job exited" true
        (s.Os.Scheduler.s_outcome = Ok Os.Exited);
      check_int "exited job left the queue" 1 (Os.Scheduler.pending sched)
  | _ -> Alcotest.fail "expected exactly one slot");
  let slots2 = Os.Scheduler.round sched ~fuel:1000 ~quantum:500 in
  check_int "second job ran" 1 (List.length slots2);
  check_int "queue empty" 0 (Os.Scheduler.pending sched);
  check_int "empty round dispatches nothing" 0
    (List.length (Os.Scheduler.round sched ~fuel:1000 ~quantum:500))

(* The 3-strike rule: a job whose entry errors three rounds in a row
   leaves the queue, and the engine fails it then, not before. The
   enclave's lock is held throughout, so every entry aborts with
   [Concurrent_call] once [retry_transient] gives up. *)
let test_three_strikes () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let image =
    Sanctorum.Image.of_program ~evbase:0x10000
      Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  let inst = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  let eid = inst.Os.eid in
  check_bool "lock taken" true (S.try_lock_enclave tb.Testbed.sm ~eid);
  let sched = Os.Scheduler.create tb.Testbed.os ~cores:[ 0 ] in
  Os.Scheduler.enqueue sched ~eid ~tid:(List.hd inst.Os.tids);
  List.iter
    (fun (round, pending) ->
      (match Os.Scheduler.round sched ~fuel:1000 ~quantum:500 with
      | [ { Os.Scheduler.s_outcome = Error Sanctorum.Api_error.Concurrent_call; _ } ]
        ->
          ()
      | _ -> Alcotest.failf "round %d: expected one Concurrent_call slot" round);
      check_int (Printf.sprintf "pending after round %d" round) pending
        (Os.Scheduler.pending sched))
    [ (1, 1); (2, 1); (3, 0) ];
  (* the same rule, as the engine reports it *)
  let eng =
    E.create
      { (small_config ~seed:"strikes" ~mix:W.Compute) with
        cores = 1;
        enclaves = 1;
        check_every = 0 }
  in
  E.submit eng ~jid:7 ~seed:1L ~target:None;
  let sm = (E.testbed eng).Testbed.sm in
  List.iter
    (fun eid -> check_bool "engine job locked" true (S.try_lock_enclave sm ~eid))
    (S.enclaves sm);
  List.iter
    (fun (step, want) ->
      ignore (E.step eng : int list);
      check_bool (Printf.sprintf "failed after step %d" step) true
        (E.take_failed eng = want))
    [ (1, []); (2, []); (3, [ (7, "repeated API errors") ]) ]

(* Satellite regression: clearing a thread's AEX dump on the
   delete/reclaim path must be a guarded write — taken under the
   thread lock and noted to the trace. Pre-fix, the delete path wrote
   [aex_state <- None] bare, so no [Guarded_write {field="aex_state"}]
   event appeared there and the clear was invisible to the
   lock-discipline analyzer. *)
let test_reclaim_clears_aex_under_lock () =
  let sink = Tel.Sink.create () in
  let tb = Testbed.create ~backend:Testbed.Keystone_backend ~sink () in
  let image =
    (* spin forever so the quantum expiry forces an AEX *)
    Sanctorum.Image.of_program ~evbase:0x10000 Hw.Isa.[ j 0 ]
  in
  let inst = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  (match
     Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:1000 ~quantum:200 ()
   with
  | Ok Os.Preempted -> ()
  | Ok o ->
      Alcotest.failf "expected Preempted, got %s"
        (match o with
        | Os.Exited -> "Exited"
        | Os.Faulted _ -> "Faulted"
        | Os.Fuel_exhausted -> "Fuel_exhausted"
        | Os.Killed -> "Killed"
        | Os.Preempted -> assert false)
  | Error e -> Alcotest.failf "run: %s" (Sanctorum.Api_error.to_string e));
  check_bool "AEX dump pending" true
    (Option.map (fun i -> i.S.i_has_aex) (S.thread_info tb.Testbed.sm ~tid)
    = Some true);
  (* Scope the trace to the reclaim path alone. *)
  Tel.Sink.clear sink;
  (match Os.reclaim_enclave tb.Testbed.os ~eid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reclaim: %s" (Sanctorum.Api_error.to_string e));
  let events = Tel.Sink.events sink in
  let aex_clears =
    List.filter
      (fun (e : Tel.Event.t) ->
        match e.Tel.Event.payload with
        | Tel.Event.Guarded_write { field = "aex_state"; _ } -> true
        | _ -> false)
      events
  in
  check_bool "reclaim notes the aex_state clear" true (aex_clears <> []);
  (match An.Lockcheck.check events with
  | [] -> ()
  | vs ->
      Alcotest.failf "lock discipline: %s"
        (Format.asprintf "%a" An.Report.pp_list vs));
  check_bool "enclave gone" true
    (not (List.mem eid (S.enclaves tb.Testbed.sm)))

(* The OS model's log of delegated causes lives one checkpoint window:
   a run reads only the newest cause and the count, and a fleet shard
   steps one engine for its whole life. After a checkpointing round the
   log is empty; after each other round it holds at most one cause per
   quantum dispatched since the checkpoint. *)
let test_delegated_causes_per_window () =
  let cfg =
    {
      (small_config ~seed:"delegated" ~mix:W.Compute) with
      rounds = 8;
      check_every = 3;
    }
  in
  let eng = E.create cfg in
  let os = (E.testbed eng).Testbed.os in
  for jid = 0 to cfg.W.enclaves - 1 do
    E.submit eng ~jid ~seed:(Int64.of_int jid) ~target:None
  done;
  let grew = ref false in
  for round = 1 to cfg.W.rounds do
    ignore (E.step eng : int list);
    let held = List.length (Os.delegated_events os) in
    if held > 0 then grew := true;
    if round mod cfg.W.check_every = 0 then
      check_int (Printf.sprintf "round %d checkpoints: log cleared" round) 0 held
    else
      check_bool
        (Printf.sprintf "round %d: only this window's causes" round)
        true
        (held <= cfg.W.cores * (round mod cfg.W.check_every))
  done;
  check_bool "the run delegated causes" true !grew;
  let r = E.finish eng in
  check_bool "preempted" true (r.E.rp_preempts > 0);
  check_int "finish checkpoints: log cleared" 0
    (List.length (Os.delegated_events os))

let suite =
  ( "workload",
    [
      Alcotest.test_case "scheduler: queue discipline" `Quick
        test_scheduler_queue;
      Alcotest.test_case "scheduler: three errors in a row drop the job"
        `Quick test_three_strikes;
      Alcotest.test_case "determinism: identical replays" `Slow
        test_deterministic;
      Alcotest.test_case "ipc mix delivers mail" `Quick test_ipc_delivers;
      Alcotest.test_case "ipc accounting: sent = received + in-flight" `Quick
        test_ipc_accounting;
      Alcotest.test_case "reclaim clears AEX state under the thread lock"
        `Quick test_reclaim_clears_aex_under_lock;
      Alcotest.test_case "delegated causes live one checkpoint window" `Quick
        test_delegated_causes_per_window;
      QCheck_alcotest.to_alcotest prop_clean_and_reclaimed;
    ] )
