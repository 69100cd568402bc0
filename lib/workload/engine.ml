module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry
module An = Sanctorum_analysis
module S = Sanctorum.Sm
module Rng = Sanctorum_util.Splitmix
open Sanctorum_os

type config = {
  seed : string;
  backend : Testbed.backend;
  cores : int;
  enclaves : int;
  rounds : int;
  mix : Programs.mix;
  fuel : int;
  quantum : int;
  check_every : int;
}

type report = {
  rp_mix : Programs.mix;
  rp_seed : string;
  rp_cores : int;
  rp_enclaves : int;
  rp_rounds : int;
  rp_installs : int;
  rp_reclaims : int;
  rp_exits : int;
  rp_preempts : int;
  rp_fuel_exhausted : int;
  rp_os_faults : int;
  rp_killed : int;
  rp_api_errors : int;
  rp_quanta : int;
  rp_instret : int;
  rp_sim_cycles : int;
  rp_msgs_sent : int;
  rp_msgs_received : int;
  rp_msgs_inflight : int;
  rp_msgs_accounted : bool;
  rp_wall_s : float;
  rp_mips : float;
  rp_ops_per_sec : float;
  rp_quantum_p50 : int;
  rp_quantum_p90 : int;
  rp_quantum_p99 : int;
  rp_findings : An.Report.violation list;
  rp_trace_dropped : int;
  rp_drained : bool;
  rp_free_units_boot : int;
  rp_free_units_end : int;
  rp_reclaimed : bool;
  rp_meas_cache_hits : int;
  rp_meas_cache_misses : int;
}

type member = {
  mutable m_eid : int;  (* churn reinstalls swap the identity in place *)
  mutable m_tid : int;
  mutable m_exits : int;
  mutable m_done : bool;
  mutable m_errs : int;  (* consecutive, mirroring the scheduler's 3-strike drop *)
  mutable m_live : bool;
}

type job = {
  jid : int;
  jrng : Rng.t;
  target : int option;
  members : member list;
  mutable failed : bool;
}

type t = {
  cfg : config;
  tb : Testbed.t;
  os : Os.t;
  sm : S.t;
  sched : Os.Scheduler.sched;
  sink : Tel.Sink.t;
  hist : Tel.Metrics.histogram;
  qrng : Rng.t;  (* timeslice jitter; see [step] *)
  jobs : (int, job) Hashtbl.t;  (* submitted, not yet completed/failed *)
  by_eid : (int, job * member) Hashtbl.t;
  free0 : int;
  mutable rounds : int;
  mutable population : int;  (* members ever submitted (excl. churn swaps) *)
  mutable installs : int;
  mutable reclaims : int;
  mutable exits : int;
  mutable preempts : int;
  mutable fuelex : int;
  mutable os_faults : int;
  mutable killed : int;
  mutable api_errors : int;
  mutable quanta : int;
  mutable instret : int;
  mutable sim_cycles : int;
  mutable msgs_sent : int;
  mutable msgs_received : int;
  mutable msgs_inflight : int;
  mutable findings : An.Report.violation list;
  mutable dropped : int;
  lint : An.Orderlint.t;  (* fed each drained window *)
  mutable failed_buf : (int * string) list;  (* reversed; drained by take_failed *)
  mutable wall_s : float;  (* monotonic host time inside step/finish *)
}

(* Wall time, not process CPU time ([Sys.time]): the fleet runs one
   engine per domain, and CPU time would charge each engine for all of
   them. *)
let seconds_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

let create cfg =
  if cfg.cores < 1 then invalid_arg "Engine.create: cores must be >= 1";
  if cfg.enclaves < 1 then invalid_arg "Engine.create: enclaves must be >= 1";
  if cfg.fuel <= cfg.quantum then
    invalid_arg "Engine.create: fuel must exceed the quantum";
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~capacity:(1 lsl 16) ~metrics () in
  (* The keystone platform spends one PMP deny entry per other live
     enclave domain (and fails closed on overflow), so a many-enclave
     population needs a PMP sized to match. *)
  let pmp_entries = max Hw.Pmp.entry_count (cfg.enclaves + 4) in
  let tb =
    Testbed.create ~backend:cfg.backend ~cores:cfg.cores ~pmp_entries
      ~seed:cfg.seed ~sink ()
  in
  let os = tb.Testbed.os in
  Os.clear_delegated_events os;
  {
    cfg;
    tb;
    os;
    sm = tb.Testbed.sm;
    sched = Os.Scheduler.create os ~cores:(List.init cfg.cores Fun.id);
    sink;
    hist = Tel.Metrics.histogram metrics "workload.quantum.cycles";
    qrng = Rng.of_string (cfg.seed ^ "/quantum");
    jobs = Hashtbl.create 97;
    by_eid = Hashtbl.create 97;
    free0 = Os.free_unit_count os;
    rounds = 0;
    population = 0;
    installs = 0;
    reclaims = 0;
    exits = 0;
    preempts = 0;
    fuelex = 0;
    os_faults = 0;
    killed = 0;
    api_errors = 0;
    quanta = 0;
    instret = 0;
    sim_cycles = 0;
    msgs_sent = 0;
    msgs_received = 0;
    msgs_inflight = 0;
    findings = [];
    dropped = 0;
    lint = An.Orderlint.create ();
    failed_buf = [];
    wall_s = 0.;
  }

let testbed t = t.tb

let install_one t image =
  match Os.retry_transient (fun () -> Os.install_enclave t.os image) with
  | Ok inst ->
      t.installs <- t.installs + 1;
      inst
  | Error e ->
      failwith ("Engine.submit: install: " ^ Sanctorum.Api_error.to_string e)

(* Count the messages still sitting in the enclave's mailbox before the
   metadata (and the stats with it) is torn down — the in-flight tail
   the report's sent/received equation accounts for. *)
let reclaim_member t m =
  if m.m_live then begin
    (match S.mailbox_stats t.sm ~eid:m.m_eid with
    | Ok (deposited, retrieved, _rejected) ->
        t.msgs_inflight <- t.msgs_inflight + (deposited - retrieved)
    | Error _ -> ());
    match Os.retry_transient (fun () -> Os.reclaim_enclave t.os ~eid:m.m_eid) with
    | Ok () ->
        t.reclaims <- t.reclaims + 1;
        Hashtbl.remove t.by_eid m.m_eid;
        m.m_live <- false
    | Error _ -> t.api_errors <- t.api_errors + 1
  end

let submit t ~jid ~seed ~target =
  if Hashtbl.mem t.jobs jid then
    invalid_arg (Printf.sprintf "Engine.submit: duplicate jid %d" jid);
  let jrng = Rng.create ~seed in
  let member inst =
    {
      m_eid = inst.Os.eid;
      m_tid = List.hd inst.Os.tids;
      m_exits = 0;
      m_done = false;
      m_errs = 0;
      m_live = true;
    }
  in
  let members =
    match t.cfg.mix with
    | Programs.Ipc ->
        let a = install_one t (Programs.build_image ~mix:t.cfg.mix ~rng:jrng) in
        let b = install_one t (Programs.build_image ~mix:t.cfg.mix ~rng:jrng) in
        let window inst =
          match inst.Os.shared_paddrs with
          | (_, paddr, _) :: _ -> paddr
          | [] -> assert false
        in
        Os.os_write t.os ~paddr:(window a)
          (Programs.le64 (Int64.of_int b.Os.eid));
        Os.os_write t.os ~paddr:(window b)
          (Programs.le64 (Int64.of_int a.Os.eid));
        [ member a; member b ]
    | Programs.Compute | Programs.Paging | Programs.Churn ->
        [ member (install_one t (Programs.build_image ~mix:t.cfg.mix ~rng:jrng)) ]
  in
  let job = { jid; jrng; target; members; failed = false } in
  List.iter
    (fun m ->
      Hashtbl.replace t.by_eid m.m_eid (job, m);
      Os.Scheduler.enqueue t.sched ~eid:m.m_eid ~tid:m.m_tid)
    members;
  t.population <- t.population + List.length members;
  Hashtbl.replace t.jobs jid job

(* A job that cannot make progress on this shard: park it for
   [take_failed] so the fleet can re-place it elsewhere. Members still
   in the scheduler keep running until their next architectural stop
   (there is no mid-queue eviction, matching real schedulers); each is
   reclaimed the moment it surfaces, or at [finish]. *)
let fail_job t job reason =
  if not job.failed then begin
    job.failed <- true;
    Hashtbl.remove t.jobs job.jid;
    t.failed_buf <- (job.jid, reason) :: t.failed_buf
  end

let complete_job t job =
  List.iter (reclaim_member t) job.members;
  Hashtbl.remove t.jobs job.jid

let checkpoint t =
  (* API calls never span a round boundary, so each drained window is
     well-formed for the lock-discipline pass. The orderliness lint
     needs whole-run lifecycles (a window that opens after an enclave's
     create would flag every later enter), so each window is fed to one
     run-long pass whose findings [finish] reports. *)
  let evs = Tel.Sink.events t.sink in
  t.findings <- t.findings @ An.Checker.snapshot t.sm @ An.Lockcheck.check evs;
  An.Orderlint.feed t.lint evs;
  List.iter
    (fun (e : Tel.Event.t) ->
      match e.Tel.Event.payload with
      | Tel.Event.Mailbox_sent _ -> t.msgs_sent <- t.msgs_sent + 1
      | Tel.Event.Mailbox_received _ -> t.msgs_received <- t.msgs_received + 1
      | _ -> ())
    evs;
  t.dropped <- t.dropped + Tel.Sink.dropped t.sink;
  Tel.Sink.clear t.sink

let on_exit t job m completed =
  m.m_exits <- m.m_exits + 1;
  m.m_errs <- 0;
  if job.failed then reclaim_member t m
  else begin
    (match job.target with
    | Some n when m.m_exits >= n -> m.m_done <- true
    | _ -> ());
    if m.m_done then begin
      if List.for_all (fun m -> m.m_done) job.members then begin
        complete_job t job;
        completed := job.jid :: !completed
      end
    end
    else
      match t.cfg.mix with
      | Programs.Churn when Rng.int job.jrng ~bound:2 = 0 ->
          reclaim_member t m;
          let inst =
            install_one t (Programs.build_image ~mix:t.cfg.mix ~rng:job.jrng)
          in
          m.m_eid <- inst.Os.eid;
          m.m_tid <- List.hd inst.Os.tids;
          m.m_live <- true;
          Hashtbl.replace t.by_eid m.m_eid (job, m);
          Os.Scheduler.enqueue t.sched ~eid:m.m_eid ~tid:m.m_tid
      | _ -> Os.Scheduler.enqueue t.sched ~eid:m.m_eid ~tid:m.m_tid
  end

let step t =
  let t0 = Monotonic_clock.now () in
  (* Jitter the timeslice by up to 1/8 of a quantum, like a real
     scheduler's timer slack. A perfectly periodic quantum can
     phase-lock with a deterministic guest: if the preemption lands in
     the same fatal window of the program every entry (say, between a
     progress-counter reset and the exit ecall), the guest livelocks
     and no round cap is high enough. The jitter stream is seeded, so
     runs still replay bit-for-bit. *)
  let quantum =
    t.cfg.quantum + Rng.int t.qrng ~bound:(max 2 (t.cfg.quantum / 8))
  in
  let slots = Os.Scheduler.round t.sched ~fuel:t.cfg.fuel ~quantum in
  let completed = ref [] in
  List.iter
    (fun (s : Os.Scheduler.slot) ->
      t.quanta <- t.quanta + 1;
      t.instret <- t.instret + s.Os.Scheduler.s_instret;
      t.sim_cycles <- t.sim_cycles + s.Os.Scheduler.s_cycles;
      Tel.Metrics.observe t.hist s.Os.Scheduler.s_cycles;
      match Hashtbl.find_opt t.by_eid s.Os.Scheduler.s_eid with
      | None -> (
          (* A slot for an enclave we no longer track can only be a
             straggler of an already-failed job. *)
          match s.Os.Scheduler.s_outcome with
          | Error _ -> t.api_errors <- t.api_errors + 1
          | Ok _ -> ())
      | Some (job, m) -> (
          match s.Os.Scheduler.s_outcome with
          | Ok Os.Exited ->
              t.exits <- t.exits + 1;
              on_exit t job m completed
          | Ok Os.Preempted ->
              t.preempts <- t.preempts + 1;
              m.m_errs <- 0
          | Ok Os.Fuel_exhausted ->
              t.fuelex <- t.fuelex + 1;
              m.m_errs <- 0
          | Ok (Os.Faulted _) ->
              (* Delegated to the OS: the enclave had no handler for
                 this, and the scheduler already dropped the thread. *)
              t.os_faults <- t.os_faults + 1;
              fail_job t job "enclave fault delegated to OS";
              reclaim_member t m
          | Ok Os.Killed ->
              t.killed <- t.killed + 1;
              fail_job t job "core quarantined mid-run";
              reclaim_member t m
          | Error _ ->
              t.api_errors <- t.api_errors + 1;
              m.m_errs <- m.m_errs + 1;
              if m.m_errs >= 3 then begin
                (* the scheduler's 3-strike rule dropped it from the
                   queue; the enclave itself is still installed *)
                fail_job t job "repeated API errors";
                reclaim_member t m
              end))
    slots;
  t.rounds <- t.rounds + 1;
  if t.cfg.check_every > 0 && t.rounds mod t.cfg.check_every = 0 then
    checkpoint t;
  t.wall_s <- t.wall_s +. seconds_since t0;
  List.rev !completed

let abort t ~jid ~reason =
  match Hashtbl.find_opt t.jobs jid with
  | Some job -> fail_job t job reason
  | None -> ()

let take_failed t =
  let l = List.rev t.failed_buf in
  t.failed_buf <- [];
  l

let inflight t =
  Hashtbl.fold (fun jid _ acc -> jid :: acc) t.jobs [] |> List.sort compare

let healthy t =
  Array.for_all
    (fun (c : Hw.Machine.core) -> not c.Hw.Machine.quarantined)
    (Hw.Machine.cores t.tb.Testbed.machine)

let rounds_run t = t.rounds
let latency_histogram t = t.hist

let finish t =
  let t0 = Monotonic_clock.now () in
  let drained = Os.Scheduler.drain t.sched ~fuel:t.cfg.fuel ~quantum:t.cfg.quantum in
  Hashtbl.fold (fun eid _ acc -> eid :: acc) t.by_eid []
  |> List.sort compare
  |> List.iter (fun eid ->
         match Hashtbl.find_opt t.by_eid eid with
         | Some (_, m) -> reclaim_member t m
         | None -> ());
  checkpoint t;
  t.findings <- t.findings @ An.Orderlint.findings t.lint;
  t.wall_s <- t.wall_s +. seconds_since t0;
  let free_end = Os.free_unit_count t.os in
  let reclaimed =
    free_end = t.free0 && S.enclaves t.sm = [] && S.thread_ids t.sm = []
  in
  let rate v = if t.wall_s > 0. then float_of_int v /. t.wall_s else 0. in
  let counter n =
    match Tel.Sink.metrics t.sink with
    | None -> 0
    | Some m -> (
        match Tel.Metrics.find m n with
        | Some (Tel.Metrics.Counter c) -> Tel.Metrics.value c
        | _ -> 0)
  in
  {
    rp_mix = t.cfg.mix;
    rp_seed = t.cfg.seed;
    rp_cores = t.cfg.cores;
    rp_enclaves = t.population;
    rp_rounds = t.rounds;
    rp_installs = t.installs;
    rp_reclaims = t.reclaims;
    rp_exits = t.exits;
    rp_preempts = t.preempts;
    rp_fuel_exhausted = t.fuelex;
    rp_os_faults = t.os_faults;
    rp_killed = t.killed;
    rp_api_errors = t.api_errors;
    rp_quanta = t.quanta;
    rp_instret = t.instret;
    rp_sim_cycles = t.sim_cycles;
    rp_msgs_sent = t.msgs_sent;
    rp_msgs_received = t.msgs_received;
    rp_msgs_inflight = t.msgs_inflight;
    rp_msgs_accounted = t.msgs_sent = t.msgs_received + t.msgs_inflight;
    rp_wall_s = t.wall_s;
    rp_mips = rate t.instret /. 1e6;
    rp_ops_per_sec = rate (t.installs + t.reclaims + t.exits);
    rp_quantum_p50 = Tel.Metrics.percentile t.hist 0.5;
    rp_quantum_p90 = Tel.Metrics.percentile t.hist 0.9;
    rp_quantum_p99 = Tel.Metrics.percentile t.hist 0.99;
    rp_findings = t.findings;
    rp_trace_dropped = t.dropped;
    rp_drained = drained;
    rp_free_units_boot = t.free0;
    rp_free_units_end = free_end;
    rp_reclaimed = reclaimed;
    rp_meas_cache_hits = counter "measurement.cache.hit";
    rp_meas_cache_misses = counter "measurement.cache.miss";
  }
