(* The five workloads. Each repetition drives the system only through its
   public entry points — [Engine.{create,submit,step,finish}],
   [Attestation.{request_attestation,verify_evidence_batch}] and
   [Cluster.run] — and is the same fixed amount of work: the per-round
   cost grows with run length, so run length never depends on host speed.

   A repetition is a root span "rep" with three phase spans, "setup",
   "window" and "teardown", each holding the spans of the calls made in
   it and of the calibration marks ([Calib]) between them. The clock is
   always read at phase boundaries and around each call whose time an
   end-to-end metric needs; the other spans exist only when
   [Spans.enabled] is set.

   Host times are kept as samples (start, seconds) so that they can be
   scaled to the reference host speed once the run's calibration
   timeline is complete. *)

module W = Sanctorum_workload
module E = W.Engine
module Wl = W.Workload
module F = Sanctorum_fleet
module C = Sanctorum_crypto
module A = Sanctorum.Attestation
module S = Sanctorum.Sm
module Tel = Sanctorum_telemetry
module An = Sanctorum_analysis
module Tb = Sanctorum_os.Testbed
module Os = Sanctorum_os.Os
module Rng = Sanctorum_util.Splitmix

type sample = int64 * float

type rep = {
  setup : sample option;  (** boot plus initial installs, when timed *)
  work : sample list;  (** the timed work [ops] counts *)
  ops : int;
  rounds : sample array;  (** one latency sample per round *)
  total : sample;  (** the whole repetition *)
  signature : string;  (** everything the simulated system decided *)
  problems : string list;  (** empty when the repetition ran clean *)
  layers : unit -> (string * float) list;
      (** per-layer values from the repetition's spans; call after
          [Calib.freeze], and only when the repetition was traced *)
}

(* A check that failed, or nothing. *)
let expect ok msg = if ok then None else Some msg
let checks l = List.filter_map Fun.id l

let counters sm =
  match Tel.Sink.metrics (S.sink sm) with
  | None -> []
  | Some m ->
      List.filter_map
        (function
          | n, Tel.Metrics.Counter c -> Some (n, Tel.Metrics.value c)
          | _, Tel.Metrics.Histogram _ -> None)
        (Tel.Metrics.to_list m)

let count cs n = Option.value ~default:0 (List.assoc_opt n cs)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let monitor_layers cs =
  let f n = float_of_int (count cs n) in
  let hits = f "measurement.cache.hit" and misses = f "measurement.cache.miss" in
  let rejected =
    List.fold_left
      (fun acc (n, v) -> if has_prefix "sm.api.rejected." n then acc + v else acc)
      0 cs
  in
  [
    ("sm.aex", f "sm.aex");
    ("sm.api.rejected", float_of_int rejected);
    ("measurement.cache.hit_ratio", Stats.ratio hits (hits +. misses));
  ]
  @ List.map
      (fun (api, _) -> ("sm.api.calls." ^ api, f ("sm.api.calls." ^ api)))
      Catalog.sm_calls
  @ List.map
      (fun n -> (n, f n))
      [
        "hw.sb.instret"; "hw.sb.blocks"; "hw.sb.side_exits"; "hw.tlb.misses";
        "hw.ptw.steps"; "hw.cache.l1.misses"; "hw.cache.l2.misses";
        "hw.traps.irq-timer"; "hw.traps.ecall";
      ]

(* Traced repetitions must cover their measured total to within this
   share; the rest is the benchmark loop between calls. *)
let phase_tolerance = 0.02

(* Share of the repetition not covered by the spans inside its phases:
   the benchmark loop's own time. *)
let phase_gap root spans =
  let phases = List.filter (fun s -> s.Spans.parent = root.Spans.id) spans in
  let covered =
    List.fold_left
      (fun acc p ->
        List.fold_left (fun acc c -> acc +. Spans.duration c) acc (Spans.children p spans))
      0. phases
  in
  1. -. Stats.ratio covered (Spans.duration root)

let ms s = 1e3 *. s

(* Scaled host seconds of samples, summed. *)
let scaled_sum samples = List.fold_left (fun acc x -> acc +. Calib.scale x) 0. samples
let scaled a = Array.map Calib.scale a

(* [metric]: the mean scaled host ms of [parent]'s children called
   [name]; nothing when a repetition made no such call. *)
let mean_ms metric ~parent ~name spans =
  match scaled (Spans.samples ~parent ~name spans) with
  | [||] -> []
  | a -> [ (metric, ms (Stats.mean a)) ]

(* Run [body] as one repetition. [body] returns the repetition and a
   function that derives per-layer values from its spans, given a lookup
   of its phase spans. *)
let repetition body =
  let first = !Spans.next_id in
  let (r, layers_of), total = Spans.piece "rep" body in
  let traced = !Spans.enabled in
  let layers () =
    if not traced then []
    else
      let spans = Spans.since first in
      let root = List.find (fun s -> s.Spans.name = "rep") spans in
      let phase name =
        List.find (fun s -> s.Spans.parent = root.Spans.id && s.Spans.name = name) spans
      in
      ("bench.phase_gap", phase_gap root spans) :: layers_of ~phase spans
  in
  { r with total; layers }

let no_layers () = []

(* ---- compute, ipc, churn: one engine, closed loop ---- *)

let rounds = 1000

(* Rounds between calibration marks inside the window. *)
let calib_every = 50

let engine_config mix ~seed =
  {
    Wl.default with
    mix;
    rounds;
    seed = Printf.sprintf "perfbench/%s/%d" (Wl.mix_name mix) seed;
  }

let engine_rep ?(rounds = rounds) mix ~seed =
  let cfg = { (engine_config mix ~seed) with rounds } in
  repetition (fun () ->
      let eng, setup =
        Spans.piece "setup" (fun () ->
            let eng = Spans.call "Engine.create" (fun () -> E.create cfg) in
            let rng = Rng.of_string cfg.seed in
            let jobs = if mix = Wl.Ipc then cfg.enclaves / 2 else cfg.enclaves in
            for jid = 0 to jobs - 1 do
              let seed = Rng.next rng in
              Spans.call "Engine.submit" (fun () ->
                  E.submit eng ~jid ~seed ~target:None)
            done;
            eng)
      in
      let steps = Array.make rounds (0L, 0.) in
      let (), _ =
        Spans.piece "window" (fun () ->
            for r = 0 to rounds - 1 do
              if r mod calib_every = 0 then Calib.mark ();
              let _completed, s = Spans.piece "Engine.step" (fun () -> E.step eng) in
              steps.(r) <- s
            done;
            Calib.mark ())
      in
      let rp, finish =
        Spans.piece "teardown" (fun () ->
            Spans.call "Engine.finish" (fun () -> E.finish eng))
      in
      let cs = counters (E.testbed eng).Tb.sm in
      let all_ops = rp.Wl.rp_quanta + rp.Wl.rp_installs + rp.Wl.rp_reclaims in
      let problems =
        checks
          [
            expect (rp.Wl.rp_findings = []) "checker or trace findings";
            expect rp.Wl.rp_drained "scheduler not drained";
            expect rp.Wl.rp_reclaimed "enclaves or memory not reclaimed";
            expect rp.Wl.rp_msgs_accounted "mailbox messages unaccounted";
            expect (rp.Wl.rp_api_errors = 0) "API errors";
            expect (rp.Wl.rp_killed + rp.Wl.rp_os_faults = 0) "enclaves faulted or killed";
            expect (rp.Wl.rp_trace_dropped = 0) "telemetry events dropped";
          ]
      in
      let layers_of ~phase spans =
        let setup = phase "setup" and window = phase "window" in
        let steps = scaled (Spans.samples ~parent:window ~name:"Engine.step" spans) in
        let checkpoint i = (i + 1) mod cfg.Wl.check_every = 0 in
        let pick f =
          Array.of_list (List.filteri (fun i _ -> f i) (Array.to_list steps))
        in
        let plain = pick (fun i -> not (checkpoint i)) in
        let ck = pick checkpoint in
        let n = Array.length steps in
        let tenth = n / 10 in
        let plain_between lo hi =
          pick (fun i -> i >= lo && i < hi && not (checkpoint i))
        in
        let step_s = Stats.sum steps in
        let teardown_s = Calib.scale finish in
        let ck_excess_s = Stats.mean ck -. Stats.mean plain in
        let instret = float_of_int (count cs "hw.instret") in
        mean_ms "workload.submit_ms" ~parent:setup ~name:"Engine.submit" spans
        @ [
          ("os.round_ms", ms (Stats.median plain));
          ("os.host_us_per_quantum", 1e6 *. Stats.ratio step_s (float_of_int rp.Wl.rp_quanta));
          ( "os.round_growth",
            Stats.ratio
              (Stats.mean (plain_between (n - tenth) n))
              (Stats.mean (plain_between 0 tenth)) );
          ("os.teardown_ms", ms teardown_s);
          ("analysis.checkpoint_ms", ms ck_excess_s);
          ( "analysis.share",
            Stats.ratio
              (float_of_int (Array.length ck) *. ck_excess_s)
              (step_s +. teardown_s) );
          ("hw.instret", instret);
          ("hw.sim_mips", Stats.ratio (float_of_int rp.Wl.rp_instret) step_s /. 1e6);
          ("hw.sb.share", Stats.ratio (float_of_int (count cs "hw.sb.instret")) instret);
          ("hw.quantum_cycles_p50", float_of_int rp.Wl.rp_quantum_p50);
          ("hw.quantum_cycles_p99", float_of_int rp.Wl.rp_quantum_p99);
        ]
        @ monitor_layers cs
      in
      ( {
          setup = Some setup;
          work = finish :: Array.to_list steps;
          (* An enclave operation is an entry (ended by an exit or an
             AEX), an install or a reclaim; the initial installs belong to
             the set-up. Exits alone would make the count depend on the
             seed's program lengths. *)
          ops = all_ops - rp.Wl.rp_enclaves;
          rounds = steps;
          total = (0L, 0.);
          signature = Wl.arch_signature rp;
          problems;
          layers = no_layers;
        },
        layers_of ))

(* ---- attest: one signing enclave serving a crowd of clients ---- *)

let attest_clients = 256
let attest_batch = 16

type client = { nonce : string; channel_binding : string }

(* A remote verifier's inputs: DH key agreement and a fresh nonce, drawn
   from the seeded DRBG before the timed window opens. *)
let client_inputs rng =
  let _v_secret, v_public = C.Dh.generate rng in
  let e_secret, e_public = C.Dh.generate rng in
  ignore (C.Dh.shared_key e_secret v_public : string);
  let channel_binding =
    C.Sha3.sha3_256 (C.Dh.public_to_bytes e_public ^ C.Dh.public_to_bytes v_public)
  in
  { nonce = C.Drbg.random_bytes rng 32; channel_binding }

(* The inputs last generated, for repetitions that reuse them. *)
let cached_inputs = ref None

let attest_rep ?(clients = attest_clients) ?(fresh_inputs = true) ~seed () =
  let tseed = Printf.sprintf "perfbench/attest/%d" seed in
  repetition (fun () ->
      let (tb, es, target, expected, inputs), setup =
        Spans.piece "setup" (fun () ->
            let sink =
              Tel.Sink.create ~capacity:(1 lsl 14) ~metrics:(Tel.Metrics.create ()) ()
            in
            let tb =
              Spans.call "Testbed.create" (fun () ->
                  Tb.create ~backend:Tb.Keystone_backend ~seed:tseed ~sink ())
            in
            let installed = function
              | Ok (i : Os.installed) -> i
              | Error e -> failwith ("install: " ^ Sanctorum.Api_error.to_string e)
            in
            let es =
              installed
                (Spans.call "Testbed.install_signing_enclave" (fun () ->
                     Tb.install_signing_enclave tb))
            in
            let image =
              Sanctorum.Image.of_program ~evbase:0x30000
                Sanctorum_hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
            in
            let target =
              installed
                (Spans.call "Os.install_enclave" (fun () ->
                     Os.install_enclave tb.Tb.os image))
            in
            let inputs =
              match !cached_inputs with
              | Some (key, inputs) when (not fresh_inputs) && key = (tseed, clients) ->
                  inputs
              | _ ->
                  let rng = C.Drbg.create ~seed:(tseed ^ "/clients") in
                  let inputs =
                    Array.init clients (fun _ ->
                        Spans.call "client.inputs" (fun () -> client_inputs rng))
                  in
                  cached_inputs := Some ((tseed, clients), inputs);
                  inputs
            in
            (tb, es, target, Sanctorum.Image.measurement image, inputs))
      in
      let sm = tb.Tb.sm in
      let root = (S.identity sm).Sanctorum.Boot.root_public in
      let latency = Array.make clients (0L, 0.) in
      let batches = ref [] in
      let verified = ref 0 and errors = ref 0 in
      let signatures = Buffer.create (clients * 64) in
      (* One client: its request, as the evidence to verify. *)
      let request i =
        let c = inputs.(i) in
        match
          Spans.call "Attestation.request_attestation" (fun () ->
              A.request_attestation sm ~eid:target.Os.eid ~es_eid:es.Os.eid
                ~nonce:c.nonce ~channel_binding:c.channel_binding)
        with
        | Error _ ->
            incr errors;
            None
        | Ok ev ->
            Buffer.add_string signatures ev.A.signature;
            Some
              {
                A.vr_root = root;
                vr_expected_measurement = expected;
                vr_nonce = c.nonce;
                vr_channel_binding = c.channel_binding;
                vr_evidence = ev;
              }
      in
      let (), _ =
        Spans.piece "window" (fun () ->
            let b0 = ref 0 in
            while !b0 < clients do
              Calib.mark ();
              let b1 = min clients (!b0 + attest_batch) in
              let started = Array.make (b1 - !b0) 0L in
              let batch_start = Spans.now () in
              let reqs = ref [] in
              for i = !b0 to b1 - 1 do
                started.(i - !b0) <- Spans.now ();
                Option.iter (fun r -> reqs := r :: !reqs) (request i)
              done;
              let verdicts =
                Spans.call "Attestation.verify_evidence_batch" (fun () ->
                    A.verify_evidence_batch (List.rev !reqs))
              in
              let t_end = Spans.now () in
              batches := (batch_start, Spans.seconds batch_start t_end) :: !batches;
              Array.iter (function Ok () -> incr verified | Error _ -> ()) verdicts;
              (* A client's latency runs from its request to its verdict. *)
              Array.iteri
                (fun k t0 -> latency.(!b0 + k) <- (t0, Spans.seconds t0 t_end))
                started;
              b0 := b1
            done;
            Calib.mark ())
      in
      let findings, _ =
        Spans.piece "teardown" (fun () ->
            Spans.call "Checker.snapshot" (fun () -> An.Checker.snapshot sm))
      in
      let cs = counters sm in
      let signs = count cs "crypto.sign" in
      let n_batches = List.length !batches in
      let problems =
        checks
          [
            expect (!errors = 0) "attestation requests refused";
            expect (!verified = clients) "evidence rejected";
            expect (signs = clients) "sign count differs from the client count";
            expect (findings = []) "checker findings";
          ]
      in
      let signature =
        Printf.sprintf
          "attest seed=%s clients=%d verified=%d errors=%d signs=%d batches=%d \
           findings=%d evidence=%s"
          tseed clients !verified !errors signs n_batches (List.length findings)
          (Sanctorum_util.Hex.encode (C.Sha3.sha3_256 (Buffer.contents signatures)))
      in
      let layers_of ~phase spans =
        let setup = phase "setup" and window = phase "window" in
        mean_ms "attest.request_ms" ~parent:window ~name:"Attestation.request_attestation"
          spans
        @ mean_ms "crypto.batch_verify_ms" ~parent:window
            ~name:"Attestation.verify_evidence_batch" spans
        @ mean_ms "crypto.client_dh_ms" ~parent:setup ~name:"client.inputs" spans
        @ [
          ("crypto.sign", float_of_int signs);
          ( "crypto.batch_verify",
            float_of_int
              (Array.length
                 (Spans.samples ~parent:window ~name:"Attestation.verify_evidence_batch"
                    spans)) );
          ("hw.instret", float_of_int (count cs "hw.instret"));
        ]
        @ monitor_layers cs
      in
      ( {
          setup = (if fresh_inputs then Some setup else None);
          work = !batches;
          ops = !verified;
          rounds = latency;
          total = (0L, 0.);
          signature;
          problems;
          layers = no_layers;
        },
        layers_of ))

(* ---- fleet: two shards, one domain each ---- *)

let fleet_config ~seed =
  {
    F.Cluster.default with
    seed = Printf.sprintf "perfbench/fleet/%d" seed;
    shards = 2;
    cores = 4;
    enclaves = 8;
    jobs = 16;
    target = 10;
    mix = Wl.Compute;
    batch_rounds = 2000;
  }

(* [Cluster.run] boots and joins its shards inside the call, so the
   set-up a repetition can time from outside is one shard's share done
   by hand: its engine booted from the shard seed and its jobs submitted,
   as the node does before its first round. *)
let fleet_setup cfg =
  let eng =
    Spans.call "Engine.create" (fun () ->
        E.create
          {
            Wl.seed = F.Cluster.shard_seed cfg 0;
            backend = cfg.F.Cluster.backend;
            cores = cfg.F.Cluster.cores;
            enclaves = cfg.F.Cluster.enclaves;
            rounds = cfg.F.Cluster.batch_rounds;
            mix = cfg.F.Cluster.mix;
            fuel = cfg.F.Cluster.fuel;
            quantum = cfg.F.Cluster.quantum;
            check_every = cfg.F.Cluster.check_every;
          })
  in
  for k = 0 to (cfg.F.Cluster.jobs / cfg.F.Cluster.shards) - 1 do
    let jid = k * cfg.F.Cluster.shards in
    Spans.call "Engine.submit" (fun () ->
        E.submit eng ~jid ~seed:(F.Cluster.job_seed cfg jid)
          ~target:(Some cfg.F.Cluster.target))
  done

let fleet_rep ?(time_setup = true) ~seed () =
  let cfg = fleet_config ~seed in
  repetition (fun () ->
      let (), setup =
        Spans.piece "setup" (fun () -> if time_setup then fleet_setup cfg)
      in
      let o, run =
        Spans.piece "window" (fun () ->
            Spans.call "Cluster.run" (fun () -> F.Cluster.run cfg))
      in
      let (), _ = Spans.piece "teardown" ignore in
      let problems =
        checks
          [
            expect o.F.Cluster.r_clean "fleet run not clean";
            expect o.F.Cluster.r_accounted "jobs unaccounted";
            expect (o.F.Cluster.r_failed_closed = []) "jobs failed closed";
            expect
              (List.length o.F.Cluster.r_completed = cfg.F.Cluster.jobs)
              "jobs not completed";
          ]
      in
      let shard_reports = List.map (fun s -> s.F.Cluster.so_report) o.F.Cluster.r_shards in
      let signature =
        String.concat "\n"
          (Printf.sprintf "fleet seed=%s completed=%d failed=%d generations=%d p50=%d p99=%d %s"
             cfg.F.Cluster.seed
             (List.length o.F.Cluster.r_completed)
             (List.length o.F.Cluster.r_failed_closed)
             o.F.Cluster.r_generations o.F.Cluster.r_p50 o.F.Cluster.r_p99
             (String.concat " "
                (List.filter_map
                   (fun (n, v) ->
                     (* How the join evidence is batched depends on when
                        the shard domains answer: host timing, not
                        simulated state. *)
                     if has_prefix "crypto." n then None
                     else Some (Printf.sprintf "%s=%d" n v))
                   o.F.Cluster.r_counters))
          :: List.map
               (fun s ->
                 Printf.sprintf "shard %d joined=%b evicted=%b epoch=%d %s"
                   s.F.Cluster.so_node s.F.Cluster.so_joined s.F.Cluster.so_evicted
                   s.F.Cluster.so_epoch (Wl.arch_signature s.F.Cluster.so_report))
               o.F.Cluster.r_shards)
      in
      let layers_of ~phase spans =
        let fc n = float_of_int (count o.F.Cluster.r_counters n) in
        let instrets =
          Array.of_list (List.map (fun r -> float_of_int r.Wl.rp_instret) shard_reports)
        in
        let sum_of f = float_of_int (List.fold_left (fun a r -> a + f r) 0 shard_reports) in
        let hits = sum_of (fun r -> r.Wl.rp_meas_cache_hits)
        and misses = sum_of (fun r -> r.Wl.rp_meas_cache_misses) in
        mean_ms "workload.submit_ms" ~parent:(phase "setup") ~name:"Engine.submit" spans
        @ [
          ("fleet.jobs.placed", fc "fleet.jobs.placed");
          ("fleet.jobs.migrated", fc "fleet.jobs.migrated");
          ("fleet.generations", float_of_int o.F.Cluster.r_generations);
          ("fleet.attest.verified", fc "fleet.attest.verified");
          ("net.retransmits", fc "net.retransmits");
          ( "fleet.shard_instret_imbalance",
            Stats.ratio (Array.fold_left max 0. instrets) (Stats.mean instrets) );
          ("hw.instret", float_of_int o.F.Cluster.r_instret);
          ( "hw.sim_mips",
            Stats.ratio (float_of_int o.F.Cluster.r_instret) (Calib.scale run) /. 1e6 );
          ("hw.quantum_cycles_p50", float_of_int o.F.Cluster.r_p50);
          ("hw.quantum_cycles_p99", float_of_int o.F.Cluster.r_p99);
          ("measurement.cache.hit_ratio", Stats.ratio hits (hits +. misses));
        ]
      in
      ( {
          setup = (if time_setup then Some setup else None);
          work = [ run ];
          ops = o.F.Cluster.r_ops;
          rounds = [| run |];
          total = (0L, 0.);
          signature;
          problems;
          layers = no_layers;
        },
        layers_of ))

(* ---- the workload table ---- *)

type workload = {
  name : string;
  nominal_s : float;
      (** host seconds one repetition takes on a 2-core x86-64 host; sets
          the repetition count for a given run length *)
  min_reps : int;  (** enough round samples for [tail] *)
  tail : float;  (** the percentile reported as round_ms_tail *)
  run : rep_index:int -> seed:int -> rep;
}

let engine_workload name mix ~nominal_s =
  {
    name;
    nominal_s;
    min_reps = 2;
    tail = 0.99;
    run = (fun ~rep_index:_ ~seed -> engine_rep mix ~seed);
  }

(* Attest and fleet repetitions time their whole set-up only in the
   first few: it is outside the measured window and would otherwise take
   most of the run. Later attest repetitions reuse the client inputs;
   later fleet repetitions skip the hand-made shard set-up. *)
let timed_setups = 3

(* Why each workload is here is in BENCHMARK.json. *)
let workloads =
  [
    engine_workload "compute" Wl.Compute ~nominal_s:0.8;
    engine_workload "ipc" Wl.Ipc ~nominal_s:0.55;
    engine_workload "churn" Wl.Churn ~nominal_s:1.5;
    {
      name = "attest";
      nominal_s = 1.3;
      min_reps = 4;
      (* Client latencies come 16 to a batch that shares one verify: with
         ~190 batches a run, p99 would rest on two of them. *)
      tail = 0.9;
      run =
        (fun ~rep_index ~seed ->
          attest_rep ~fresh_inputs:(rep_index < timed_setups) ~seed ());
    };
    {
      name = "fleet";
      nominal_s = 0.25;
      min_reps = 40;
      tail = 0.75;
      run =
        (fun ~rep_index ~seed -> fleet_rep ~time_setup:(rep_index < timed_setups) ~seed ());
    };
  ]
