module Rng = Sanctorum_util.Splitmix
include Engine

type mix = Programs.mix = Compute | Ipc | Paging | Churn

let mix_name = Programs.mix_name
let mix_of_string = Programs.mix_of_string
let all_mixes = Programs.all_mixes

let default =
  {
    seed = "workload";
    backend = Sanctorum_os.Testbed.Keystone_backend;
    cores = 4;
    enclaves = 64;
    rounds = 1000;
    mix = Compute;
    fuel = 2000;
    quantum = 500;
    check_every = 16;
  }

(* The closed loop is the engine driven in its unbounded mode: the
   whole population is submitted with no exit target, stepped for
   exactly [rounds] rounds, then torn down. Job seeds are drawn from a
   stream keyed by the config seed, so every image and churn decision
   remains a pure function of the config. *)
let validate cfg =
  if cfg.cores < 1 then invalid_arg "Workload.run: cores must be >= 1";
  if cfg.enclaves < 1 then invalid_arg "Workload.run: enclaves must be >= 1";
  if cfg.mix = Ipc && cfg.enclaves < 2 then
    invalid_arg "Workload.run: the ipc mix needs at least 2 enclaves";
  if cfg.rounds < 1 then invalid_arg "Workload.run: rounds must be >= 1";
  if cfg.fuel <= cfg.quantum then
    invalid_arg "Workload.run: fuel must exceed the quantum"

let run cfg =
  validate cfg;
  let eng = Engine.create cfg in
  let rng = Rng.of_string cfg.seed in
  let n =
    if cfg.mix = Ipc then cfg.enclaves - (cfg.enclaves mod 2) else cfg.enclaves
  in
  let jobs = if cfg.mix = Ipc then n / 2 else n in
  for jid = 0 to jobs - 1 do
    Engine.submit eng ~jid ~seed:(Rng.next rng) ~target:None
  done;
  for _ = 1 to cfg.rounds do
    ignore (Engine.step eng : int list)
  done;
  Engine.finish eng

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>workload %s: seed=%S cores=%d enclaves=%d rounds=%d@,\
     ops      : installs=%d reclaims=%d exits=%d preempts=%d fuel-exhausted=%d \
     os-faults=%d killed=%d api-errors=%d@,\
     volume   : quanta=%d instret=%d sim-cycles=%d msgs sent=%d received=%d \
     in-flight=%d accounted=%b@,\
     rates    : wall=%.3fs mips=%.2f enclave-ops/s=%.1f@,\
     latency  : per-quantum sim cycles p50<=%d p90<=%d p99<=%d@,\
     cache    : measurement hits=%d misses=%d@,\
     analysis : findings=%d dropped-events=%d@,\
     teardown : drained=%b free-units %d -> %d reclaimed=%b@]"
    (mix_name r.rp_mix) r.rp_seed r.rp_cores r.rp_enclaves r.rp_rounds
    r.rp_installs r.rp_reclaims r.rp_exits r.rp_preempts r.rp_fuel_exhausted
    r.rp_os_faults r.rp_killed r.rp_api_errors r.rp_quanta r.rp_instret
    r.rp_sim_cycles r.rp_msgs_sent r.rp_msgs_received r.rp_msgs_inflight
    r.rp_msgs_accounted r.rp_wall_s r.rp_mips r.rp_ops_per_sec r.rp_quantum_p50
    r.rp_quantum_p90 r.rp_quantum_p99 r.rp_meas_cache_hits
    r.rp_meas_cache_misses
    (List.length r.rp_findings)
    r.rp_trace_dropped r.rp_drained r.rp_free_units_boot r.rp_free_units_end
    r.rp_reclaimed

(* Everything the simulated machine decided, none of what the host
   clock measured: byte-identical across replays of the same (seed,
   shard) pair, which is how the fleet tests prove shard determinism. *)
let arch_signature r =
  Printf.sprintf
    "mix=%s seed=%s cores=%d enclaves=%d rounds=%d installs=%d reclaims=%d \
     exits=%d preempts=%d fuelex=%d osfaults=%d killed=%d apierr=%d quanta=%d \
     instret=%d cycles=%d sent=%d recv=%d inflight=%d accounted=%b p50=%d \
     p90=%d p99=%d findings=%d drained=%b free=%d/%d reclaimed=%b"
    (mix_name r.rp_mix) r.rp_seed r.rp_cores r.rp_enclaves r.rp_rounds
    r.rp_installs r.rp_reclaims r.rp_exits r.rp_preempts r.rp_fuel_exhausted
    r.rp_os_faults r.rp_killed r.rp_api_errors r.rp_quanta r.rp_instret
    r.rp_sim_cycles r.rp_msgs_sent r.rp_msgs_received r.rp_msgs_inflight
    r.rp_msgs_accounted r.rp_quantum_p50 r.rp_quantum_p90 r.rp_quantum_p99
    (List.length r.rp_findings)
    r.rp_drained r.rp_free_units_boot r.rp_free_units_end r.rp_reclaimed
