(* The benchmark's workloads and metric names. BENCHMARK.json at the root
   of the repository lists the same names; the self-test checks that the
   two agree. *)

let workloads = [ "compute"; "ipc"; "churn"; "attest"; "fleet" ]

type better = Lower | Higher

type end_to_end = {
  e_name : string;
  e_unit : string;
  e_better : better;
  bound : float;
      (** share of the parent's median by which the metric may worsen *)
}

(* Every workload reports every end-to-end metric; what counts as an
   operation and as a round differs per workload and is stated in
   [Scenarios]. *)
let end_to_end =
  [
    { e_name = "ops_per_s"; e_unit = "1/s"; e_better = Higher; bound = 0.25 };
    { e_name = "round_ms_p50"; e_unit = "ms"; e_better = Lower; bound = 0.25 };
    { e_name = "round_ms_tail"; e_unit = "ms"; e_better = Lower; bound = 0.25 };
    (* The fleet's two domains make its peak vary by ~8% between runs. *)
    { e_name = "peak_rss_mb"; e_unit = "MB"; e_better = Lower; bound = 0.25 };
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower; bound = 0.25 };
  ]

type per_layer = {
  l_name : string;
  l_unit : string;
  l_better : better;
  layer : string;  (** the module whose work the metric measures *)
  moves : string * string list;
      (** the end-to-end metric, and the workloads, it should move *)
}

let m ?(better = Lower) layer name unit moves =
  { l_name = name; l_unit = unit; l_better = better; layer; moves }

let engine = [ "compute"; "ipc"; "churn" ]
let on_compute = [ "compute"; "fleet" ]

let sm_calls =
  [
    ("enter_enclave", [ "ipc"; "compute" ]);
    ("exit_enclave", [ "ipc"; "compute" ]);
    ("create_enclave", [ "churn" ]);
    ("load_page", [ "churn" ]);
    ("delete_enclave", [ "churn" ]);
    ("grant_resource", [ "churn" ]);
    ("clean_resource", [ "churn" ]);
    ("send_mail", [ "ipc"; "attest" ]);
    ("get_mail", [ "ipc"; "attest" ]);
  ]

let per_layer =
  [
    m "lib/workload" "workload.submit_ms" "ms" ("setup_s", engine);
    m "lib/os" "os.round_ms" "ms" ("round_ms_p50", [ "ipc"; "compute" ]);
    m "lib/os" "os.host_us_per_quantum" "us" ("ops_per_s", [ "ipc"; "compute" ]);
    m "lib/os" "os.round_growth" "ratio" ("round_ms_p50", [ "compute"; "churn" ]);
    m "lib/os" "os.teardown_ms" "ms" ("ops_per_s", engine);
    m "lib/analysis" "analysis.checkpoint_ms" "ms"
      ("round_ms_tail", [ "ipc"; "compute" ]);
    m "lib/analysis" "analysis.share" "ratio" ("ops_per_s", [ "ipc"; "compute" ]);
    m "lib/hw" "hw.sim_mips" "Minstr/s" ~better:Higher ("ops_per_s", on_compute);
    m "lib/hw" "hw.instret" "count" ("ops_per_s", on_compute);
    m "lib/hw" "hw.sb.instret" "count" ~better:Higher ("ops_per_s", on_compute);
    m "lib/hw" "hw.sb.share" "ratio" ~better:Higher ("ops_per_s", on_compute);
    m "lib/hw" "hw.sb.blocks" "count" ("ops_per_s", on_compute);
    m "lib/hw" "hw.sb.side_exits" "count" ("ops_per_s", on_compute);
    m "lib/hw" "hw.tlb.misses" "count" ("ops_per_s", [ "compute" ]);
    m "lib/hw" "hw.ptw.steps" "count" ("ops_per_s", [ "compute" ]);
    m "lib/hw" "hw.cache.l1.misses" "count" ("ops_per_s", [ "compute" ]);
    m "lib/hw" "hw.cache.l2.misses" "count" ("ops_per_s", [ "compute" ]);
    m "lib/hw" "hw.traps.irq-timer" "count" ("ops_per_s", [ "compute"; "ipc" ]);
    m "lib/hw" "hw.traps.ecall" "count" ("ops_per_s", [ "ipc"; "churn" ]);
    m "lib/hw" "hw.quantum_cycles_p50" "cycles" ("ops_per_s", on_compute);
    m "lib/hw" "hw.quantum_cycles_p99" "cycles" ("ops_per_s", on_compute);
    m "lib/core" "sm.aex" "count" ("ops_per_s", [ "compute"; "ipc" ]);
  ]
  @ List.map
      (fun (api, wls) ->
        m "lib/core" ("sm.api.calls." ^ api) "count" ("ops_per_s", wls))
      sm_calls
  @ [
      m "lib/core" "sm.api.rejected" "count" ("ops_per_s", workloads);
      m "lib/core" "measurement.cache.hit_ratio" "ratio" ~better:Higher
        ("ops_per_s", [ "churn" ]);
      m "lib/crypto" "attest.request_ms" "ms" ("round_ms_p50", [ "attest" ]);
      m "lib/crypto" "crypto.batch_verify_ms" "ms" ("round_ms_tail", [ "attest" ]);
      m "lib/crypto" "crypto.client_dh_ms" "ms" ("setup_s", [ "attest" ]);
      m "lib/crypto" "crypto.sign" "count" ("ops_per_s", [ "attest" ]);
      m "lib/crypto" "crypto.batch_verify" "count" ("ops_per_s", [ "attest" ]);
      m "lib/fleet" "fleet.jobs.placed" "count" ("ops_per_s", [ "fleet" ]);
      m "lib/fleet" "fleet.jobs.migrated" "count" ("ops_per_s", [ "fleet" ]);
      m "lib/fleet" "fleet.generations" "count" ("round_ms_p50", [ "fleet" ]);
      m "lib/fleet" "fleet.attest.verified" "count" ("round_ms_p50", [ "fleet" ]);
      m "lib/fleet" "net.retransmits" "count" ("round_ms_p50", [ "fleet" ]);
      m "lib/fleet" "fleet.shard_instret_imbalance" "ratio"
        ("round_ms_p50", [ "fleet" ]);
      (* The benchmark's own cost: the untraced end-to-end runs do not pay
         it, so neither should move ops_per_s anywhere. *)
      m "perfbench" "bench.trace_overhead" "ratio" ("ops_per_s", workloads);
      m "perfbench" "bench.phase_gap" "ratio" ("ops_per_s", workloads);
      (* How fast the host ran the calibration kernel, against its
         reference speed; every host time above is scaled by it. *)
      m "perfbench" "bench.host_speed" "ratio" ~better:Higher ("ops_per_s", workloads);
    ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false
