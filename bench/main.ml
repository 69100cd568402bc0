(* The micro-benchmark harness: one group per paper artifact (see
   DESIGN.md experiment index) or per layer it explains. Figures F1–F7
   are timed over the live monitor by [run_group]; P1/S1 print
   deterministic simulated-cycle tables; T1 is regenerated by
   bin/loc_report.exe. Whole scenarios (workload mixes, fleets, the
   attestation service, model-checker sweeps) are driven by
   bin/sanctorum_demo.exe and timed by perfbench. Every group prints
   to stdout only; sim and attest gate by their exit status.

   Usage: main.exe [fig1|fig2|fig3|fig4|fig5|fig6|fig7|platforms|
                    sidechannel|ablation|telemetry|analysis|faults|sim|
                    attest|all]
   (default: all) *)

module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry
module C = Sanctorum_crypto
module S = Sanctorum.Sm
module Img = Sanctorum.Image
module Atk = Sanctorum_attack
open Sanctorum_os

let seconds_since = Sanctorum_workload.Engine.seconds_since

(* ------------------------------------------------------------------ *)
(* Environment knobs. A variable that is set but malformed is a usage
   error (exit 2, naming the variable), never a silent fall-back to the
   default. Unset means the default. *)

let env_parse parse what name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match parse v with
      | Some x -> x
      | None ->
          Printf.eprintf "main.exe: %s=%S is not %s\n" name v what;
          exit 2)

let env_int = env_parse int_of_string_opt "an integer"
let env_float = env_parse float_of_string_opt "a number"

(* A gated group names on stderr every check that failed and exits 1,
   so CI gates on the exit status alone. *)
let gate group checks =
  let failed =
    List.filter_map (fun (bad, why) -> if bad then Some why else None) checks
  in
  List.iter (Printf.eprintf "%s bench: %s\n" group) failed;
  if failed <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Timing *)

(* Wall-clock ns per call of [f], over at least [calls] calls and at
   least [quota] seconds. It always makes one call, so a zero quota
   still measures, and it times every call it makes: warm [f] up
   before. *)
let ns_per_op ?(calls = 1) ?(quota = 0.) f =
  let t0 = Monotonic_clock.now () in
  let n = ref 0 in
  while !n < calls || seconds_since t0 < quota do
    ignore (f ());
    incr n
  done;
  seconds_since t0 /. float_of_int !n *. 1e9

(* A figure group: each row warmed up by one call, then timed over
   half a second. *)
let run_group ~name rows =
  Printf.printf "\n== %s ==\n" name;
  List.iter
    (fun (label, f) ->
      f ();
      Printf.printf "  %-48s %12.0f ns/op\n%!" label (ns_per_op ~quota:0.5 f))
    rows

let exit_prog = Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]

let must_v = function
  | Ok v -> v
  | Error e -> failwith (Sanctorum.Api_error.to_string e)

let must r = ignore (must_v r)
let install tb image = must_v (Os.install_enclave tb.Testbed.os image)

(* ~3n retired instructions: t1 counts up to n. *)
let counted_loop n =
  Hw.Isa.(
    li t0 n
    @ [
        Op_imm (Add, t1, zero, 0);
        Op_imm (Add, t1, t1, 1);
        Branch (Bne, t1, t0, -4);
      ])

(* One enclave run on core 0: enter, 16 no-op monitor calls, exit —
   the ecall dispatch path (authenticate, decode, respond). F1 times
   it; the telemetry, analysis and faults groups use it as their
   operation. *)
let ecall_op tb =
  let calls =
    List.concat
      (List.init 16 (fun _ -> Hw.Isa.[ Op_imm (Add, a7, zero, 999); Ecall ]))
  in
  let i = install tb (Img.of_program ~evbase:0x10000 (calls @ exit_prog)) in
  let os = tb.Testbed.os in
  let eid = i.Os.eid and tid = List.hd i.Os.tids in
  fun () -> must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:500 ())

(* ------------------------------------------------------------------ *)
(* F1 — Fig. 1: the trap funnel / API dispatch *)

let bench_fig1 () =
  let tb = Testbed.create () in
  let ecalls = ecall_op tb in
  let i_spin = install tb (Img.of_program ~evbase:0x20000 [ Hw.Isa.j 0 ]) in
  let i_fault =
    install tb
      (Img.of_program ~evbase:0x30000
         Hw.Isa.(li t0 0x38000 @ [ Load (Ld, a0, t0, 0) ]))
  in
  let os = tb.Testbed.os in
  run_group ~name:"F1: SM API dispatch via system exceptions"
    [
      ("enter + 16 ecall dispatches + exit", ecalls);
      ( "OS interrupt: AEX + delegate",
        fun () ->
          must
            (Os.run_enclave os ~eid:i_spin.Os.eid ~tid:(List.hd i_spin.Os.tids)
               ~core:1 ~fuel:100000 ~quantum:100 ()) );
      ( "enclave fault: AEX + delegate",
        fun () ->
          must
            (Os.run_enclave os ~eid:i_fault.Os.eid
               ~tid:(List.hd i_fault.Os.tids) ~core:2 ~fuel:500 ()) );
    ]

(* ------------------------------------------------------------------ *)
(* F2 — Fig. 2: resource transitions *)

let bench_fig2 () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let sm = tb.Testbed.sm in
  let rid = List.hd (Os.alloc_units os ~count:1) in
  let kind = Sanctorum.Resource.Memory_resource in
  let i = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let eid = i.Os.eid in
  (* bring the unit to Available once *)
  must (S.block_resource sm ~caller:S.Os kind ~rid);
  must (S.clean_resource sm ~caller:S.Os kind ~rid);
  must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os);
  run_group ~name:"F2: generic resource state transitions"
    [
      ( "block+clean+grant cycle (OS memory unit)",
        fun () ->
          must (S.block_resource sm ~caller:S.Os kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os) );
      ( "grant+accept+block+clean (enclave unit)",
        fun () ->
          must (S.block_resource sm ~caller:S.Os kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:(S.To_enclave eid));
          must (S.accept_resource sm ~caller:(S.Enclave_caller eid) kind ~rid);
          must
            (S.block_resource sm ~caller:(S.Enclave_caller eid) kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os) );
    ]

(* ------------------------------------------------------------------ *)
(* F3 — Fig. 3: enclave lifecycle *)

let bench_fig3 () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let lifecycle data_pages () =
    let image = Img.of_program ~evbase:0x10000 ~data_pages exit_prog in
    let i = must_v (Os.install_enclave os image) in
    must (Os.reclaim_enclave os ~eid:i.Os.eid)
  in
  run_group ~name:"F3: enclave lifecycle (create -> load k pages -> init -> delete)"
    [
      ("k = 4 pages", lifecycle 3);
      ("k = 16 pages", lifecycle 15);
      ("k = 64 pages", lifecycle 63);
    ]

(* ------------------------------------------------------------------ *)
(* F4 — Fig. 4: thread lifecycle *)

let bench_fig4 () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let sm = tb.Testbed.sm in
  let i_exit = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let i_spin = install tb (Img.of_program ~evbase:0x20000 [ Hw.Isa.j 0 ]) in
  let eid = i_exit.Os.eid and tid = List.hd i_exit.Os.tids in
  run_group ~name:"F4: thread scheduling"
    [
      ( "enter_enclave + exit_enclave roundtrip",
        fun () -> must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:100 ()) );
      ( "enter + AEX (preemption) roundtrip",
        fun () ->
          must
            (Os.run_enclave os ~eid:i_spin.Os.eid ~tid:(List.hd i_spin.Os.tids)
               ~core:1 ~fuel:100000 ~quantum:200 ()) );
      ( "release + assign + accept recycle",
        fun () ->
          must (S.release_thread sm ~caller:(S.Enclave_caller eid) ~tid);
          must (S.assign_thread sm ~caller:S.Os ~eid ~tid);
          must
            (S.accept_thread sm ~caller:(S.Enclave_caller eid) ~tid
               ~entry_pc:0x10000L ~entry_sp:0x11ff0L ()) );
    ]

(* ------------------------------------------------------------------ *)
(* F5 — Fig. 5: mailboxes *)

let bench_fig5 () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let i1 = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let i2 = install tb (Img.of_program ~evbase:0x20000 exit_prog) in
  let e1 = i1.Os.eid and e2 = i2.Os.eid in
  let msg = String.make Sanctorum.Mailbox.message_size 'm' in
  let roundtrip ~caller sender () =
    must (S.accept_mail sm ~caller:(S.Enclave_caller e2) ~sender);
    must (S.send_mail sm ~caller ~recipient:e2 ~msg);
    must (S.get_mail sm ~caller:(S.Enclave_caller e2) ~sender)
  in
  run_group ~name:"F5: mailbox message passing"
    [
      ( "accept + send + get (256-byte message)",
        roundtrip ~caller:(S.Enclave_caller e1)
          (Sanctorum.Mailbox.From_enclave e1) );
      ("OS -> enclave mail", roundtrip ~caller:S.Os Sanctorum.Mailbox.From_os);
    ]

(* ------------------------------------------------------------------ *)
(* F6 — Fig. 6: local attestation *)

let bench_fig6 () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let i1 = install tb (Img.of_program ~evbase:0x10000 exit_prog) in
  let i2 = install tb (Img.of_program ~evbase:0x20000 exit_prog) in
  let expected = must_v (S.enclave_measurement sm ~eid:i1.Os.eid) in
  run_group ~name:"F6: local attestation (E2 attests E1)"
    [
      ( "four-step protocol, end to end",
        fun () ->
          match
            Sanctorum.Attestation.local_attest sm ~verifier:i2.Os.eid
              ~prover:i1.Os.eid ~expected
          with
          | Ok true -> ()
          | Ok false -> failwith "attestation mismatch"
          | Error e -> failwith (Sanctorum.Api_error.to_string e) );
    ]

(* ------------------------------------------------------------------ *)
(* F7 — Fig. 7: remote attestation *)

let bench_fig7 () =
  let tb = Testbed.create () in
  let es = must_v (Testbed.install_signing_enclave tb) in
  let target = Img.of_program ~evbase:0x30000 exit_prog in
  let t1 = install tb target in
  let expected = Img.measurement target in
  run_group ~name:"F7: remote attestation (10-step protocol)"
    [
      ( "key agreement + sign + verify, end to end",
        fun () ->
          let s =
            Sanctorum.Attestation.run_remote_attestation tb.Testbed.sm
              ~rng:tb.Testbed.rng ~eid:t1.Os.eid ~es_eid:es.Os.eid
              ~expected_measurement:expected
          in
          match s.Sanctorum.Attestation.verdict with
          | Ok () -> ()
          | Error m -> failwith m );
    ]

(* ------------------------------------------------------------------ *)
(* P1 — §VII: Sanctum vs Keystone, simulated-cycle comparison *)

let simulated_cycles backend =
  let tb = Testbed.create ~backend () in
  let os = tb.Testbed.os in
  (* ~1000 retired instructions *)
  let compute = counted_loop 330 @ exit_prog in
  let i = install tb (Img.of_program ~evbase:0x10000 compute) in
  let eid = i.Os.eid and tid = List.hd i.Os.tids in
  let core = Hw.Machine.core tb.Testbed.machine 0 in
  (* cold roundtrip *)
  let c0 = core.Hw.Machine.cycles in
  must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:100000 ());
  let cold = core.Hw.Machine.cycles - c0 in
  (* warm roundtrip (caches survive only within one entry: the domain
     switch flushes L1/TLB, so "warm" is still a fresh enclave view) *)
  let c1 = core.Hw.Machine.cycles in
  must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:100000 ());
  let warm = core.Hw.Machine.cycles - c1 in
  (* untrusted baseline: the same loop as an ordinary process *)
  let c2 = core.Hw.Machine.cycles in
  let _ =
    Os.run_untrusted_program os
      ~code:(counted_loop 330 @ [ Hw.Isa.Ecall ])
      ~core:0 ~fuel:100000 ()
  in
  let baseline = core.Hw.Machine.cycles - c2 in
  (cold, warm, baseline)

let report_platforms () =
  Printf.printf "\n== P1: platform backends (simulated cycles, ~1000-instr workload) ==\n";
  Printf.printf "  %-10s %14s %14s %18s %10s\n" "backend" "enclave (cold)"
    "enclave (warm)" "untrusted baseline" "overhead";
  List.iter
    (fun backend ->
      let cold, warm, base = simulated_cycles backend in
      Printf.printf "  %-10s %14d %14d %18d %9.2fx\n"
        (Testbed.backend_name backend)
        cold warm base
        (float_of_int warm /. float_of_int base))
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ];
  Printf.printf
    "  (enclave runs pay page walks through private tables and flushed\n\
    \   L1/TLB on each protection-domain switch; the shape, not the\n\
    \   absolute numbers, is the result)\n"

(* ------------------------------------------------------------------ *)
(* S1 — side channels on both backends *)

let report_sidechannel () =
  Printf.printf "\n== S1: cache side channel (prime+probe, 8 candidate secrets) ==\n";
  Printf.printf "  %-10s %8s %8s %8s %8s   %s\n" "backend" "secret" "guess"
    "spread" "leaked" "probe timings (cycles)";
  List.iter
    (fun backend ->
      List.iter
        (fun secret ->
          let tb =
            Testbed.create ~backend ~l2:Atk.Cache_probe.recommended_l2 ()
          in
          match Atk.Cache_probe.run tb ~secret () with
          | Error m -> Printf.printf "  %s: error %s\n" (Testbed.backend_name backend) m
          | Ok o ->
              Printf.printf "  %-10s %8d %8d %8d %8b   [%s]\n"
                (Testbed.backend_name backend)
                o.Atk.Cache_probe.secret o.Atk.Cache_probe.guess
                o.Atk.Cache_probe.spread o.Atk.Cache_probe.leaked
                (String.concat " "
                   (Array.to_list
                      (Array.map string_of_int o.Atk.Cache_probe.timings))))
        [ 2; 5 ])
    [ Testbed.Keystone_backend; Testbed.Sanctum_backend ];
  Printf.printf "\n== S1: controlled channel (page-fault sequence) ==\n";
  let secret = [ 3; 1; 4; 1; 5 ] in
  let tb = Testbed.create () in
  let b = Atk.Controlled_channel.baseline tb ~secret ~core:0 in
  Printf.printf "  baseline process : OS observed [%s]  recovered=%b\n"
    (String.concat ";" (List.map string_of_int b.Atk.Controlled_channel.observed_pages))
    b.Atk.Controlled_channel.recovered;
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      match Atk.Controlled_channel.enclave tb ~secret ~core:0 with
      | Error m -> Printf.printf "  enclave (%s): error %s\n" (Testbed.backend_name backend) m
      | Ok o ->
          Printf.printf "  enclave (%-8s): OS observed [%s]  recovered=%b\n"
            (Testbed.backend_name backend)
            (String.concat ";"
               (List.map string_of_int o.Atk.Controlled_channel.observed_pages))
            o.Atk.Controlled_channel.recovered)
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

(* ------------------------------------------------------------------ *)
(* Ablation: the cost of the paper's "flush on every protection-domain
   switch" rule, as a function of the OS scheduling quantum. Work is a
   memory-persistent counter (progress survives AEX), so the total
   simulated cycles to finish fixed work isolates the switch + refill
   overhead. *)

let report_ablation () =
  Printf.printf
    "\n== ablation: domain-switch flushing cost vs scheduling quantum ==\n";
  Printf.printf "  %-16s %12s %12s %14s\n" "quantum (cyc)" "entries"
    "total cyc" "cyc/iteration";
  let target = 3000 in
  List.iter
    (fun quantum ->
      let tb = Testbed.create () in
      let os = tb.Testbed.os in
      let i = install tb (Testbed.counting_image ~evbase:0x10000 ~target) in
      let eid = i.Os.eid and tid = List.hd i.Os.tids in
      let core = Hw.Machine.core tb.Testbed.machine 0 in
      let start = core.Hw.Machine.cycles in
      let entries = ref 0 in
      let finished = ref false in
      while (not !finished) && !entries < 10000 do
        incr entries;
        match Os.run_enclave os ~eid ~tid ~core:0 ~fuel:1000000 ~quantum () with
        | Ok Os.Exited -> finished := true
        | Ok Os.Preempted -> ()
        | Ok _ | Error _ -> finished := true
      done;
      let total = core.Hw.Machine.cycles - start in
      Printf.printf "  %-16d %12d %12d %14.1f\n" quantum !entries total
        (float_of_int total /. float_of_int target))
    [ 500; 1000; 2000; 5000; 20000; 1000000 ];
  Printf.printf
    "  (small quanta amplify the mandatory L1/TLB flush + refill per\n\
    \   re-entry - the price of time-multiplexed cores, SIV-B2)\n"

(* ------------------------------------------------------------------ *)
(* Telemetry-backed counters: simulated events per operation alongside
   wall-clock, and the wall-clock overhead of leaving tracing on. *)

let report_telemetry () =
  let iters = 2000 in
  (* Traced run: per-op counter deltas from the metrics registry. *)
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~capacity:4096 ~metrics () in
  let traced_op = ecall_op (Testbed.create ~sink ()) in
  traced_op ();
  (* warm-up done; measure from a clean registry *)
  Tel.Metrics.reset metrics;
  Tel.Sink.clear sink;
  let traced_ns = ns_per_op ~calls:iters traced_op in
  let value name =
    match Tel.Metrics.find metrics name with
    | Some (Tel.Metrics.Counter c) -> Tel.Metrics.value c
    | Some (Tel.Metrics.Histogram _) | None -> 0
  in
  let prefixed prefix =
    List.fold_left
      (fun acc (name, item) ->
        match item with
        | Tel.Metrics.Counter c
          when String.length name >= String.length prefix
               && String.sub name 0 (String.length prefix) = prefix ->
            acc + Tel.Metrics.value c
        | Tel.Metrics.Counter _ | Tel.Metrics.Histogram _ -> acc)
      0 (Tel.Metrics.to_list metrics)
  in
  let per n = float_of_int n /. float_of_int iters in
  Printf.printf
    "\n== telemetry: counter deltas per op (enter + 16 ecalls + exit) ==\n";
  Printf.printf "  %-34s %12.1f\n" "instructions retired/op" (per (value "hw.instret"));
  Printf.printf "  %-34s %12.2f\n" "L1 misses/op" (per (value "hw.cache.l1.misses"));
  Printf.printf "  %-34s %12.2f\n" "L2 misses/op" (per (value "hw.cache.l2.misses"));
  Printf.printf "  %-34s %12.2f\n" "TLB misses/op" (per (value "hw.tlb.misses"));
  Printf.printf "  %-34s %12.2f\n" "page-walk steps/op" (per (value "hw.ptw.steps"));
  Printf.printf "  %-34s %12.2f\n" "traps/op" (per (prefixed "hw.traps."));
  Printf.printf "  %-34s %12.2f\n" "SM API calls/op" (per (prefixed "sm.api.calls."));
  Printf.printf "  %-34s %12.2f\n" "events/op"
    (per (Tel.Sink.event_count sink));
  Printf.printf "  %-34s %12.0f\n" "wall-clock ns/op (traced)" traced_ns;
  (* Untraced baseline on a fresh, identical stack. *)
  let plain_op = ecall_op (Testbed.create ()) in
  plain_op ();
  let plain_ns = ns_per_op ~calls:iters plain_op in
  Printf.printf "  %-34s %12.0f\n" "wall-clock ns/op (tracing off)" plain_ns;
  Printf.printf "  %-34s %11.1f%%\n" "tracing overhead"
    (if plain_ns = 0. then 0. else (traced_ns -. plain_ns) /. plain_ns *. 100.)

(* ------------------------------------------------------------------ *)
(* The analysis layer: what one whole-state snapshot pass costs, and
   what arming it after every API call does to a real workload. *)

let report_analysis () =
  let module An = Sanctorum_analysis in
  Printf.printf "\n== analysis: invariant-checker cost ==\n";
  (* One snapshot pass over a populated monitor (every pass walks all
     units, page tables, TLBs and caches). *)
  let tb = Testbed.create () in
  ecall_op tb ();
  let snapshot_ns =
    ns_per_op ~calls:500 (fun () -> An.Checker.snapshot tb.Testbed.sm)
  in
  Printf.printf "  %-34s %12.0f\n" "snapshot pass ns" snapshot_ns;
  (* Trace passes over a recorded run. *)
  let sink = Tel.Sink.create ~capacity:(1 lsl 16) () in
  ecall_op (Testbed.create ~sink ()) ();
  let events = Tel.Sink.events sink in
  Printf.printf "  %-34s %12d\n" "trace length (events)" (List.length events);
  let trace_ns = ns_per_op ~calls:500 (fun () -> An.Checker.trace events) in
  Printf.printf "  %-34s %12.0f\n" "lock+order trace pass ns" trace_ns;
  (* Workload overhead of --check-invariants. *)
  let plain_op = ecall_op (Testbed.create ()) in
  plain_op ();
  let plain_ns = ns_per_op ~calls:500 plain_op in
  let tb_hooked = Testbed.create () in
  let hooked_op = ecall_op tb_hooked in
  S.set_post_api_hook tb_hooked.Testbed.sm
    (Some
       (fun ~api:_ ->
         match An.Checker.snapshot tb_hooked.Testbed.sm with
         | [] -> ()
         | _ :: _ -> failwith "invariant violation during benchmark"));
  hooked_op ();
  let hooked_ns = ns_per_op ~calls:100 hooked_op in
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (checker off)" plain_ns;
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (snapshot per call)" hooked_ns;
  Printf.printf "  %-34s %11.1fx\n" "per-API-call checking factor"
    (if plain_ns = 0. then 0. else hooked_ns /. plain_ns)

(* ------------------------------------------------------------------ *)
(* The fault-injection engine: what the hooks cost when no fault
   campaign is running. Three machine states — no hooks installed,
   hooks armed with an empty schedule, hooks armed with a schedule
   entirely in the future — should all be within noise of each other:
   the disabled path is one option match per step plus one integer
   compare per memory access. *)

let report_faults () =
  let module F = Sanctorum_faults in
  let iters = 2000 in
  Printf.printf "\n== faults: fault-hook overhead (hooks idle) ==\n";
  let plain_op = ecall_op (Testbed.create ()) in
  plain_op ();
  let plain_ns = ns_per_op ~calls:iters plain_op in
  let tb_idle = Testbed.create () in
  let idle =
    F.Injector.create ~machine:tb_idle.Testbed.machine ~seed:7L ~spec:[] ()
  in
  F.Injector.arm idle;
  let idle_op = ecall_op tb_idle in
  idle_op ();
  let idle_ns = ns_per_op ~calls:iters idle_op in
  let tb_armed = Testbed.create () in
  let armed =
    (* a real schedule, parked beyond any cycle this workload reaches *)
    F.Injector.create ~horizon:max_int ~machine:tb_armed.Testbed.machine
      ~seed:7L
      ~spec:(List.map (fun cls -> { F.Spec.cls; count = 4 }) F.Spec.all_classes)
      ()
  in
  F.Injector.arm armed;
  let armed_op = ecall_op tb_armed in
  armed_op ();
  let armed_ns = ns_per_op ~calls:iters armed_op in
  let pct x =
    if plain_ns = 0. then 0. else (x -. plain_ns) /. plain_ns *. 100.
  in
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (no hooks)" plain_ns;
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (empty schedule)" idle_ns;
  Printf.printf "  %-34s %12.0f\n" "workload ns/op (future schedule)" armed_ns;
  Printf.printf "  %-34s %11.1f%%\n" "empty-schedule overhead" (pct idle_ns);
  Printf.printf "  %-34s %11.1f%%\n" "future-schedule overhead" (pct armed_ns)

(* ------------------------------------------------------------------ *)
(* Raw simulator throughput: the fig2 enclave compute loop, timed
   wall-clock under both execution tiers — stepped (fast path off) and
   superblock (the default). The architectural work (instret) is
   identical in both — the differential suite proves that — so the MIPS
   ratio is a pure host-speed ratio. The run exits 1 if instret differs
   across repetitions or the superblock tier is under 5x the stepped
   interpreter.

   SANCTORUM_SIM_QUOTA caps the instruction budget (CI smoke runs use
   a small quota). *)

let report_sim () =
  let quota = env_int "SANCTORUM_SIM_QUOTA" 4_000_000 in
  let iters = max 1_000 (quota / 3) in
  let compute = counted_loop iters @ exit_prog in
  let measure_once fast =
    let tb = Testbed.create ~seed:"bench-sim" () in
    Hw.Machine.set_fast_path tb.Testbed.machine fast;
    let i = install tb (Img.of_program ~evbase:0x10000 compute) in
    let os = tb.Testbed.os in
    let eid = i.Os.eid and tid = List.hd i.Os.tids in
    let core = Hw.Machine.core tb.Testbed.machine 0 in
    let i0 = core.Hw.Machine.instret in
    let t0 = Monotonic_clock.now () in
    must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:((iters * 4) + 10_000) ());
    let seconds = seconds_since t0 in
    (core.Hw.Machine.instret - i0, seconds)
  in
  (* best of 3 fresh stacks per mode: the simulated work is identical
     every repetition, so the minimum wall time is the least-noisy
     sample *)
  let super = List.init 3 (fun _ -> measure_once true) in
  let slow = List.init 3 (fun _ -> measure_once false) in
  let best reps =
    ( fst (List.hd reps),
      List.fold_left (fun s (_, s') -> Float.min s s') infinity reps )
  in
  let n_super, s_super = best super in
  let n_slow, s_slow = best slow in
  let mips n s = if s <= 0. then 0. else float_of_int n /. s /. 1e6 in
  let m_super = mips n_super s_super and m_slow = mips n_slow s_slow in
  let speedup = if m_slow = 0. then 0. else m_super /. m_slow in
  Printf.printf "\n== sim: simulator throughput (fig2 compute loop, %d instrs) ==\n"
    n_slow;
  Printf.printf "  %-34s %9.3f s %9.2f MIPS\n" "superblock tier" s_super m_super;
  Printf.printf "  %-34s %9.3f s %9.2f MIPS\n" "stepped (fast path off)" s_slow
    m_slow;
  Printf.printf "  %-34s %9.2fx\n%!" "superblock / stepped" speedup;
  gate "sim"
    [
      (* fails closed: a NaN speedup is not a pass *)
      (not (speedup >= 5.), "superblock tier under 5x the stepped interpreter");
      ( List.exists (fun (n, _) -> n <> n_super) (super @ slow),
        "instret differs across repetitions (3 superblock, 3 slow): "
        ^ String.concat " "
            (List.map (fun (n, _) -> string_of_int n) (super @ slow)) );
    ]

(* ------------------------------------------------------------------ *)
(* The attestation fast path: the throughput-grade crypto tier against
   the reference verifier in test/oracle, the hash, key agreement and
   DRBG behind F6/F7 and §VI-A, and the measurement cache hot vs cold.

   SANCTORUM_ATTEST_MIN_S sets the per-micro-op time quota. The run
   exits 1 if verify is not at least 10x its reference or a cached
   measurement never hits. The attestation service and the churn mix
   are scenarios: test/test_attest_scale.ml holds their gates on both
   backends, and perfbench times them. *)

let report_attest () =
  let module M = Sanctorum.Measurement in
  let min_s = env_float "SANCTORUM_ATTEST_MIN_S" 0.3 in
  (* wall-clock, after one warm-up call (memoized encodings, caches) *)
  let time f =
    ignore (f ());
    ns_per_op ~quota:min_s f
  in
  let row label f =
    let ns = time f in
    Printf.printf "  %-36s %12.0f ns/op\n%!" label ns;
    ns
  in
  Printf.printf "\n== attest: crypto fast path vs reference ==\n";
  let sk = C.Schnorr.secret_key_of_seed "bench-attest" in
  let pk = C.Schnorr.public_key sk in
  let signature = C.Schnorr.sign sk "msg" in
  ignore (row "schnorr keygen" (fun () -> C.Schnorr.secret_key_of_seed "fresh"));
  ignore (row "schnorr sign" (fun () -> C.Schnorr.sign sk "msg"));
  let verify_ns =
    row "schnorr verify" (fun () -> C.Schnorr.verify pk ~msg:"msg" ~signature)
  in
  let verify_ref_ns =
    row "schnorr verify (reference)" (fun () ->
        Sanctorum_oracle.Schnorr_ref.verify_reference pk ~msg:"msg" ~signature)
  in
  let verify_speedup = verify_ref_ns /. verify_ns in
  Printf.printf "  %-36s %12.2fx\n" "verify speedup" verify_speedup;
  let batch_n = 64 in
  let items =
    List.init batch_n (fun i ->
        let msg = Printf.sprintf "batch item %d" i in
        (pk, msg, C.Schnorr.sign sk msg))
  in
  let batch_item_ns =
    time (fun () -> C.Schnorr.verify_batch items) /. float_of_int batch_n
  in
  (* The batch's multiply alone, at its shape: one 128-bit coefficient
     per commitment and one full-width scalar for the shared key. *)
  let point bytes = Result.get_ok (C.Curve.decode bytes) in
  let scalar ~len i =
    let h = C.Sha3.sha3_512 (string_of_int i) in
    C.Bignum.rem (C.Bignum.of_bytes_be (String.sub h 0 len)) C.Curve.order
  in
  let msm_terms =
    (scalar ~len:64 batch_n, point (C.Schnorr.public_key_to_bytes pk))
    :: List.mapi
         (fun i (_, _, signature) ->
           let r = String.sub signature 0 C.Curve.encoded_size in
           (scalar ~len:16 i, point r))
         items
  in
  let msm_item_ns =
    time (fun () -> C.Curve.multi_scalar_mul msm_terms) /. float_of_int batch_n
  in
  Printf.printf "  %-36s %12.0f ns/item (n=%d)\n" "batch verify" batch_item_ns
    batch_n;
  Printf.printf "  %-36s %12.0f ns/item (n=%d)\n" "  of which multi_scalar_mul"
    msm_item_ns batch_n;
  Printf.printf "  %-36s %12.2fx vs single verify\n" "batch speedup"
    (verify_ns /. batch_item_ns);
  let rng = C.Drbg.create ~seed:"bench-attest" in
  let s1, _ = C.Dh.generate rng in
  let _, p2 = C.Dh.generate rng in
  ignore (row "dh shared key" (fun () -> C.Dh.shared_key s1 p2));
  ignore (row "drbg 32 bytes" (fun () -> C.Drbg.random_bytes rng 32));
  let page = String.make 4096 'p' in
  ignore (row "sha3-256 of one 4 KiB page" (fun () -> C.Sha3.sha3_256 page));
  (* -- the measurement cache, cold vs hot on a 4-page transcript -- *)
  let measure cache =
    let t = M.start () in
    M.extend_create t ~evbase:0x10000 ~evsize:0x8000 ~mailbox_count:4;
    for p = 0 to 3 do
      M.extend_page_table t ~vaddr:(0x10000 + (p * 0x1000)) ~level:0;
      M.extend_page t
        ~vaddr:(0x10000 + (p * 0x1000))
        ~r:true ~w:false ~x:true
        ~contents:(String.make 4096 (Char.chr p))
    done;
    M.extend_thread t ~entry_pc:0x10000L ~entry_sp:0x17ff0L;
    M.finalize ?cache t
  in
  ignore (row "measurement (4 pages, cold)" (fun () -> measure None));
  let cache = M.Cache.create () in
  ignore (row "measurement (4 pages, cached)" (fun () -> measure (Some cache)));
  gate "attest"
    [
      (* fails closed: a NaN speedup is not a pass *)
      (not (verify_speedup >= 10.), "verify speedup below 10x");
      (M.Cache.hits cache = 0, "measurement cache never hit");
    ]

(* ------------------------------------------------------------------ *)

let groups =
  [
    ("fig1", bench_fig1);
    ("fig2", bench_fig2);
    ("fig3", bench_fig3);
    ("fig4", bench_fig4);
    ("fig5", bench_fig5);
    ("fig6", bench_fig6);
    ("fig7", bench_fig7);
    ("platforms", report_platforms);
    ("sidechannel", report_sidechannel);
    ("ablation", report_ablation);
    ("telemetry", report_telemetry);
    ("analysis", report_analysis);
    ("faults", report_faults);
    ("sim", report_sim);
    ("attest", report_attest);
  ]

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (if which = "all" then List.iter (fun (_, f) -> f ()) groups
   else
     match List.assoc_opt which groups with
     | Some f -> f ()
     | None ->
         Printf.eprintf "main.exe: unknown benchmark group %S\nAvailable: all %s\n"
           which
           (String.concat " " (List.map fst groups));
         exit 2);
  Printf.printf
    "\n(T1 — the TCB size table of §VII-A — is regenerated by `dune exec \
     bin/loc_report.exe`)\n"
