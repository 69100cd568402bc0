(* The benchmark harness: one group per paper artifact (see DESIGN.md
   experiment index). Figures F1–F7 are timed with bechamel over the
   live monitor; P1/S1 print deterministic simulated-cycle tables; T1
   is regenerated by bin/loc_report.exe.

   Usage: main.exe [fig1|fig2|fig3|fig4|fig5|fig6|fig7|crypto|platforms|
                    sidechannel|ablation|telemetry|analysis|faults|sim|all]
   (default: all) *)

module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry
module C = Sanctorum_crypto
module S = Sanctorum.Sm
module Img = Sanctorum.Image
module Atk = Sanctorum_attack
open Sanctorum_os

(* ------------------------------------------------------------------ *)
(* Provenance: every machine-readable result records what produced it
   — backend, seed, git revision and compiler — so a pinned number in
   the README can be traced to the exact tree that measured it. The
   git revision comes from [.git/HEAD] directly (following one level
   of ref indirection); no subprocess, no dependency. *)

let git_rev () =
  let read_line path =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> String.trim (input_line ic))
    with _ -> ""
  in
  let rec find_git dir depth =
    if depth > 8 then None
    else if Sys.file_exists (Filename.concat dir ".git") then
      Some (Filename.concat dir ".git")
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find_git parent (depth + 1)
  in
  match find_git (Sys.getcwd ()) 0 with
  | None -> "unknown"
  | Some git -> (
      match read_line (Filename.concat git "HEAD") with
      | "" -> "unknown"
      | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
          let target =
            String.sub head 5 (String.length head - 5)
            |> String.split_on_char '/' |> List.fold_left Filename.concat git
          in
          match read_line target with "" -> "unknown" | rev -> rev)
      | rev -> rev)

let seconds_since = Sanctorum_workload.Engine.seconds_since

let provenance_json ~backend ~seed =
  Printf.sprintf
    "\"provenance\": { \"backend\": %S, \"seed\": %S, \"git_rev\": %S, \
     \"ocaml_version\": %S }"
    backend seed (git_rev ()) Sys.ocaml_version

(* ------------------------------------------------------------------ *)
(* Environment knobs. A variable that is set but malformed is a usage
   error (exit 2, naming the variable), never a silent fall-back to the
   default scale or backend. Unset means the default. *)

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

let env_backend =
  env_parse
    (function
      | "sanctum" -> Some Testbed.Sanctum_backend
      | "keystone" -> Some Testbed.Keystone_backend
      | _ -> None)
    "a backend (sanctum or keystone)"

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing *)

let run_group ~name tests =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n== %s ==\n" name;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let strip label =
    let prefix = name ^ " " in
    if
      String.length label > String.length prefix
      && String.sub label 0 (String.length prefix) = prefix
    then
      String.sub label (String.length prefix)
        (String.length label - String.length prefix)
    else label
  in
  List.iter
    (fun (label, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> Printf.printf "  %-48s %12.0f ns/op\n" (strip label) ns
      | Some _ | None -> Printf.printf "  %-48s (no estimate)\n" (strip label))
    (List.sort compare rows)

let test ~name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f)

let exit_prog = Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]

let must_v = function
  | Ok v -> v
  | Error e -> failwith (Sanctorum.Api_error.to_string e)

let must r = ignore (must_v r)
let install tb image = must_v (Os.install_enclave tb.Testbed.os image)

(* ------------------------------------------------------------------ *)
(* F1 — Fig. 1: the trap funnel / API dispatch *)

let bench_fig1 () =
  let tb = Testbed.create () in
  (* 16 no-op monitor calls, then exit: measures the ecall dispatch
     path (authenticate, decode, respond). *)
  let calls =
    List.concat
      (List.init 16 (fun _ ->
           Hw.Isa.[ Op_imm (Add, a7, zero, 999); Ecall ]))
  in
  let i_ecall = install tb (Img.of_program ~evbase:0x10000 (calls @ exit_prog)) in
  let i_spin = install tb (Img.of_program ~evbase:0x20000 [ Hw.Isa.j 0 ]) in
  let i_fault =
    install tb
      (Img.of_program ~evbase:0x30000
         Hw.Isa.(li t0 0x38000 @ [ Load (Ld, a0, t0, 0) ]))
  in
  let os = tb.Testbed.os in
  run_group ~name:"F1: SM API dispatch via system exceptions"
    [
      test ~name:"enter + 16 ecall dispatches + exit" (fun () ->
          must
            (Os.run_enclave os ~eid:i_ecall.Os.eid
               ~tid:(List.hd i_ecall.Os.tids) ~core:0 ~fuel:500 ()));
      test ~name:"OS interrupt: AEX + delegate" (fun () ->
          must
            (Os.run_enclave os ~eid:i_spin.Os.eid ~tid:(List.hd i_spin.Os.tids)
               ~core:1 ~fuel:100000 ~quantum:100 ()));
      test ~name:"enclave fault: AEX + delegate" (fun () ->
          must
            (Os.run_enclave os ~eid:i_fault.Os.eid
               ~tid:(List.hd i_fault.Os.tids) ~core:2 ~fuel:500 ()));
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
      test ~name:"block+clean+grant cycle (OS memory unit)" (fun () ->
          must (S.block_resource sm ~caller:S.Os kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os));
      test ~name:"grant+accept+block+clean (enclave unit)" (fun () ->
          must (S.block_resource sm ~caller:S.Os kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:(S.To_enclave eid));
          must (S.accept_resource sm ~caller:(S.Enclave_caller eid) kind ~rid);
          must
            (S.block_resource sm ~caller:(S.Enclave_caller eid) kind ~rid);
          must (S.clean_resource sm ~caller:S.Os kind ~rid);
          must (S.grant_resource sm ~caller:S.Os kind ~rid ~to_:S.To_os));
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
      test ~name:"k = 4 pages" (lifecycle 3);
      test ~name:"k = 16 pages" (lifecycle 15);
      test ~name:"k = 64 pages" (lifecycle 63);
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
      test ~name:"enter_enclave + exit_enclave roundtrip" (fun () ->
          must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:100 ()));
      test ~name:"enter + AEX (preemption) roundtrip" (fun () ->
          must
            (Os.run_enclave os ~eid:i_spin.Os.eid ~tid:(List.hd i_spin.Os.tids)
               ~core:1 ~fuel:100000 ~quantum:200 ()));
      test ~name:"release + assign + accept recycle" (fun () ->
          must (S.release_thread sm ~caller:(S.Enclave_caller eid) ~tid);
          must (S.assign_thread sm ~caller:S.Os ~eid ~tid);
          must
            (S.accept_thread sm ~caller:(S.Enclave_caller eid) ~tid
               ~entry_pc:0x10000L ~entry_sp:0x11ff0L ()));
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
  run_group ~name:"F5: mailbox message passing"
    [
      test ~name:"accept + send + get (256-byte message)" (fun () ->
          must
            (S.accept_mail sm ~caller:(S.Enclave_caller e2)
               ~sender:(Sanctorum.Mailbox.From_enclave e1));
          must (S.send_mail sm ~caller:(S.Enclave_caller e1) ~recipient:e2 ~msg);
          ignore
            (must
               (S.get_mail sm ~caller:(S.Enclave_caller e2)
                  ~sender:(Sanctorum.Mailbox.From_enclave e1))));
      test ~name:"OS -> enclave mail" (fun () ->
          must
            (S.accept_mail sm ~caller:(S.Enclave_caller e2)
               ~sender:Sanctorum.Mailbox.From_os);
          must (S.send_mail sm ~caller:S.Os ~recipient:e2 ~msg);
          ignore
            (must
               (S.get_mail sm ~caller:(S.Enclave_caller e2)
                  ~sender:Sanctorum.Mailbox.From_os)));
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
      test ~name:"four-step protocol, end to end" (fun () ->
          match
            Sanctorum.Attestation.local_attest sm ~verifier:i2.Os.eid
              ~prover:i1.Os.eid ~expected
          with
          | Ok true -> ()
          | Ok false -> failwith "attestation mismatch"
          | Error e -> failwith (Sanctorum.Api_error.to_string e));
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
      test ~name:"key agreement + sign + verify, end to end" (fun () ->
          let s =
            Sanctorum.Attestation.run_remote_attestation tb.Testbed.sm
              ~rng:tb.Testbed.rng ~eid:t1.Os.eid ~es_eid:es.Os.eid
              ~expected_measurement:expected
          in
          match s.Sanctorum.Attestation.verdict with
          | Ok () -> ()
          | Error m -> failwith m);
    ]

(* ------------------------------------------------------------------ *)
(* Crypto substrate microbenchmarks (the costs behind F6/F7 and §VI-A) *)

let bench_crypto () =
  let page = String.make 4096 'p' in
  let sk = C.Schnorr.secret_key_of_seed "bench" in
  let pk = C.Schnorr.public_key sk in
  let signature = C.Schnorr.sign sk "msg" in
  let rng = C.Drbg.create ~seed:"bench" in
  let s1, _p1 = C.Dh.generate rng in
  let _s2, p2 = C.Dh.generate rng in
  run_group ~name:"crypto substrate"
    [
      test ~name:"sha3-256 of one 4 KiB page (measurement)" (fun () ->
          ignore (C.Sha3.sha3_256 page));
      test ~name:"schnorr sign" (fun () -> ignore (C.Schnorr.sign sk "msg"));
      test ~name:"schnorr verify" (fun () ->
          ignore (C.Schnorr.verify pk ~msg:"msg" ~signature));
      test ~name:"dh shared key" (fun () -> ignore (C.Dh.shared_key s1 p2));
      test ~name:"drbg 32 bytes" (fun () -> ignore (C.Drbg.random_bytes rng 32));
    ]

(* ------------------------------------------------------------------ *)
(* P1 — §VII: Sanctum vs Keystone, simulated-cycle comparison *)

let simulated_cycles backend =
  let tb = Testbed.create ~backend () in
  let os = tb.Testbed.os in
  let compute =
    (* ~1000 retired instructions: a counted loop *)
    Hw.Isa.(
      li t0 330
      @ [
          Op_imm (Add, t1, zero, 0);
          Op_imm (Add, t1, t1, 1);
          Branch (Bne, t1, t0, -4);
        ]
      @ exit_prog)
  in
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
      ~code:
        Hw.Isa.(
          li t0 330
          @ [
              Op_imm (Add, t1, zero, 0);
              Op_imm (Add, t1, t1, 1);
              Branch (Bne, t1, t0, -4);
            ]
          @ [ Ecall ])
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
      let evbase = 0x10000 in
      let counter = evbase + 4096 in
      let body =
        Hw.Isa.(
          li t0 counter
          @ [ Load (Ld, t1, t0, 0) ]
          @ li t2 target
          @ [
              Branch (Bge, t1, t2, 16);
              Op_imm (Add, t1, t1, 1);
              Store (Sd, t1, t0, 0);
              Jal (zero, -12);
            ]
          @ exit_prog)
      in
      let i = install tb (Img.of_program ~evbase body) in
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
  let workload tb =
    let calls =
      List.concat
        (List.init 16 (fun _ -> Hw.Isa.[ Op_imm (Add, a7, zero, 999); Ecall ]))
    in
    let i = install tb (Img.of_program ~evbase:0x10000 (calls @ exit_prog)) in
    let os = tb.Testbed.os in
    let eid = i.Os.eid and tid = List.hd i.Os.tids in
    fun () -> must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:500 ())
  in
  let iters = 2000 in
  let time f =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to iters do
      f ()
    done;
    seconds_since t0 /. float_of_int iters *. 1e9
  in
  (* Traced run: per-op counter deltas from the metrics registry. *)
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~capacity:4096 ~metrics () in
  let traced_op = workload (Testbed.create ~sink ()) in
  traced_op ();
  (* warm-up done; measure from a clean registry *)
  Tel.Metrics.reset metrics;
  Tel.Sink.clear sink;
  let traced_ns = time traced_op in
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
  let plain_op = workload (Testbed.create ()) in
  plain_op ();
  let plain_ns = time plain_op in
  Printf.printf "  %-34s %12.0f\n" "wall-clock ns/op (tracing off)" plain_ns;
  Printf.printf "  %-34s %11.1f%%\n" "tracing overhead"
    (if plain_ns = 0. then 0. else (traced_ns -. plain_ns) /. plain_ns *. 100.)

(* ------------------------------------------------------------------ *)
(* The analysis layer: what one whole-state snapshot pass costs, and
   what arming it after every API call does to a real workload. *)

let report_analysis () =
  let module An = Sanctorum_analysis in
  let workload tb =
    let calls =
      List.concat
        (List.init 16 (fun _ -> Hw.Isa.[ Op_imm (Add, a7, zero, 999); Ecall ]))
    in
    let i = install tb (Img.of_program ~evbase:0x10000 (calls @ exit_prog)) in
    let os = tb.Testbed.os in
    let eid = i.Os.eid and tid = List.hd i.Os.tids in
    fun () -> must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:500 ())
  in
  let time ?(iters = 500) f =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to iters do
      f ()
    done;
    seconds_since t0 /. float_of_int iters *. 1e9
  in
  Printf.printf "\n== analysis: invariant-checker cost ==\n";
  (* One snapshot pass over a populated monitor (every pass walks all
     units, page tables, TLBs and caches). *)
  let tb = Testbed.create () in
  let op = workload tb in
  op ();
  let snapshot_ns = time (fun () -> ignore (An.Checker.snapshot tb.Testbed.sm)) in
  Printf.printf "  %-34s %12.0f\n" "snapshot pass ns" snapshot_ns;
  (* Trace passes over a recorded run. *)
  let sink = Tel.Sink.create ~capacity:(1 lsl 16) () in
  let tb_traced = Testbed.create ~sink () in
  let traced_op = workload tb_traced in
  traced_op ();
  let events = Tel.Sink.events sink in
  Printf.printf "  %-34s %12d\n" "trace length (events)" (List.length events);
  let trace_ns = time (fun () -> ignore (An.Checker.trace events)) in
  Printf.printf "  %-34s %12.0f\n" "lock+order trace pass ns" trace_ns;
  (* Workload overhead of --check-invariants. *)
  let plain_op = workload (Testbed.create ()) in
  plain_op ();
  let plain_ns = time plain_op in
  let tb_hooked = Testbed.create () in
  let hooked_op = workload tb_hooked in
  S.set_post_api_hook tb_hooked.Testbed.sm
    (Some
       (fun ~api:_ ->
         match An.Checker.snapshot tb_hooked.Testbed.sm with
         | [] -> ()
         | _ :: _ -> failwith "invariant violation during benchmark"));
  hooked_op ();
  let hooked_ns = time ~iters:100 hooked_op in
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
  let workload tb =
    let calls =
      List.concat
        (List.init 16 (fun _ -> Hw.Isa.[ Op_imm (Add, a7, zero, 999); Ecall ]))
    in
    let i = install tb (Img.of_program ~evbase:0x10000 (calls @ exit_prog)) in
    let os = tb.Testbed.os in
    let eid = i.Os.eid and tid = List.hd i.Os.tids in
    fun () -> must (Os.run_enclave os ~eid ~tid ~core:0 ~fuel:500 ())
  in
  let iters = 2000 in
  let time f =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to iters do
      f ()
    done;
    seconds_since t0 /. float_of_int iters *. 1e9
  in
  Printf.printf "\n== faults: fault-hook overhead (hooks idle) ==\n";
  let plain_op = workload (Testbed.create ()) in
  plain_op ();
  let plain_ns = time plain_op in
  let tb_idle = Testbed.create () in
  let idle =
    F.Injector.create ~machine:tb_idle.Testbed.machine ~seed:7L ~spec:[] ()
  in
  F.Injector.arm idle;
  let idle_op = workload tb_idle in
  idle_op ();
  let idle_ns = time idle_op in
  let tb_armed = Testbed.create () in
  let armed =
    (* a real schedule, parked beyond any cycle this workload reaches *)
    F.Injector.create ~horizon:max_int ~machine:tb_armed.Testbed.machine
      ~seed:7L
      ~spec:(List.map (fun cls -> { F.Spec.cls; count = 4 }) F.Spec.all_classes)
      ()
  in
  F.Injector.arm armed;
  let armed_op = workload tb_armed in
  armed_op ();
  let armed_ns = time armed_op in
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
   identical in both — the differential suite proves that — so the
   MIPS ratio is a pure host-speed ratio. The machine-readable result
   lands in BENCH_PR10.json for CI.

   SANCTORUM_SIM_QUOTA caps the instruction budget (CI smoke runs use
   a small quota); SANCTORUM_BENCH_JSON overrides the output path. *)

let report_sim () =
  let quota = env_int "SANCTORUM_SIM_QUOTA" 4_000_000 in
  let iters = max 1_000 (quota / 3) in
  let compute =
    Hw.Isa.(
      li t0 iters
      @ [
          Op_imm (Add, t1, zero, 0);
          Op_imm (Add, t1, t1, 1);
          Branch (Bne, t1, t0, -4);
        ]
      @ exit_prog)
  in
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
  let measure fast =
    let reps = List.init 3 (fun _ -> measure_once fast) in
    List.fold_left
      (fun (n, s) (n', s') ->
        if n <> n' then failwith "sim bench: instret varied across repetitions";
        (n, Float.min s s'))
      (List.hd reps) (List.tl reps)
  in
  let n_super, s_super = measure true in
  let n_slow, s_slow = measure false in
  if n_super <> n_slow then
    failwith
      (Printf.sprintf "sim bench: instret diverged (superblock %d vs slow %d)"
         n_super n_slow);
  let mips n s = if s <= 0. then 0. else float_of_int n /. s /. 1e6 in
  let m_super = mips n_super s_super and m_slow = mips n_slow s_slow in
  let ratio a b = if b = 0. then 0. else a /. b in
  Printf.printf "\n== sim: simulator throughput (fig2 compute loop, %d instrs) ==\n"
    n_slow;
  Printf.printf "  %-34s %9.3f s %9.2f MIPS\n" "superblock tier" s_super m_super;
  Printf.printf "  %-34s %9.3f s %9.2f MIPS\n" "stepped (fast path off)" s_slow
    m_slow;
  Printf.printf "  %-34s %9.2fx\n" "superblock / stepped"
    (ratio m_super m_slow);
  let path =
    Option.value
      (Sys.getenv_opt "SANCTORUM_BENCH_JSON")
      ~default:"BENCH_PR10.json"
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"sim\",\n\
    \  %s,\n\
    \  \"workload\": \"fig2-enclave-compute-loop\",\n\
    \  \"instructions\": %d,\n\
    \  \"superblock\": { \"seconds\": %.6f, \"mips\": %.2f },\n\
    \  \"slow_path\": { \"seconds\": %.6f, \"mips\": %.2f },\n\
    \  \"speedup_superblock_over_slow\": %.2f\n\
     }\n"
    (provenance_json
       ~backend:(Testbed.backend_name Testbed.Sanctum_backend)
       ~seed:"bench-sim")
    n_slow s_super m_super s_slow m_slow (ratio m_super m_slow);
  close_out oc;
  Printf.printf "  wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* The multicore enclave workload engine: all four mixes through the
   closed loop, with throughput (MIPS, enclave ops/sec) and per-quantum
   latency percentiles. The machine-readable result lands in
   BENCH_PR5.json for CI.

   SANCTORUM_WORKLOAD_{CORES,ENCLAVES,ROUNDS} scale the run (CI smoke
   uses a small matrix); SANCTORUM_WORKLOAD_JSON overrides the output
   path. Exits non-zero on any analysis finding or incomplete
   reclamation, so CI needs no output scraping to stay strict. *)

let report_workload () =
  let module W = Sanctorum_workload.Workload in
  let cores = env_int "SANCTORUM_WORKLOAD_CORES" 4 in
  let enclaves = env_int "SANCTORUM_WORKLOAD_ENCLAVES" 64 in
  let rounds = env_int "SANCTORUM_WORKLOAD_ROUNDS" 1000 in
  Printf.printf
    "\n== workload: multicore enclave engine (%d cores, %d enclaves, %d \
     rounds) ==\n"
    cores enclaves rounds;
  Printf.printf "  %-8s %9s %9s %9s %7s %7s %10s %8s %6s %6s %6s\n" "mix"
    "instret" "quanta" "exits" "inst/rc" "msgs" "mips" "ops/s" "p50" "p90"
    "p99";
  let clean = ref true in
  let reports =
    List.map
      (fun mix ->
        let r =
          W.run { W.default with W.cores; enclaves; rounds; mix }
        in
        if r.W.rp_findings <> [] || not (r.W.rp_drained && r.W.rp_reclaimed)
        then clean := false;
        Printf.printf
          "  %-8s %9d %9d %9d %3d/%-3d %7d %10.2f %8.1f %6d %6d %6d\n"
          (W.mix_name mix) r.W.rp_instret r.W.rp_quanta r.W.rp_exits
          r.W.rp_installs r.W.rp_reclaims r.W.rp_msgs_received r.W.rp_mips
          r.W.rp_ops_per_sec r.W.rp_quantum_p50 r.W.rp_quantum_p90
          r.W.rp_quantum_p99;
        r)
      W.all_mixes
  in
  let path =
    Option.value
      (Sys.getenv_opt "SANCTORUM_WORKLOAD_JSON")
      ~default:"BENCH_PR5.json"
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"workload\",\n\
    \  %s,\n\
    \  \"cores\": %d,\n\
    \  \"enclaves\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"mixes\": [\n"
    (provenance_json
       ~backend:(Testbed.backend_name W.default.W.backend)
       ~seed:W.default.W.seed)
    cores enclaves rounds;
  List.iteri
    (fun i (r : W.report) ->
      Printf.fprintf oc
        "    { \"mix\": %S, \"installs\": %d, \"reclaims\": %d, \"exits\": \
         %d,\n\
        \      \"preempts\": %d, \"quanta\": %d, \"instret\": %d, \
         \"sim_cycles\": %d,\n\
        \      \"msgs_sent\": %d, \"msgs_received\": %d,\n\
        \      \"wall_s\": %.4f, \"mips\": %.3f, \"enclave_ops_per_sec\": \
         %.2f,\n\
        \      \"quantum_cycles_p50\": %d, \"quantum_cycles_p90\": %d, \
         \"quantum_cycles_p99\": %d,\n\
        \      \"findings\": %d, \"drained\": %b, \"reclaimed\": %b }%s\n"
        (W.mix_name r.W.rp_mix) r.W.rp_installs r.W.rp_reclaims r.W.rp_exits
        r.W.rp_preempts r.W.rp_quanta r.W.rp_instret r.W.rp_sim_cycles
        r.W.rp_msgs_sent r.W.rp_msgs_received r.W.rp_wall_s r.W.rp_mips
        r.W.rp_ops_per_sec r.W.rp_quantum_p50 r.W.rp_quantum_p90
        r.W.rp_quantum_p99
        (List.length r.W.rp_findings)
        r.W.rp_drained r.W.rp_reclaimed
        (if i = List.length reports - 1 then "" else ","))
    reports;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path;
  if not !clean then begin
    Printf.eprintf "workload bench: findings or incomplete reclamation\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The attestation fast path (PR 9): the throughput-grade crypto tier
   against its retained reference implementations, the measurement
   cache hot vs cold, the batch attestation service, and the churn mix
   — whose 34.13 ops/s on the pre-optimization tier (BENCH_PR5.json)
   is the pinned baseline. The machine-readable result lands in
   BENCH_PR9.json for CI.

   SANCTORUM_ATTEST_{CLIENTS,BATCH} size the service scenario;
   SANCTORUM_ATTEST_CHURN_{ENCLAVES,ROUNDS} size the churn mix;
   SANCTORUM_ATTEST_MIN_S sets the per-micro-op time quota;
   SANCTORUM_ATTEST_BACKEND picks the platform;
   SANCTORUM_ATTEST_JSON overrides the output path. Exits non-zero if
   any scenario is dirty (findings, incomplete reclamation, a verdict
   out of place, or a cold measurement cache). *)

let report_attest () =
  let module W = Sanctorum_workload.Workload in
  let module Asv = Sanctorum_workload.Attest_service in
  let module M = Sanctorum.Measurement in
  let clients = env_int "SANCTORUM_ATTEST_CLIENTS" 96 in
  let batch = env_int "SANCTORUM_ATTEST_BATCH" 16 in
  let backend = env_backend "SANCTORUM_ATTEST_BACKEND" W.default.W.backend in
  let churn_enclaves = env_int "SANCTORUM_ATTEST_CHURN_ENCLAVES" 64 in
  let churn_rounds = env_int "SANCTORUM_ATTEST_CHURN_ROUNDS" 1000 in
  let min_s = env_float "SANCTORUM_ATTEST_MIN_S" 0.3 in
  let dirty = ref [] in
  let flag what = dirty := what :: !dirty in
  (* -- crypto micro-ops, wall-clock against the retained references -- *)
  let time_ns f =
    ignore (f ());
    (* warm: tables, caches *)
    let t0 = Monotonic_clock.now () in
    let n = ref 0 in
    while seconds_since t0 < min_s do
      ignore (f ());
      incr n
    done;
    seconds_since t0 /. float_of_int !n *. 1e9
  in
  let sk = C.Schnorr.secret_key_of_seed "bench-attest" in
  let pk = C.Schnorr.public_key sk in
  let signature = C.Schnorr.sign sk "msg" in
  let keygen_ns = time_ns (fun () -> C.Schnorr.secret_key_of_seed "fresh") in
  let sign_ns = time_ns (fun () -> C.Schnorr.sign sk "msg") in
  let verify_ns =
    time_ns (fun () -> C.Schnorr.verify pk ~msg:"msg" ~signature)
  in
  let verify_ref_ns =
    time_ns (fun () -> C.Schnorr.verify_reference pk ~msg:"msg" ~signature)
  in
  let batch_n = 64 in
  let items =
    List.init batch_n (fun i ->
        let msg = Printf.sprintf "batch item %d" i in
        (pk, msg, C.Schnorr.sign sk msg))
  in
  let batch_item_ns =
    time_ns (fun () -> C.Schnorr.verify_batch items) /. float_of_int batch_n
  in
  Printf.printf "\n== attest: crypto fast path vs reference ==\n";
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr keygen" keygen_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr sign" sign_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr verify (tables)" verify_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "schnorr verify (reference)"
    verify_ref_ns;
  Printf.printf "  %-36s %12.2fx\n" "verify speedup" (verify_ref_ns /. verify_ns);
  Printf.printf "  %-36s %12.0f ns/item (n=%d)\n" "batch verify" batch_item_ns
    batch_n;
  Printf.printf "  %-36s %12.2fx vs single verify\n" "batch speedup"
    (verify_ns /. batch_item_ns);
  if verify_ref_ns /. verify_ns < 10. then flag "verify speedup below 10x";
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
  let cold_ns = time_ns (fun () -> measure None) in
  let cache = M.Cache.create () in
  ignore (measure (Some cache));
  let hot_ns = time_ns (fun () -> measure (Some cache)) in
  Printf.printf "  %-36s %12.0f ns/op\n" "measurement (4 pages, cold)" cold_ns;
  Printf.printf "  %-36s %12.0f ns/op\n" "measurement (4 pages, cached)" hot_ns;
  if M.Cache.hits cache = 0 then flag "measurement cache never hit";
  (* -- the attestation service at scale, honest and tampered -- *)
  Printf.printf "\n== attest: batch attestation service ==\n";
  Printf.printf "  %-10s %8s %9s %9s %8s %8s %11s %6s\n" "scenario" "clients"
    "verified" "rejected" "batches" "signs" "clients/s" "clean";
  let service label tamper_every =
    let r =
      Asv.run { Asv.default with Asv.clients; batch; tamper_every; backend }
    in
    Printf.printf "  %-10s %8d %9d %9d %8d %8d %11.1f %6b\n" label
      r.Asv.ar_clients r.Asv.ar_verified r.Asv.ar_rejected r.Asv.ar_batches
      r.Asv.ar_signs r.Asv.ar_clients_per_sec r.Asv.ar_clean;
    if not r.Asv.ar_clean then flag (label ^ " service scenario dirty");
    r
  in
  let honest = service "honest" 0 in
  let tampered = service "tampered" 8 in
  (* -- the churn mix against its pinned pre-optimization baseline -- *)
  let baseline = 34.13 in
  Printf.printf "\n== attest: churn mix vs BENCH_PR5 baseline ==\n";
  let churn =
    W.run
      {
        W.default with
        W.mix = W.Churn;
        W.enclaves = churn_enclaves;
        W.rounds = churn_rounds;
        W.backend = backend;
      }
  in
  if
    churn.W.rp_findings <> []
    || not (churn.W.rp_drained && churn.W.rp_reclaimed)
  then flag "churn mix dirty";
  if churn.W.rp_meas_cache_hits = 0 then flag "churn never hit the cache";
  Printf.printf "  %-36s %12.2f ops/s (pinned, pre-optimization)\n"
    "baseline (BENCH_PR5 churn)" baseline;
  Printf.printf "  %-36s %12.2f ops/s\n" "churn now" churn.W.rp_ops_per_sec;
  Printf.printf "  %-36s %12.2fx\n" "speedup" (churn.W.rp_ops_per_sec /. baseline);
  Printf.printf "  %-36s %9d hits %9d misses\n" "measurement cache"
    churn.W.rp_meas_cache_hits churn.W.rp_meas_cache_misses;
  (* -- machine-readable result -- *)
  let path =
    Option.value (Sys.getenv_opt "SANCTORUM_ATTEST_JSON")
      ~default:"BENCH_PR9.json"
  in
  let oc = open_out path in
  let service_json label tamper_every (r : Asv.report) =
    Printf.sprintf
      "    { \"scenario\": %S, \"clients\": %d, \"batch\": %d, \
       \"tamper_every\": %d,\n\
      \      \"verified\": %d, \"rejected\": %d, \"tampered\": %d, \
       \"batches\": %d,\n\
      \      \"signs\": %d, \"batch_verifies\": %d, \"cache_hits\": %d,\n\
      \      \"wall_s\": %.4f, \"clients_per_sec\": %.1f, \"findings\": %d, \
       \"clean\": %b }"
      label r.Asv.ar_clients batch tamper_every r.Asv.ar_verified
      r.Asv.ar_rejected r.Asv.ar_tampered r.Asv.ar_batches r.Asv.ar_signs
      r.Asv.ar_batch_verifies r.Asv.ar_cache_hits r.Asv.ar_wall_s
      r.Asv.ar_clients_per_sec r.Asv.ar_findings r.Asv.ar_clean
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"attest\",\n\
    \  %s,\n\
    \  \"micro_ns\": { \"keygen\": %.0f, \"sign\": %.0f, \"verify\": %.0f,\n\
    \    \"verify_reference\": %.0f, \"verify_speedup\": %.2f,\n\
    \    \"batch_item\": %.0f, \"batch_n\": %d, \"batch_vs_single\": %.2f,\n\
    \    \"measurement_cold\": %.0f, \"measurement_hot\": %.0f },\n\
    \  \"service\": [\n%s,\n%s\n  ],\n\
    \  \"churn\": { \"baseline_ops_per_sec\": %.2f,\n\
    \    \"baseline_source\": \"BENCH_PR5.json churn (pre-optimization \
     tier, same config)\",\n\
    \    \"enclaves\": %d, \"rounds\": %d,\n\
    \    \"ops_per_sec\": %.2f, \"speedup\": %.2f, \"wall_s\": %.4f,\n\
    \    \"installs\": %d, \"reclaims\": %d,\n\
    \    \"meas_cache_hits\": %d, \"meas_cache_misses\": %d,\n\
    \    \"findings\": %d, \"drained\": %b, \"reclaimed\": %b }\n\
     }\n"
    (provenance_json
       ~backend:(Testbed.backend_name backend)
       ~seed:W.default.W.seed)
    keygen_ns sign_ns verify_ns verify_ref_ns
    (verify_ref_ns /. verify_ns)
    batch_item_ns batch_n
    (verify_ns /. batch_item_ns)
    cold_ns hot_ns
    (service_json "honest" 0 honest)
    (service_json "tampered" 8 tampered)
    baseline churn_enclaves churn_rounds churn.W.rp_ops_per_sec
    (churn.W.rp_ops_per_sec /. baseline)
    churn.W.rp_wall_s churn.W.rp_installs churn.W.rp_reclaims
    churn.W.rp_meas_cache_hits churn.W.rp_meas_cache_misses
    (List.length churn.W.rp_findings)
    churn.W.rp_drained churn.W.rp_reclaimed;
  close_out oc;
  Printf.printf "  wrote %s\n" path;
  if !dirty <> [] then begin
    List.iter (Printf.eprintf "attest bench: %s\n") !dirty;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The fleet layer: the same total work — compute mix, a fixed job
   count, a fixed fleet-wide enclave population — pushed through 1, 2
   and 4 shards, each shard one OCaml domain with its own machine.
   Scaling comes from two directions at once: the domains run in
   parallel, and each shard simulates a machine with 1/N of the
   enclave state (fewer PMP entries to walk per switch, smaller
   tables), so the curve is meaningful even on a single host core.
   The machine-readable result lands in BENCH_PR6.json for CI.

   SANCTORUM_FLEET_{JOBS,TARGET,CORES} scale the run;
   SANCTORUM_FLEET_BACKEND picks the platform; SANCTORUM_FLEET_JSON
   overrides the output path. Exits non-zero if any scale is dirty. *)

let report_fleet () =
  let module Fl = Sanctorum_fleet.Cluster in
  let jobs = env_int "SANCTORUM_FLEET_JOBS" 64 in
  let target = env_int "SANCTORUM_FLEET_TARGET" 40 in
  let cores = env_int "SANCTORUM_FLEET_CORES" 4 in
  let backend =
    env_backend "SANCTORUM_FLEET_BACKEND" Testbed.Keystone_backend
  in
  let scales = [ 1; 2; 4 ] in
  Printf.printf
    "\n== fleet: domain-parallel shards (%s, %d jobs, target %d, %d \
     cores/shard) ==\n"
    (Testbed.backend_name backend)
    jobs target cores;
  Printf.printf "  %-7s %9s %7s %7s %10s %9s %6s %6s %6s %6s\n" "shards"
    "instret" "gens" "wall-s" "mips" "ops/s" "p50" "p90" "p99" "clean";
  let clean = ref true in
  let outcomes =
    List.map
      (fun shards ->
        let o =
          Fl.run
            {
              Fl.default with
              Fl.seed = "bench-fleet";
              backend;
              shards;
              cores;
              enclaves = max 2 (jobs / shards);
              jobs;
              target;
              mix = Sanctorum_workload.Programs.Compute;
              (* high enough that every scale finishes in one
                 generation: nothing is migrated, so each scale
                 executes the identical set of (jid, seed, target)
                 jobs to completion — same total work by construction *)
              batch_rounds = env_int "SANCTORUM_FLEET_BATCH_ROUNDS" 40_000;
            }
        in
        if not o.Fl.r_clean then clean := false;
        Printf.printf "  %-7d %9d %7d %7.3f %10.2f %9.1f %6d %6d %6d %6b\n"
          shards o.Fl.r_instret o.Fl.r_generations o.Fl.r_wall_s o.Fl.r_mips
          o.Fl.r_ops_per_sec o.Fl.r_p50 o.Fl.r_p90 o.Fl.r_p99 o.Fl.r_clean;
        (shards, o))
      scales
  in
  let ratio f =
    match (List.assoc_opt 1 outcomes, List.assoc_opt 4 outcomes) with
    | Some a, Some b when f a > 0. -> f b /. f a
    | _ -> 0.
  in
  let mips_x = ratio (fun o -> o.Fl.r_mips) in
  let ops_x = ratio (fun o -> o.Fl.r_ops_per_sec) in
  Printf.printf "  %-34s %9.2fx mips %9.2fx ops/s\n" "4-shard scaling"
    mips_x ops_x;
  let path =
    Option.value
      (Sys.getenv_opt "SANCTORUM_FLEET_JSON")
      ~default:"BENCH_PR6.json"
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"fleet\",\n\
    \  %s,\n\
    \  \"jobs\": %d,\n\
    \  \"target\": %d,\n\
    \  \"cores_per_shard\": %d,\n\
    \  \"mix\": \"compute\",\n\
    \  \"scales\": [\n"
    (provenance_json
       ~backend:(Testbed.backend_name backend)
       ~seed:"bench-fleet")
    jobs target cores;
  List.iteri
    (fun i (shards, (o : Fl.outcome)) ->
      Printf.fprintf oc
        "    { \"shards\": %d, \"enclaves_per_shard\": %d, \"jobs_completed\": \
         %d,\n\
        \      \"jobs_failed_closed\": %d, \"generations\": %d, \"instret\": \
         %d,\n\
        \      \"wall_s\": %.4f, \"mips\": %.3f, \"enclave_ops_per_sec\": \
         %.2f,\n\
        \      \"quantum_cycles_p50\": %d, \"quantum_cycles_p90\": %d, \
         \"quantum_cycles_p99\": %d,\n\
        \      \"findings\": %d, \"accounted\": %b, \"clean\": %b }%s\n"
        shards
        (max 2 (jobs / shards))
        (List.length o.Fl.r_completed)
        (List.length o.Fl.r_failed_closed)
        o.Fl.r_generations o.Fl.r_instret o.Fl.r_wall_s o.Fl.r_mips
        o.Fl.r_ops_per_sec o.Fl.r_p50 o.Fl.r_p90 o.Fl.r_p99 o.Fl.r_findings
        o.Fl.r_accounted o.Fl.r_clean
        (if i = List.length outcomes - 1 then "" else ","))
    outcomes;
  Printf.fprintf oc
    "  ],\n\
    \  \"scaling_4x\": { \"mips\": %.2f, \"enclave_ops_per_sec\": %.2f }\n\
     }\n"
    mips_x ops_x;
  close_out oc;
  Printf.printf "  wrote %s\n" path;
  if not !clean then begin
    Printf.eprintf "fleet bench: a scale ended dirty\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The fleet transport: the same workload as the fleet bench — same
   seed, jobs, target, enclave split, so the rows are comparable
   one-for-one with BENCH_PR6.json — first with the link quiet (every
   protocol timer quiesced: the faults-off overhead of carrying the
   session layer must be within run-to-run noise of the PR6 baseline)
   and then under escalating fault specs, where the interesting number
   is how little wall-clock the retransmit/dedup machinery costs to
   absorb the chaos. The machine-readable result lands in
   BENCH_PR8.json for CI.

   SANCTORUM_FLEETNET_{JOBS,TARGET,CORES} scale the run;
   SANCTORUM_FLEETNET_BACKEND picks the platform;
   SANCTORUM_FLEETNET_JSON overrides the output path. Exits non-zero
   if any row is dirty. *)

let report_fleetnet () =
  let module Fl = Sanctorum_fleet.Cluster in
  let module Nf = Sanctorum_fleet.Netfault in
  let jobs = env_int "SANCTORUM_FLEETNET_JOBS" 64 in
  let target = env_int "SANCTORUM_FLEETNET_TARGET" 40 in
  let cores = env_int "SANCTORUM_FLEETNET_CORES" 4 in
  let backend =
    env_backend "SANCTORUM_FLEETNET_BACKEND" Testbed.Keystone_backend
  in
  let rows =
    [
      ("off-1", 1, "none");
      ("off-4", 4, "none");
      ("loss-4", 4, "drop:3,dup:2,reorder:1");
      ("chaos-4", 4, "all");
    ]
  in
  Printf.printf
    "\n== fleetnet: reliable sessions over a hostile link (%s, %d jobs, \
     target %d, %d cores/shard) ==\n"
    (Testbed.backend_name backend)
    jobs target cores;
  Printf.printf "  %-9s %7s %7s %10s %9s %7s %7s %6s\n" "row" "shards"
    "wall-s" "mips" "ops/s" "retx" "rejects" "clean";
  let clean = ref true in
  let outcomes =
    List.map
      (fun (label, shards, spec) ->
        let o =
          Fl.run
            {
              Fl.default with
              Fl.seed = "bench-fleet";
              backend;
              shards;
              cores;
              enclaves = max 2 (jobs / shards);
              jobs;
              target;
              mix = Sanctorum_workload.Programs.Compute;
              batch_rounds = env_int "SANCTORUM_FLEETNET_BATCH_ROUNDS" 40_000;
              net = Result.get_ok (Nf.parse spec);
            }
        in
        if not o.Fl.r_clean then clean := false;
        let c n = try List.assoc n o.Fl.r_counters with Not_found -> 0 in
        let rejects =
          c "net.hmac_rejects" + c "net.stale_rejected"
          + c "fleet.attest.rejected"
        in
        Printf.printf "  %-9s %7d %7.3f %10.2f %9.1f %7d %7d %6b\n" label
          shards o.Fl.r_wall_s o.Fl.r_mips o.Fl.r_ops_per_sec
          (c "net.retransmits") rejects o.Fl.r_clean;
        (label, shards, spec, o))
      rows
  in
  let wall label =
    match
      List.find_opt (fun (l, _, _, _) -> l = label) outcomes
    with
    | Some (_, _, _, o) -> o.Fl.r_wall_s
    | None -> 0.
  in
  let chaos_x = if wall "off-4" > 0. then wall "chaos-4" /. wall "off-4" else 0. in
  (* the PR6 baseline ran the identical off-4 workload without the
     transport; its recorded mips anchors the faults-off overhead claim *)
  let pr6_mips =
    try
      let ic = open_in "BENCH_PR6.json" in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let anchor = {|"shards": 4|} in
      let rec find i =
        if i + String.length anchor > String.length s then None
        else if String.sub s i (String.length anchor) = anchor then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some i -> (
          let key = {|"mips": |} in
          let rec find_key j =
            if j + String.length key > String.length s then None
            else if String.sub s j (String.length key) = key then
              Some (j + String.length key)
            else find_key (j + 1)
          in
          match find_key i with
          | None -> None
          | Some j ->
              let k = ref j in
              while
                !k < String.length s
                && (match s.[!k] with
                   | '0' .. '9' | '.' | '-' -> true
                   | _ -> false)
              do
                incr k
              done;
              float_of_string_opt (String.sub s j (!k - j)))
    with _ -> None
  in
  let off4_mips =
    match List.find_opt (fun (l, _, _, _) -> l = "off-4") outcomes with
    | Some (_, _, _, o) -> o.Fl.r_mips
    | None -> 0.
  in
  (match pr6_mips with
  | Some m when m > 0. ->
      Printf.printf
        "  %-34s %9.2fx vs BENCH_PR6 4-shard mips (1.00 = no overhead)\n"
        "faults-off throughput" (off4_mips /. m)
  | _ -> Printf.printf "  (no BENCH_PR6.json baseline in cwd)\n");
  Printf.printf "  %-34s %9.2fx wall vs faults-off\n" "full chaos cost"
    chaos_x;
  let path =
    Option.value
      (Sys.getenv_opt "SANCTORUM_FLEETNET_JSON")
      ~default:"BENCH_PR8.json"
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"fleetnet\",\n\
    \  %s,\n\
    \  \"jobs\": %d,\n\
    \  \"target\": %d,\n\
    \  \"cores_per_shard\": %d,\n\
    \  \"mix\": \"compute\",\n\
    \  \"baseline\": \"BENCH_PR6.json (same seed, jobs, target, enclave \
     split)\",\n\
    \  \"rows\": [\n"
    (provenance_json
       ~backend:(Testbed.backend_name backend)
       ~seed:"bench-fleet")
    jobs target cores;
  List.iteri
    (fun i (label, shards, spec, (o : Fl.outcome)) ->
      let c n = try List.assoc n o.Fl.r_counters with Not_found -> 0 in
      Printf.fprintf oc
        "    { \"row\": %S, \"shards\": %d, \"net_faults\": %S,\n\
        \      \"jobs_completed\": %d, \"jobs_failed_closed\": %d, \
         \"generations\": %d,\n\
        \      \"wall_s\": %.4f, \"mips\": %.3f, \"enclave_ops_per_sec\": \
         %.2f,\n\
        \      \"retransmits\": %d, \"dups_dropped\": %d, \"hmac_rejects\": \
         %d,\n\
        \      \"link_dropped\": %d, \"link_corrupted\": %d, \
         \"link_reordered\": %d,\n\
        \      \"findings\": %d, \"accounted\": %b, \"clean\": %b }%s\n"
        label shards spec
        (List.length o.Fl.r_completed)
        (List.length o.Fl.r_failed_closed)
        o.Fl.r_generations o.Fl.r_wall_s o.Fl.r_mips o.Fl.r_ops_per_sec
        (c "net.retransmits") (c "net.dups_dropped") (c "net.hmac_rejects")
        (c "net.link.dropped") (c "net.link.corrupted")
        (c "net.link.reordered") o.Fl.r_findings o.Fl.r_accounted o.Fl.r_clean
        (if i = List.length outcomes - 1 then "" else ","))
    outcomes;
  Printf.fprintf oc
    "  ],\n\
    \  \"faults_off_vs_pr6_mips\": %s,\n\
    \  \"chaos_wall_vs_off\": %.3f\n\
     }\n"
    (match pr6_mips with
    | Some m when m > 0. -> Printf.sprintf "%.3f" (off4_mips /. m)
    | _ -> "null")
    chaos_x;
  close_out oc;
  Printf.printf "  wrote %s\n" path;
  if not !clean then begin
    Printf.eprintf "fleetnet bench: a row ended dirty\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The bounded model checker: exploration throughput (states/sec) and
   dedup hit-rate on both backends, plus one cross-backend differential
   run. The state count and digest are deterministic in the geometry,
   so the JSON doubles as a regression anchor: a digest change means
   the explored space changed. The machine-readable result lands in
   BENCH_PR7.json for CI.

   SANCTORUM_MODELCHECK_DEPTH / _DIFF_DEPTH scale the run (CI smoke
   uses small depths); SANCTORUM_MODELCHECK_JSON overrides the output
   path. Exits non-zero on any finding: the explored region must be
   catalog-silent and verdict-identical across backends. *)

let report_modelcheck () =
  let module M = Sanctorum_analysis.Modelcheck in
  let depth = env_int "SANCTORUM_MODELCHECK_DEPTH" 4 in
  let diff_depth = env_int "SANCTORUM_MODELCHECK_DIFF_DEPTH" 3 in
  Printf.printf
    "\n== modelcheck: bounded SM API exploration (depth %d, diff depth %d) ==\n"
    depth diff_depth;
  Printf.printf "  %-22s %8s %9s %7s %9s %8s %9s\n" "run" "states" "edges"
    "dedup" "hit-rate" "wall-s" "states/s";
  let clean = ref true in
  let run label cfg =
    let t0 = Monotonic_clock.now () in
    let s = M.explore cfg in
    let wall = seconds_since t0 in
    let ok_edges = s.M.s_states - 1 + s.M.s_dedup_hits in
    let hit_rate =
      if ok_edges = 0 then 0. else float s.M.s_dedup_hits /. float ok_edges
    in
    if s.M.s_findings_total > 0 then clean := false;
    Printf.printf "  %-22s %8d %9d %7d %8.1f%% %8.2f %9.0f\n" label
      s.M.s_states s.M.s_edges s.M.s_dedup_hits (100. *. hit_rate) wall
      (if wall <= 0. then 0. else float s.M.s_states /. wall);
    (label, cfg, s, wall, hit_rate)
  in
  let runs =
    [
      run "sanctum" { M.default_config with depth };
      run "keystone" { M.default_config with depth; backend = M.Keystone };
      run "sanctum-vs-keystone"
        { M.default_config with depth = diff_depth; diff = true };
    ]
  in
  let path =
    Option.value
      (Sys.getenv_opt "SANCTORUM_MODELCHECK_JSON")
      ~default:"BENCH_PR7.json"
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"modelcheck\",\n\
    \  %s,\n\
    \  \"depth\": %d,\n\
    \  \"diff_depth\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"units\": %d,\n\
    \  \"runs\": [\n"
    (provenance_json ~backend:"sanctum+keystone" ~seed:"modelcheck")
    depth diff_depth M.default_config.M.cores M.default_config.M.units;
  List.iteri
    (fun i (label, (cfg : M.config), (s : M.summary), wall, hit_rate) ->
      Printf.fprintf oc
        "    { \"run\": %S, \"backend\": %S, \"diff\": %b, \"depth\": %d,\n\
        \      \"states\": %d, \"edges\": %d, \"dedup_hits\": %d, \
         \"dedup_hit_rate\": %.4f,\n\
        \      \"truncated\": %b, \"findings\": %d, \"state_digest\": %S,\n\
        \      \"wall_s\": %.4f, \"states_per_sec\": %.1f }%s\n"
        label
        (M.backend_name cfg.M.backend)
        cfg.M.diff cfg.M.depth s.M.s_states s.M.s_edges s.M.s_dedup_hits
        hit_rate s.M.s_truncated s.M.s_findings_total s.M.s_state_digest wall
        (if wall <= 0. then 0. else float s.M.s_states /. wall)
        (if i = List.length runs - 1 then "" else ","))
    runs;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path;
  if not !clean then begin
    Printf.eprintf "modelcheck bench: findings in the explored region\n";
    exit 1
  end

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
    ("crypto", bench_crypto);
    ("platforms", report_platforms);
    ("sidechannel", report_sidechannel);
    ("ablation", report_ablation);
    ("telemetry", report_telemetry);
    ("analysis", report_analysis);
    ("faults", report_faults);
    ("sim", report_sim);
    ("workload", report_workload);
    ("attest", report_attest);
    ("fleet", report_fleet);
    ("fleetnet", report_fleetnet);
    ("modelcheck", report_modelcheck);
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
