(* A command-line driver for the whole stack:

     sanctorum_demo boot       [--backend sanctum|keystone]
     sanctorum_demo run        [--backend ...] [--count N] [--quantum Q]
     sanctorum_demo attest     [--backend ...]
     sanctorum_demo probe      [--backend ...]
     sanctorum_demo leak       [--backend ...] [--secret S]
     sanctorum_demo check      [--catalog]
     sanctorum_demo chaos      [--backend ...] [--seed N] [--faults SPEC]
                               [--rounds R]
     sanctorum_demo workload   [--backend ...] [--seed S] [--cores N]
                               [--enclaves M] [--rounds R] [--mix MIX]
     sanctorum_demo fleet      [--backend ...] [--seed S] [--shards N]
                               [--jobs J] [--target T] [--net-faults SPEC]
     sanctorum_demo modelcheck [--backend ...] [--depth K] [--cores N]
                               [--diff] [--inject FAULT] [--replay PATH]

   (each subcommand's --help lists the rest of its flags). A command
   takes a shared flag only where it acts: boot, run, attest, probe,
   leak and chaos take the telemetry flags [--trace out.json]
   [--trace-jsonl out.jsonl] [--metrics] [--audit]; run, attest, probe
   and leak take [--check-invariants]; run, probe and leak, which
   retire enclave instructions, take [--slow-sim]. With no subcommand,
   [run] is implied, so [sanctorum_demo --trace t.json] traces the
   counting-enclave demo.
   Each exits 0 clean, 1 on a finding or a refused step, 2 on a usage
   error (README, "Exit codes").
*)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module Tel = Sanctorum_telemetry
module An = Sanctorum_analysis
open Sanctorum_os

type tel_opts = {
  trace : string option;  (* Chrome trace_event JSON *)
  trace_jsonl : string option;
  metrics : bool;
  audit : bool;
}

let write_file file contents =
  match open_out file with
  | oc ->
      output_string oc contents;
      close_out oc
  | exception Sys_error msg ->
      Printf.eprintf "sanctorum_demo: cannot write trace: %s\n" msg;
      exit 1

(* Run [f] with an optional sink; afterwards write/print whatever the
   flags asked for, and return [f]'s result. *)
let with_telemetry opts f =
  let off =
    opts.trace = None && opts.trace_jsonl = None
    && (not opts.metrics) && not opts.audit
  in
  if off then f None
  else begin
    let metrics = Tel.Metrics.create () in
    let sink = Tel.Sink.create ~metrics () in
    let result = f (Some sink) in
    let events = Tel.Sink.events sink in
    (match opts.trace with
    | Some file ->
        write_file file (Tel.Export.chrome_trace ~metrics events);
        Printf.printf "trace: %d events -> %s (chrome://tracing / Perfetto)\n"
          (List.length events) file
    | None -> ());
    (match opts.trace_jsonl with
    | Some file ->
        write_file file (Tel.Export.jsonl events);
        Printf.printf "trace: %d events -> %s (JSON lines)\n"
          (List.length events) file
    | None -> ());
    if Tel.Sink.dropped sink > 0 then
      Printf.printf "trace: ring overflowed; oldest %d events dropped\n"
        (Tel.Sink.dropped sink);
    if opts.metrics then Tel.Export.summary ~events Format.std_formatter metrics;
    if opts.audit then
      Format.printf "%a" Tel.Audit.pp (Tel.Audit.of_events events);
    result
  end

(* A scenario command fails closed: a refused step exits 1, after the
   telemetry the flags asked for is written. *)
let exit_unless ok = if not ok then exit 1

(* --check-invariants: stop at the first API call after which the
   monitor's state breaks an invariant of the catalog. *)
let arm_checker check sm =
  if check then
    S.set_post_api_hook sm
      (Some
         (fun ~api ->
           match An.Checker.snapshot sm with
           | [] -> ()
           | vs ->
               Format.eprintf "invariant violation after %s:@.%a@." api
                 An.Report.pp_list vs;
               exit 1))

(* --slow-sim: force the reference stepped interpreter. Architectural
   results are identical either way (that equivalence is property-
   tested); the flag exists to demonstrate it from the CLI and to time
   the difference. *)
let apply_sim_mode slow tb =
  if slow then Hw.Machine.set_fast_path tb.Testbed.machine false

let hex8 s = Sanctorum_util.Hex.encode (String.sub s 0 8)

let backend_conv =
  Cmdliner.Arg.enum
    [ ("sanctum", Testbed.Sanctum_backend); ("keystone", Testbed.Keystone_backend) ]

let backend_arg =
  Cmdliner.Arg.(
    value
    & opt backend_conv Testbed.Sanctum_backend
    & info [ "backend"; "b" ] ~docv:"BACKEND"
        ~doc:"Isolation backend: $(b,sanctum) or $(b,keystone).")

let exit_prog = Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]

let cmd_boot tel backend =
  with_telemetry tel @@ fun sink ->
  let tb = Testbed.create ~backend ?sink () in
  let sm = tb.Testbed.sm in
  Printf.printf "platform        : %s\n" tb.Testbed.platform.Sanctorum_platform.Platform.name;
  Printf.printf "cores           : %d\n" (Hw.Machine.core_count tb.Testbed.machine);
  Printf.printf "memory          : %d MiB, %d units of %d KiB\n"
    (Hw.Phys_mem.size (Hw.Machine.mem tb.Testbed.machine) / 1024 / 1024)
    (S.memory_units sm)
    (S.memory_unit_bytes sm / 1024);
  Printf.printf "LLC partitioned : %b\n"
    tb.Testbed.platform.Sanctorum_platform.Platform.llc_partitioned;
  Printf.printf "SM measurement  : %s…\n" (hex8 (S.get_field sm S.Field_sm_measurement));
  Printf.printf "SM public key   : %s…\n" (hex8 (S.get_field sm S.Field_public_key));
  Printf.printf "signing enclave : %s… (expected measurement)\n"
    (hex8 (S.get_field sm S.Field_signing_measurement));
  Printf.printf "certificates    : %d bytes\n"
    (String.length (S.get_field sm S.Field_certificates))

let cmd_run tel check slow backend count quantum =
  if count < 1 || quantum < 1 then begin
    Printf.eprintf "sanctorum_demo run: --count and --quantum must be >= 1\n";
    exit 2
  end;
  exit_unless @@ with_telemetry tel @@ fun sink ->
  let tb = Testbed.create ~backend ?sink () in
  arm_checker check tb.Testbed.sm;
  apply_sim_mode slow tb;
  let image = Testbed.counting_image ~evbase:0x10000 ~target:count in
  match Os.install_enclave tb.Testbed.os image with
  | Error e ->
      Printf.printf "install failed: %s\n" (Sanctorum.Api_error.to_string e);
      false
  | Ok inst ->
      let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
      Printf.printf "enclave 0x%x measuring %s… counting to %d (quantum %d)\n"
        eid
        (hex8 (Result.get_ok (S.enclave_measurement tb.Testbed.sm ~eid)))
        count quantum;
      let entries = ref 0 and finished = ref false in
      while (not !finished) && !entries < 100000 do
        incr entries;
        match
          Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:1000000 ~quantum ()
        with
        | Ok Os.Exited -> finished := true
        | Ok Os.Preempted -> ()
        | Ok _ | Error _ -> finished := true
      done;
      let paddrs = Sanctorum_attack.Malicious_os.enclave_paddrs tb.Testbed.os ~eid in
      let data =
        List.nth paddrs (List.length (Sanctorum.Image.required_page_tables image) + 1)
      in
      let counted = Hw.Phys_mem.read_u64 (Hw.Machine.mem tb.Testbed.machine) data in
      Printf.printf "finished after %d entries (%d AEX); counted %Ld\n" !entries
        (!entries - 1) counted;
      counted = Int64.of_int count

let cmd_attest tel check backend =
  exit_unless @@ with_telemetry tel @@ fun sink ->
  let tb = Testbed.create ~backend ?sink () in
  arm_checker check tb.Testbed.sm;
  match Testbed.install_signing_enclave tb with
  | Error e ->
      Printf.printf "signing enclave: %s\n" (Sanctorum.Api_error.to_string e);
      false
  | Ok es -> (
      let target = Sanctorum.Image.of_program ~evbase:0x30000 exit_prog in
      match Os.install_enclave tb.Testbed.os target with
      | Error e ->
          Printf.printf "target: %s\n" (Sanctorum.Api_error.to_string e);
          false
      | Ok t1 ->
          let session =
            Sanctorum.Attestation.run_remote_attestation tb.Testbed.sm
              ~rng:tb.Testbed.rng ~eid:t1.Os.eid ~es_eid:es.Os.eid
              ~expected_measurement:(Sanctorum.Image.measurement target)
          in
          (match session.Sanctorum.Attestation.verdict with
          | Ok () -> Printf.printf "remote attestation: VERIFIED\n"
          | Error m -> Printf.printf "remote attestation: REJECTED (%s)\n" m);
          let agree =
            session.Sanctorum.Attestation.session_key_verifier
            = session.Sanctorum.Attestation.session_key_enclave
          in
          Printf.printf "session keys agree: %b\n" agree;
          Result.is_ok session.Sanctorum.Attestation.verdict && agree)

let cmd_probe tel check slow backend =
  exit_unless @@ with_telemetry tel @@ fun sink ->
  let tb = Testbed.create ~backend ?sink () in
  arm_checker check tb.Testbed.sm;
  apply_sim_mode slow tb;
  let image = Sanctorum.Image.of_program ~evbase:0x10000 exit_prog in
  match Os.install_enclave tb.Testbed.os image with
  | Error e ->
      Printf.printf "install: %s\n" (Sanctorum.Api_error.to_string e);
      false
  | Ok inst ->
      let paddr =
        List.hd (Sanctorum_attack.Malicious_os.enclave_paddrs tb.Testbed.os ~eid:inst.Os.eid)
      in
      let denied = ref true in
      let show label result =
        if result = `Allowed then denied := false;
        Printf.printf "  %-28s %s\n" label
          (match result with `Denied -> "denied" | `Allowed -> "ALLOWED (bug!)")
      in
      Printf.printf "malicious-OS probes against enclave memory at 0x%x:\n" paddr;
      show "load (ISA)"
        (match Sanctorum_attack.Malicious_os.os_load tb.Testbed.os ~core:1 ~paddr with
        | Sanctorum_attack.Malicious_os.Denied -> `Denied
        | Sanctorum_attack.Malicious_os.Leaked _ -> `Allowed);
      show "store (ISA)"
        (match
           Sanctorum_attack.Malicious_os.os_store tb.Testbed.os ~core:1 ~paddr
             ~value:1L
         with
        | `Denied -> `Denied
        | `Stored -> `Allowed);
      show "execute (ISA)"
        (match Sanctorum_attack.Malicious_os.os_execute tb.Testbed.os ~core:1 ~paddr with
        | `Denied -> `Denied
        | `Executed -> `Allowed);
      show "DMA read"
        (match Sanctorum_attack.Malicious_os.dma_read tb.Testbed.os ~paddr ~len:8 with
        | `Denied -> `Denied
        | `Leaked _ -> `Allowed);
      show "DMA write"
        (match Sanctorum_attack.Malicious_os.dma_write tb.Testbed.os ~paddr ~data:"x" with
        | `Denied -> `Denied
        | `Stored -> `Allowed);
      !denied

let cmd_leak tel check slow backend secret =
  exit_unless @@ with_telemetry tel @@ fun sink ->
  let tb =
    Testbed.create ~backend ~l2:Sanctorum_attack.Cache_probe.recommended_l2
      ?sink ()
  in
  arm_checker check tb.Testbed.sm;
  apply_sim_mode slow tb;
  match Sanctorum_attack.Cache_probe.run tb ~secret () with
  | Error m ->
      Printf.printf "error: %s\n" m;
      false
  | Ok o ->
      Format.printf "%a@." Sanctorum_attack.Cache_probe.pp_outcome o;
      Printf.printf "%s\n"
        (if o.Sanctorum_attack.Cache_probe.leaked then
           "the attacker recovered the enclave's secret"
         else "no signal: the LLC partition holds");
      true

(* `sanctorum_demo chaos`: honest workloads under a seeded fault storm;
   non-zero exit on any fail-open evidence or post-recovery finding.
   Every failure reproduces from the command line echoed below. *)
let cmd_chaos tel backend seed faults rounds =
  match Sanctorum_faults.Spec.parse faults with
  | Error msg ->
      Printf.eprintf "sanctorum_demo chaos: --faults %S: %s\n" faults msg;
      exit 2
  | Ok _ when rounds < 1 ->
      Printf.eprintf "sanctorum_demo chaos: --rounds must be >= 1\n";
      exit 2
  | Ok spec ->
      exit_unless @@ with_telemetry tel @@ fun sink ->
      let seed = Int64.of_int seed in
      let r =
        Sanctorum_faults.Chaos.run ~backend ~rounds ?sink ~seed ~spec ()
      in
      Format.printf "%a" Sanctorum_faults.Chaos.pp r;
      let ok = Sanctorum_faults.Chaos.ok r in
      if not ok then
        Printf.printf
          "reproduce with: sanctorum_demo chaos --backend %s --seed %Ld \
           --faults %s --rounds %d\n"
          (Testbed.backend_name backend)
          seed
          (Sanctorum_faults.Spec.to_string spec)
          rounds;
      ok

(* `sanctorum_demo workload`: the closed-loop multicore load generator.
   It owns its telemetry sink (the analyzers consume the trace between
   rounds), so it does not take the shared --trace flags. *)
let cmd_workload backend seed cores enclaves rounds mix fuel quantum
    check_every =
  let module W = Sanctorum_workload.Workload in
  match W.mix_of_string mix with
  | Error msg ->
      Printf.eprintf "sanctorum_demo workload: --mix: %s\n" msg;
      exit 2
  | Ok mix ->
      let cfg =
        {
          W.seed;
          backend;
          cores;
          enclaves;
          rounds;
          mix;
          fuel;
          quantum;
          check_every;
        }
      in
      (* a nonsensical config, or a population the backend cannot hold,
         is a usage error (exit 2), not a dirty run (exit 1) *)
      let usage msg =
        Printf.eprintf "sanctorum_demo workload: %s\n" msg;
        exit 2
      in
      (match W.validate cfg with
      | () -> ()
      | exception Invalid_argument msg -> usage msg);
      let r =
        match W.run cfg with r -> r | exception Failure msg -> usage msg
      in
      Format.printf "%a@." W.pp_report r;
      if r.W.rp_findings <> [] then begin
        Format.printf "%a@." An.Report.pp_list r.W.rp_findings;
        exit 1
      end;
      if not (r.W.rp_drained && r.W.rp_reclaimed) then begin
        Printf.printf "workload: teardown incomplete (drained=%b reclaimed=%b)\n"
          r.W.rp_drained r.W.rp_reclaimed;
        exit 1
      end

(* `sanctorum_demo fleet`: the multi-machine cluster layer — N shards,
   one OCaml domain each, attested join, policy placement, quarantine
   migration. Exit 1 on any dirty shard or unaccounted job. *)
let cmd_fleet backend seed shards cores enclaves jobs target mix policy
    retry_budget batch_rounds faults faulty_shards rogue net_faults net_horizon
    =
  let module Fl = Sanctorum_fleet.Cluster in
  let module W = Sanctorum_workload.Workload in
  let parse_shards what s =
    if s = "" then []
    else
      String.split_on_char ',' s
      |> List.map (fun t ->
             match int_of_string_opt (String.trim t) with
             | Some i when i >= 0 -> i
             | _ ->
                 Printf.eprintf "sanctorum_demo fleet: %s: bad shard id %S\n"
                   what t;
                 exit 2)
  in
  let mix =
    match W.mix_of_string mix with
    | Ok m -> m
    | Error msg ->
        Printf.eprintf "sanctorum_demo fleet: --mix: %s\n" msg;
        exit 2
  in
  let policy =
    match Sanctorum_fleet.Policy.of_string policy with
    | Ok p -> p
    | Error msg ->
        Printf.eprintf "sanctorum_demo fleet: --policy: %s\n" msg;
        exit 2
  in
  let fault_spec =
    if faults = "" then None
    else
      match Sanctorum_faults.Spec.parse faults with
      | Ok s -> Some s
      | Error msg ->
          Printf.eprintf "sanctorum_demo fleet: --faults: %s\n" msg;
          exit 2
  in
  let faulty = parse_shards "--faulty-shards" faulty_shards in
  let faults =
    match fault_spec with
    | None -> []
    | Some spec ->
        let targets = if faulty = [] then List.init shards Fun.id else faulty in
        List.map (fun i -> (i, spec)) targets
  in
  let net =
    match Sanctorum_fleet.Netfault.parse net_faults with
    | Ok spec -> spec
    | Error msg ->
        Printf.eprintf "sanctorum_demo fleet: --net-faults: %s\n" msg;
        exit 2
  in
  let cfg =
    {
      Fl.default with
      Fl.seed;
      backend;
      shards;
      cores;
      enclaves;
      jobs;
      target;
      mix;
      policy;
      retry_budget;
      batch_rounds;
      faults;
      rogue = parse_shards "--rogue" rogue;
      net;
      net_horizon;
    }
  in
  (* bad numeric flags surface as Invalid_argument from the config
     validator: a usage error (exit 2), not a dirty run (exit 1) *)
  (match Fl.validate cfg with
  | () -> ()
  | exception Invalid_argument msg ->
      Printf.eprintf "sanctorum_demo fleet: %s\n" msg;
      exit 2);
  let r = Fl.run cfg in
  Format.printf "%a@." Fl.pp_outcome r;
  if not r.Fl.r_clean then begin
    Printf.printf
      "fleet: dirty run (findings=%d accounted=%b) — failing closed\n"
      r.Fl.r_findings r.Fl.r_accounted;
    exit 1
  end

(* `sanctorum_demo modelcheck`: bounded exhaustive exploration of the
   SM API state space (lib/analysis/modelcheck.mli). Exit 1 on any
   finding, 2 on a bad flag or replay path. *)
let cmd_modelcheck backend depth cores units diff cold inject max_states replay
    =
  let module M = An.Modelcheck in
  let backend =
    match backend with
    | Testbed.Sanctum_backend -> M.Sanctum
    | Testbed.Keystone_backend -> M.Keystone
  in
  let inject =
    match inject with
    | None -> None
    | Some s -> (
        match M.fault_of_string s with
        | Ok f -> Some f
        | Error msg ->
            Printf.eprintf "sanctorum_demo modelcheck: --inject: %s\n" msg;
            exit 2)
  in
  let cfg =
    { M.backend; depth; cores; units; diff; warm = not cold; inject; max_states }
  in
  exit_unless @@
  match replay with
  | Some path_str -> (
      match M.path_of_string path_str with
      | Error msg ->
          Printf.eprintf "sanctorum_demo modelcheck: --replay: %s\n" msg;
          exit 2
      | Ok path -> (
          match M.replay cfg path with
          | exception Invalid_argument msg ->
              Printf.eprintf "sanctorum_demo modelcheck: %s\n" msg;
              exit 2
          | steps, report ->
              Printf.printf "replaying %d actions on %s%s%s:\n"
                (List.length path)
                (M.backend_name backend)
                (if diff then
                   " (diffed against " ^ M.backend_name (M.other_backend backend)
                   ^ ")"
                 else "")
                (if cold then ", cold start" else "");
              List.iter
                (fun st ->
                  match st.M.r_verdict_other with
                  | None ->
                      Printf.printf "  %-24s -> %s\n"
                        (M.action_to_string st.M.r_action)
                        st.M.r_verdict
                  | Some other ->
                      Printf.printf "  %-24s -> %s | %s\n"
                        (M.action_to_string st.M.r_action)
                        st.M.r_verdict other)
                steps;
              if report = [] then Printf.printf "final state: catalog clean\n"
              else begin
                Printf.printf "final state: %d violations\n" (List.length report);
                Format.printf "%a@." An.Report.pp_list report
              end;
              report = []))
  | None -> (
      let t0 = Monotonic_clock.now () in
      match M.explore cfg with
      | exception Invalid_argument msg ->
          Printf.eprintf "sanctorum_demo modelcheck: %s\n" msg;
          exit 2
      | s ->
          (* the one host-dependent line of the summary *)
          let wall = Sanctorum_workload.Engine.seconds_since t0 in
          let ok_edges = s.M.s_states - 1 + s.M.s_dedup_hits in
          Printf.printf
            "modelcheck %s depth=%d cores=%d units=%d%s%s\n\
            \  states    %d%s\n\
            \  edges     %d (%d accepted)\n\
            \  dedup     %d hits (%.1f%% of accepted edges)\n\
            \  digest    %s\n\
            \  wall      %.2f s (%.0f states/s)\n"
            (M.backend_name backend) depth cores units
            (if diff then " --diff" else "")
            (if cold then " --cold" else "")
            s.M.s_states
            (if s.M.s_truncated then " (truncated at --max-states)" else "")
            s.M.s_edges ok_edges s.M.s_dedup_hits
            (if ok_edges = 0 then 0.
             else 100. *. float s.M.s_dedup_hits /. float ok_edges)
            s.M.s_state_digest wall
            (if wall > 0. then float s.M.s_states /. wall else 0.);
          if s.M.s_findings_total = 0 then Printf.printf "no findings\n"
          else begin
            Printf.printf "%d findings%s:\n" s.M.s_findings_total
              (if s.M.s_findings_total > List.length s.M.s_findings then
                 Printf.sprintf " (first %d minimized)"
                   (List.length s.M.s_findings)
               else "");
            List.iter
              (fun f ->
                Printf.printf "  [%s] %s\n    reproduce: %s\n" (M.finding_id f)
                  f.M.f_detail
                  (M.replay_command cfg (M.finding_path f)))
              s.M.s_findings
          end;
          s.M.s_findings_total = 0)

(* `sanctorum_demo check`: run the canonical scenarios on both backends
   with the full analysis harness armed — snapshot pass after every API
   call, lock-discipline and orderliness passes over the recorded trace
   at the end — and fail loudly if anything fires, or if a scenario's
   install or attestation is refused (a scenario that never ran checks
   nothing). Each scenario returns the steps it saw refused. *)
let cmd_check catalog_only =
  Printf.printf "invariant catalog (%d):\n" (List.length An.Checker.catalog);
  List.iter
    (fun (id, descr) -> Printf.printf "  %-16s %s\n" id descr)
    An.Checker.catalog;
  if catalog_only then ()
  else begin
    let failures = ref 0 and refusals = ref 0 in
    let scenario backend name f =
      let sink = Tel.Sink.create ~capacity:(1 lsl 16) () in
      let tb = Testbed.create ~backend ~sink () in
      let sm = tb.Testbed.sm in
      let snap = ref [] in
      S.set_post_api_hook sm
        (Some
           (fun ~api ->
             List.iter
               (fun v -> snap := (api, v) :: !snap)
               (An.Checker.snapshot sm)));
      let refused = f tb in
      S.set_post_api_hook sm None;
      let trace_vs = An.Checker.trace (Tel.Sink.events sink) in
      let n = List.length !snap + List.length trace_vs in
      Printf.printf "  %-8s %-16s %6d API calls  %s\n"
        (Testbed.backend_name backend)
        name
        (List.length
           (List.filter
              (fun e ->
                match e.Tel.Event.payload with
                | Tel.Event.Sm_api _ -> true
                | _ -> false)
              (Tel.Sink.events sink)))
        (match (n, refused) with
        | 0, [] -> "clean"
        | 0, _ -> "REFUSED"
        | n, _ -> Printf.sprintf "%d VIOLATIONS" n);
      failures := !failures + n;
      refusals := !refusals + List.length refused;
      List.iter (Printf.printf "    refused: %s\n") refused;
      List.iter
        (fun (api, v) ->
          Format.printf "    after %s: %a@." api An.Report.pp v)
        (List.rev !snap);
      List.iter (fun v -> Format.printf "    trace: %a@." An.Report.pp v) trace_vs
    in
    let run_scenario tb =
      (* count in a data page with a short quantum so the run crosses
         several preempt / AEX / resume cycles (§V-C) *)
      let image = Testbed.counting_image ~evbase:0x10000 ~target:2000 in
      match Os.install_enclave tb.Testbed.os image with
      | Error e -> [ "install: " ^ Sanctorum.Api_error.to_string e ]
      | Ok inst ->
          let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
          let rec drive budget =
            if budget > 0 then
              match
                Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100000
                  ~quantum:300 ()
              with
              | Ok Os.Preempted -> drive (budget - 1)
              | Ok _ | Error _ -> ()
          in
          drive 50;
          ignore (Os.reclaim_enclave tb.Testbed.os ~eid);
          []
    in
    let attest_scenario tb =
      match Testbed.install_signing_enclave tb with
      | Error e -> [ "signing enclave: " ^ Sanctorum.Api_error.to_string e ]
      | Ok es -> (
          let target = Sanctorum.Image.of_program ~evbase:0x30000 exit_prog in
          match Os.install_enclave tb.Testbed.os target with
          | Error e -> [ "target: " ^ Sanctorum.Api_error.to_string e ]
          | Ok t1 -> (
              match
                (Sanctorum.Attestation.run_remote_attestation tb.Testbed.sm
                   ~rng:tb.Testbed.rng ~eid:t1.Os.eid ~es_eid:es.Os.eid
                   ~expected_measurement:(Sanctorum.Image.measurement target))
                  .Sanctorum.Attestation.verdict
              with
              | Ok () -> []
              | Error m -> [ "attestation: " ^ m ]))
    in
    let churn_scenario tb =
      let image = Sanctorum.Image.of_program ~evbase:0x10000 exit_prog in
      List.concat_map
        (fun _ ->
          match Os.install_enclave tb.Testbed.os image with
          | Error e -> [ "install: " ^ Sanctorum.Api_error.to_string e ]
          | Ok inst ->
              ignore
                (Os.run_enclave tb.Testbed.os ~eid:inst.Os.eid
                   ~tid:(List.hd inst.Os.tids) ~core:0 ~fuel:1000 ());
              ignore (Os.reclaim_enclave tb.Testbed.os ~eid:inst.Os.eid);
              [])
        [ 1; 2; 3 ]
    in
    Printf.printf "\nscenarios (snapshot after every API call + trace passes):\n";
    List.iter
      (fun backend ->
        scenario backend "run+preempt" run_scenario;
        scenario backend "attest" attest_scenario;
        scenario backend "lifecycle-churn" churn_scenario)
      [ Testbed.Sanctum_backend; Testbed.Keystone_backend ];
    if !failures = 0 && !refusals = 0 then
      Printf.printf "all scenarios clean\n"
    else begin
      Printf.printf "%d violations, %d refused steps\n" !failures !refusals;
      exit 1
    end
  end

open Cmdliner

let tel_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a full event trace and write it to $(docv) in Chrome \
             trace_event format (open in chrome://tracing or Perfetto).")
  in
  let trace_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE"
          ~doc:"Write the event trace to $(docv) as JSON lines.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the metrics summary (cache/TLB hit rates, per-API call \
             counts, latency histogram) after the command.")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:"Print the SM audit log: every API decision, accepted or \
                rejected.")
  in
  let mk trace trace_jsonl metrics audit = { trace; trace_jsonl; metrics; audit } in
  Term.(const mk $ trace $ trace_jsonl $ metrics $ audit)

let check_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Run the $(b,Sanctorum_analysis) snapshot checker after every \
           monitor API call and abort (exit 1) on the first violation.")

let slow_sim_arg =
  Arg.(
    value & flag
    & info [ "slow-sim" ]
        ~doc:
          "Disable the simulator's superblock tier and run the reference \
           stepped interpreter. Architecturally identical (the \
           equivalence is property-tested); useful for timing comparisons \
           and for ruling the fast path out when debugging.")

let boot_cmd =
  Cmd.v (Cmd.info "boot" ~doc:"Boot the stack and print the monitor's identity.")
    Term.(const cmd_boot $ tel_term $ backend_arg)

let run_term =
  let count =
    Arg.(value & opt int 5000 & info [ "count"; "n" ] ~doc:"Loop iterations (>= 1).")
  in
  let quantum =
    Arg.(
      value & opt int 2000
      & info [ "quantum"; "q" ] ~doc:"Preemption quantum in cycles (>= 1).")
  in
  Term.(
    const cmd_run $ tel_term $ check_arg $ slow_sim_arg $ backend_arg $ count
    $ quantum)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a preemptible counting enclave to completion.")
    run_term

let attest_cmd =
  Cmd.v (Cmd.info "attest" ~doc:"Full remote attestation (paper Fig. 7).")
    Term.(const cmd_attest $ tel_term $ check_arg $ backend_arg)

let probe_cmd =
  Cmd.v (Cmd.info "probe" ~doc:"Malicious-OS probes against enclave memory.")
    Term.(const cmd_probe $ tel_term $ check_arg $ slow_sim_arg $ backend_arg)

let check_cmd =
  let catalog_only =
    Arg.(
      value & flag
      & info [ "catalog" ] ~doc:"Only print the invariant catalog and exit.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run every invariant of the analysis catalog over the canonical \
          scenarios on both backends; non-zero exit on any violation.")
    Term.(const cmd_check $ catalog_only)

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Fault-schedule seed. The same seed, spec, backend and rounds \
             always reproduce the same schedule and outcome.")
  in
  let faults =
    Arg.(
      value & opt string "all"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated fault classes, each optionally $(b,:count) — \
             $(b,bitflip), $(b,bitflip2), $(b,irq-drop), $(b,spurious-irq), \
             $(b,ipi-drop), $(b,dma), $(b,mce), or $(b,all). Example: \
             $(b,bitflip:3,mce:1).")
  in
  let rounds =
    Arg.(
      value & opt int 5
      & info [ "rounds" ] ~docv:"R" ~doc:"Honest workload rounds to drive.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Drive honest enclave workloads under a seeded, deterministic fault \
          storm; fail (exit 1) on any fail-open evidence or any invariant \
          finding left after recovery.")
    Term.(const cmd_chaos $ tel_term $ backend_arg $ seed $ faults $ rounds)

let workload_cmd =
  let backend =
    Arg.(
      value
      & opt backend_conv Testbed.Keystone_backend
      & info [ "backend"; "b" ] ~docv:"BACKEND"
          ~doc:
            "Isolation backend: $(b,sanctum) or $(b,keystone). Defaults to \
             keystone — its 4 KiB allocation units are what a many-enclave \
             population needs; sanctum's region-sized units cap the enclave \
             count at a handful.")
  in
  let seed =
    Arg.(
      value & opt string "workload"
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Determinism seed: the schedule and every architectural outcome \
             are a pure function of (seed, backend, cores, enclaves, rounds, \
             mix).")
  in
  let cores =
    Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"Core count.")
  in
  let enclaves =
    Arg.(
      value & opt int 64
      & info [ "enclaves" ] ~docv:"M" ~doc:"Concurrent enclave population.")
  in
  let rounds =
    Arg.(
      value & opt int 1000
      & info [ "rounds" ] ~docv:"R" ~doc:"Scheduler rounds to drive.")
  in
  let mix =
    Arg.(
      value & opt string "compute"
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Traffic mix: $(b,compute), $(b,ipc), $(b,paging) or $(b,churn).")
  in
  let fuel =
    Arg.(
      value & opt int 2000
      & info [ "fuel" ] ~docv:"F" ~doc:"Per-quantum fuel budget (instructions).")
  in
  let quantum =
    Arg.(
      value & opt int 500
      & info [ "quantum" ] ~docv:"Q" ~doc:"Preemption quantum (cycles).")
  in
  let check_every =
    Arg.(
      value & opt int 16
      & info [ "check-every" ] ~docv:"K"
          ~doc:
            "Run the invariant checker and trace analyzers every $(docv) \
             rounds (0 = only at the end).")
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Closed-loop multicore enclave load generator: M enclaves round-robin \
          scheduled over N cores through create/enter, preempt/resume, mailbox \
          IPC, self-paging and churn, with the analysis passes watching; exit 1 \
          on any finding or on incomplete reclamation.")
    Term.(
      const cmd_workload $ backend $ seed $ cores $ enclaves $ rounds $ mix
      $ fuel $ quantum $ check_every)

let fleet_cmd =
  let backend =
    Arg.(
      value
      & opt backend_conv Testbed.Keystone_backend
      & info [ "backend"; "b" ] ~docv:"BACKEND"
          ~doc:"Isolation backend: $(b,sanctum) or $(b,keystone).")
  in
  let seed =
    Arg.(
      value & opt string "fleet"
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Determinism seed: shard machines, job streams, placement and \
             attestation nonces all derive from it.")
  in
  let shards =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Independent machine shards (one OCaml domain each).")
  in
  let cores =
    Arg.(
      value & opt int 4
      & info [ "cores" ] ~docv:"C" ~doc:"Simulated cores per shard.")
  in
  let enclaves =
    Arg.(
      value & opt int 12
      & info [ "enclaves" ] ~docv:"M"
          ~doc:"Per-shard enclave capacity (PMP sizing and batch cap).")
  in
  let jobs =
    Arg.(
      value & opt int 24
      & info [ "jobs" ] ~docv:"J" ~doc:"Total jobs across the fleet.")
  in
  let target =
    Arg.(
      value & opt int 4
      & info [ "target" ] ~docv:"T"
          ~doc:"Exits per job member before the job completes.")
  in
  let mix =
    Arg.(
      value & opt string "compute"
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Traffic mix: $(b,compute), $(b,ipc), $(b,paging) or $(b,churn).")
  in
  let policy =
    Arg.(
      value & opt string "round-robin"
      & info [ "policy" ] ~docv:"P"
          ~doc:
            "Placement policy: $(b,round-robin), $(b,least-loaded) or \
             $(b,affinity).")
  in
  let retry_budget =
    Arg.(
      value & opt int 3
      & info [ "retry-budget" ] ~docv:"B"
          ~doc:
            "Re-placements (migrations + retries) allowed per job before it \
             is failed closed.")
  in
  let batch_rounds =
    Arg.(
      value & opt int 600
      & info [ "batch-rounds" ] ~docv:"R"
          ~doc:"Per-shard scheduler-round cap per generation.")
  in
  let faults =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Fault spec armed on the faulty shards, e.g. $(b,mce:1) or \
             $(b,bitflip:3,ipi-drop:2) (see $(b,chaos)).")
  in
  let faulty_shards =
    Arg.(
      value & opt string ""
      & info [ "faulty-shards" ] ~docv:"IDS"
          ~doc:
            "Comma-separated shard ids the fault spec applies to (default: \
             all shards, when --faults is given).")
  in
  let rogue =
    Arg.(
      value & opt string ""
      & info [ "rogue" ] ~docv:"IDS"
          ~doc:
            "Comma-separated shard ids presenting corrupted attestation \
             evidence; they are refused membership and never receive a job.")
  in
  let net_faults =
    Arg.(
      value & opt string ""
      & info [ "net-faults" ] ~docv:"SPEC"
          ~doc:
            "Link-fault spec armed (independently seeded) on both directions \
             of every cluster<->node link: comma-separated $(b,class:count) \
             terms over $(b,drop), $(b,dup), $(b,corrupt), $(b,delay), \
             $(b,reorder), $(b,part), plus explicit partitions \
             $(b,part@START+LEN) in control-plane ticks and \
             $(b,part@gGEN+LEN) from the placement of job generation GEN; \
             $(b,all) is a preset. Corrupted traffic must be caught by the \
             per-node HMAC; lost traffic by retransmit; a partitioned node \
             is fenced, its jobs migrate, and it rejoins only via \
             re-attestation + rekey.")
  in
  let net_horizon =
    Arg.(
      value & opt int 48
      & info [ "net-horizon" ] ~docv:"N"
          ~doc:"Send-index window the per-message link faults land in.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Multi-machine cluster: N independent Machine+SM+OS shards (one \
          OCaml domain each) behind an attested join protocol, a seeded load \
          balancer, and a reliable session layer over a (optionally hostile) \
          link, with quarantine-driven job migration; exit 1 on any dirty \
          shard or unaccounted job, 2 on a bad flag.")
    Term.(
      const cmd_fleet $ backend $ seed $ shards $ cores $ enclaves $ jobs
      $ target $ mix $ policy $ retry_budget $ batch_rounds $ faults
      $ faulty_shards $ rogue $ net_faults $ net_horizon)

let leak_cmd =
  let secret =
    Arg.(value & opt int 5 & info [ "secret"; "s" ] ~doc:"Victim secret, 0-7.")
  in
  Cmd.v (Cmd.info "leak" ~doc:"Prime+probe cache attack against a victim enclave.")
    Term.(
      const cmd_leak $ tel_term $ check_arg $ slow_sim_arg $ backend_arg
      $ secret)

let modelcheck_cmd =
  let depth =
    Arg.(
      value & opt int 4
      & info [ "depth" ] ~docv:"K"
          ~doc:"Exploration depth bound (API calls past the initial state).")
  in
  let cores =
    Arg.(
      value & opt int 1
      & info [ "cores" ] ~docv:"N" ~doc:"Cores in the model geometry (1-2).")
  in
  let units =
    Arg.(
      value & opt int 2
      & info [ "units" ] ~docv:"U"
          ~doc:"Memory-unit groups exposed to actions (1-4).")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Run the same action sequences on the other backend in lockstep \
             and report any accept/reject divergence as a finding.")
  in
  let cold =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Explore from raw boot instead of boot + the canonical bring-up \
             scenario (see the DESIGN.md section on exhaustive checking).")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:
            "Arm a seeded fault as an extra action: $(b,owner-map:U), \
             $(b,keystone-owner-map:U) (Keystone's world only), \
             $(b,lifecycle:E), $(b,thread:T:C) or $(b,meta). The explorer \
             must reach it and the catalog must convict it.")
  in
  let max_states =
    Arg.(
      value & opt int 200_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Stop after discovering $(docv) deduplicated states.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "Skip exploration: apply this comma-separated action sequence \
             (as printed in a finding's reproduce line), print each verdict \
             and the final catalog report.")
  in
  Cmd.v
    (Cmd.info "modelcheck"
       ~doc:
         "Bounded exhaustive exploration of the SM API state space on a \
          small-geometry machine: every action at every reachable state up \
          to --depth, with canonical-hash deduplication, the full analysis \
          catalog at every new state, optional cross-backend differential \
          checking, and delta-debugged replayable counterexamples; exit 1 \
          on any finding, 2 on usage errors.")
    Term.(
      const cmd_modelcheck $ backend_arg $ depth $ cores $ units $ diff $ cold
      $ inject $ max_states $ replay)

(* One exit-code convention across every subcommand: 0 clean, 1 any
   finding or failed check, 2 usage errors (bad flag, bad spec, bad
   replay path). Cmdliner maps parse errors to its own 124 by default,
   so the mapping to 2 is done here. *)
let () =
  let doc = "drive the Sanctorum security-monitor reproduction" in
  let cmd =
    Cmd.group ~default:run_term
      (Cmd.info "sanctorum_demo" ~doc)
      [
        boot_cmd; run_cmd; attest_cmd; probe_cmd; leak_cmd; check_cmd;
        chaos_cmd; workload_cmd; fleet_cmd; modelcheck_cmd;
      ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
