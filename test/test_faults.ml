(* The fault-injection engine and the monitor's fail-closed recovery:
   every fault class has a deterministic reproduction, a negative test
   proving the recovery path actually fires, and a post-recovery
   invariant sweep that must come back empty. Failure messages always
   carry the seed that reproduces the run. *)

module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module F = Sanctorum_faults
module An = Sanctorum_analysis
module Tel = Sanctorum_telemetry
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small preemptible workload: count to [target] in the data page. *)
let evbase = 0x10000
let target = 400

let counting_image =
  let counter = evbase + 4096 in
  Sanctorum.Image.of_program ~evbase ~data_pages:1
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
      @ [ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ])

let install tb =
  match Os.install_enclave tb.Testbed.os counting_image with
  | Ok i -> i
  | Error e ->
      Alcotest.failf "install (testbed seed %S): %s" tb.Testbed.seed
        (Sanctorum.Api_error.to_string e)

(* Physical address of the frame backing [vaddr] in the enclave. *)
let frame_of tb ~eid ~vaddr =
  match
    List.assoc_opt (vaddr / 4096) (S.enclave_mappings tb.Testbed.sm ~eid)
  with
  | Some ppn -> Hw.Phys_mem.page_base ppn
  | None -> Alcotest.failf "vaddr 0x%x not mapped in enclave 0x%x" vaddr eid

let findings_clean ~ctx tb =
  match An.Checker.run_all tb.Testbed.sm with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s (testbed seed %S): %s" ctx tb.Testbed.seed
        (String.concat "; " (List.map (fun v -> v.An.Report.id) vs))

(* ------------------------------------------------------------------ *)
(* ECC: detect-and-correct semantics of the DRAM fault model. *)

let test_ecc_single_corrected () =
  let tb = Testbed.create () in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let paddr = Hw.Phys_mem.size mem - 4096 in
  Hw.Phys_mem.write_u64 mem paddr 0xDEAD_BEEFL;
  Hw.Phys_mem.inject_bit_flip mem ~paddr ~bit:13;
  check_int "one word pending" 1 (Hw.Phys_mem.pending_faults mem);
  check_bool "stored bytes are corrupted" true
    (Hw.Phys_mem.read_u64 mem paddr <> 0xDEAD_BEEFL);
  (* an architectural access (device DMA into untrusted memory) runs
     through the controller's ECC and sees the pristine value *)
  (match Hw.Machine.dma_read tb.Testbed.machine ~paddr ~len:8 with
  | Error c ->
      Alcotest.failf "dma_read faulted: %s"
        (Hw.Trap.cause_label (Hw.Trap.Exception c))
  | Ok s ->
      check_bool "corrected value" true (String.get_int64_le s 0 = 0xDEAD_BEEFL));
  check_int "corrected counter" 1 (Hw.Phys_mem.corrected_count mem);
  check_int "nothing pending" 0 (Hw.Phys_mem.pending_faults mem)

let test_ecc_double_machine_check () =
  let tb = Testbed.create () in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let paddr = Hw.Phys_mem.size mem - 4096 in
  Hw.Phys_mem.inject_bit_flip mem ~paddr ~bit:3;
  Hw.Phys_mem.inject_bit_flip mem ~paddr ~bit:44;
  (* contained: the access returns a typed machine check, no exception
     escapes, and the device never sees the poisoned data *)
  (match Hw.Machine.dma_read tb.Testbed.machine ~paddr ~len:8 with
  | Ok _ -> Alcotest.fail "uncorrectable word served to a device"
  | Error (Hw.Trap.Machine_check at) -> check_int "faulting word" paddr at
  | Error c ->
      Alcotest.failf "expected machine check, got %s"
        (Hw.Trap.cause_label (Hw.Trap.Exception c)));
  check_int "uncorrectable counter" 1 (Hw.Phys_mem.uncorrectable_count mem);
  (* a full-word store rewrites the check bits and absorbs the fault *)
  Hw.Phys_mem.write_u64 mem paddr 7L;
  check_int "store cleared the fault" 0 (Hw.Phys_mem.pending_faults mem);
  check_bool "stored value readable" true (Hw.Phys_mem.read_u64 mem paddr = 7L)

let test_ecc_patrol_scrub () =
  let tb = Testbed.create () in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let inst = install tb in
  let eid = inst.Os.eid in
  let code = frame_of tb ~eid ~vaddr:evbase in
  (* one correctable fault in untrusted memory, one uncorrectable in
     the enclave's own code page *)
  Hw.Phys_mem.inject_bit_flip mem ~paddr:(Hw.Phys_mem.size mem - 64) ~bit:5;
  Hw.Phys_mem.inject_bit_flip mem ~paddr:code ~bit:1;
  Hw.Phys_mem.inject_bit_flip mem ~paddr:code ~bit:2;
  let corrected, retired = S.patrol_scrub tb.Testbed.sm in
  check_int "patrol corrected the single-bit word" 1 corrected;
  check_int "patrol retired the double-bit word" 1 retired;
  check_bool "poisoned enclave reclaimed" false
    (List.mem eid (S.enclaves tb.Testbed.sm));
  check_int "memory clean" 0 (Hw.Phys_mem.pending_faults mem);
  findings_clean ~ctx:"after patrol scrub" tb

(* ------------------------------------------------------------------ *)
(* One negative test per fault class: the fault fires, the workload
   fails closed, and the monitor's recovery leaves zero findings. *)

let outcome_or_error = function
  | Ok o -> (
      match (o : Os.run_outcome) with
      | Os.Exited -> "Exited"
      | Os.Preempted -> "Preempted"
      | Os.Faulted _ -> "Faulted"
      | Os.Fuel_exhausted -> "Fuel_exhausted"
      | Os.Killed -> "Killed")
  | Error e -> Sanctorum.Api_error.to_string e

let test_bitflip2_kills_enclave () =
  let tb = Testbed.create () in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let inst = install tb in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  let code = frame_of tb ~eid ~vaddr:evbase in
  Hw.Phys_mem.inject_bit_flip mem ~paddr:code ~bit:7;
  Hw.Phys_mem.inject_bit_flip mem ~paddr:code ~bit:8;
  (match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:10000 () with
  | Ok Os.Killed -> ()
  | r -> Alcotest.failf "expected Killed, got %s" (outcome_or_error r));
  check_bool "core 0 quarantined" true
    (Hw.Machine.core tb.Testbed.machine 0).Hw.Machine.quarantined;
  check_bool "enclave emergency-reclaimed" false
    (List.mem eid (S.enclaves tb.Testbed.sm));
  check_bool "poisoned word retired" true (Hw.Phys_mem.pending_faults mem = 0);
  findings_clean ~ctx:"after uncorrectable fetch" tb

let test_mce_mid_run () =
  let tb = Testbed.create () in
  let inst = install tb in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  let inj =
    F.Injector.create ~horizon:1 ~machine:tb.Testbed.machine ~seed:11L
      ~spec:[ { F.Spec.cls = F.Spec.Core_check; count = 1 } ]
      ()
  in
  F.Injector.arm inj;
  let r = Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:10000 () in
  F.Injector.disarm inj;
  (match r with
  | Ok Os.Killed -> ()
  | r -> Alcotest.failf "expected Killed, got %s" (outcome_or_error r));
  check_int "one fault injected" 1 (F.Injector.stats inj).F.Injector.injected;
  check_bool "enclave reclaimed with its core" false
    (List.mem eid (S.enclaves tb.Testbed.sm));
  findings_clean ~ctx:"after mid-run machine check" tb

let test_irq_drop_recovery () =
  let tb = Testbed.create () in
  let inst = install tb in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  let inj =
    F.Injector.create ~horizon:1 ~machine:tb.Testbed.machine ~seed:12L
      ~spec:[ { F.Spec.cls = F.Spec.Irq_drop; count = 1 } ]
      ()
  in
  F.Injector.arm inj;
  (* quantum 500 with fuel 800: the dropped tick means no AEX, so the
     fuel budget expires with the thread still running *)
  (match
     Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:800 ~quantum:500 ()
   with
  | Ok Os.Fuel_exhausted -> ()
  | r ->
      Alcotest.failf "expected Fuel_exhausted after lost tick, got %s"
        (outcome_or_error r));
  check_int "the tick was dropped" 1
    (F.Injector.stats inj).F.Injector.irqs_dropped;
  (* recovery: re-arm the quantum without re-entering; the next tick is
     delivered and the workload completes *)
  let rec settle budget =
    if budget = 0 then Alcotest.fail "did not settle after recovery"
    else
      match
        Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:20000 ~quantum:500
          ()
      with
      | Ok Os.Exited -> ()
      | Ok Os.Preempted -> resume budget
      | r -> Alcotest.failf "recovery run: %s" (outcome_or_error r)
  and resume budget =
    match
      Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:20000
        ~quantum:500 ()
    with
    | Ok Os.Exited -> ()
    | Ok Os.Preempted -> resume (budget - 1)
    | r -> Alcotest.failf "resume: %s" (outcome_or_error r)
  in
  settle 50;
  F.Injector.disarm inj;
  let counter = frame_of tb ~eid ~vaddr:(evbase + 4096) in
  check_bool "counted to target despite the lost tick" true
    (Hw.Phys_mem.read_u64 (Hw.Machine.mem tb.Testbed.machine) counter
    = Int64.of_int target);
  findings_clean ~ctx:"after lost-tick recovery" tb

(* The scheduler's half of lost-tick recovery. A slot that ends in
   [Fuel_exhausted] leaves its thread Running on that core, so the
   scheduler pins it there: the next round continues it on the same
   core without a fresh entry, no other core gets it meanwhile, and the
   job still runs to its exit. The first job exits before any timer
   fires, so the dropped tick is the counting job's on core 1, and in
   the next round core 0 has nothing queued: only the pin keeps it off
   the Running thread. *)
let test_irq_drop_scheduler_pin () =
  let sink = Tel.Sink.create () in
  let tb = Testbed.create ~cores:2 ~sink () in
  let sched = Os.Scheduler.create tb.Testbed.os ~cores:[ 0; 1 ] in
  let exits =
    Sanctorum.Image.of_program ~evbase
      Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  List.iter
    (fun (inst : Os.installed) ->
      Os.Scheduler.enqueue sched ~eid:inst.Os.eid ~tid:(List.hd inst.Os.tids))
    [ Result.get_ok (Os.install_enclave tb.Testbed.os exits); install tb ];
  let inj =
    F.Injector.create ~horizon:1 ~machine:tb.Testbed.machine ~seed:12L
      ~spec:[ { F.Spec.cls = F.Spec.Irq_drop; count = 1 } ]
      ()
  in
  F.Injector.arm inj;
  let round () =
    Tel.Sink.clear sink;
    Os.Scheduler.round sched ~fuel:800 ~quantum:500
  in
  let slot_of tid slots =
    List.find_opt (fun s -> s.Os.Scheduler.s_tid = tid) slots
  in
  let rec until_pinned budget =
    if budget = 0 then Alcotest.fail "no slot lost its tick"
    else
      match
        List.find_opt
          (fun s -> s.Os.Scheduler.s_outcome = Ok Os.Fuel_exhausted)
          (round ())
      with
      | Some s -> (s.Os.Scheduler.s_core, s.Os.Scheduler.s_tid)
      | None -> until_pinned (budget - 1)
  in
  let core, tid = until_pinned 10 in
  check_int "the counting job lost its tick" 1 core;
  check_int "the tick was dropped" 1
    (F.Injector.stats inj).F.Injector.irqs_dropped;
  let slots = round () in
  (match slot_of tid slots with
  | Some s -> check_int "continued on its own core" core s.Os.Scheduler.s_core
  | None -> Alcotest.fail "pinned thread did not run next round");
  check_bool "no other core ran the pinned thread" true
    (List.for_all
       (fun s -> s.Os.Scheduler.s_tid <> tid || s.Os.Scheduler.s_core = core)
       slots);
  check_bool "continued without a fresh entry" false
    (List.exists
       (fun (e : Tel.Event.t) ->
         match e.Tel.Event.payload with
         | Tel.Event.Enclave_entered { tid = t; _ } -> t = tid
         | _ -> false)
       (Tel.Sink.events sink));
  (* a job can take several slots of one round once it is back in the
     queue *)
  let rec until_exit budget =
    if budget = 0 then Alcotest.fail "pinned job never exited"
    else
      let outcomes =
        List.filter_map
          (fun s ->
            if s.Os.Scheduler.s_tid = tid then Some s.Os.Scheduler.s_outcome
            else None)
          (round ())
      in
      List.iter
        (function
          | Ok (Os.Exited | Os.Preempted | Os.Fuel_exhausted) -> ()
          | r -> Alcotest.failf "pinned job: %s" (outcome_or_error r))
        outcomes;
      if not (List.mem (Ok Os.Exited) outcomes) then until_exit (budget - 1)
  in
  until_exit 50;
  F.Injector.disarm inj;
  findings_clean ~ctx:"after scheduler lost-tick recovery" tb

let test_spurious_irq_only_preempts () =
  let tb = Testbed.create () in
  let inst = install tb in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  let inj =
    F.Injector.create ~horizon:1 ~machine:tb.Testbed.machine ~seed:13L
      ~spec:[ { F.Spec.cls = F.Spec.Spurious_irq; count = 1 } ]
      ()
  in
  F.Injector.arm inj;
  (* no quantum armed, so the only interrupt is the spurious one: the
     enclave takes an AEX it never asked for — and nothing worse *)
  (match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:20000 () with
  | Ok Os.Preempted -> ()
  | r ->
      Alcotest.failf "expected Preempted by spurious irq, got %s"
        (outcome_or_error r));
  F.Injector.disarm inj;
  (match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:20000 () with
  | Ok Os.Exited -> ()
  | r -> Alcotest.failf "resume after spurious AEX: %s" (outcome_or_error r));
  let counter = frame_of tb ~eid ~vaddr:(evbase + 4096) in
  check_bool "result survives the spurious AEX" true
    (Hw.Phys_mem.read_u64 (Hw.Machine.mem tb.Testbed.machine) counter
    = Int64.of_int target);
  findings_clean ~ctx:"after spurious interrupt" tb

let test_ipi_drop_retry_then_quarantine () =
  let sink = Tel.Sink.create () in
  let tb = Testbed.create ~sink () in
  let machine = tb.Testbed.machine in
  (* core 1 never acknowledges; core 2 loses only the first attempt *)
  Hw.Machine.set_fault_hooks machine
    (Some
       {
         Hw.Machine.tick = (fun ~core:_ ~cycles:_ -> ());
         irq_gate = (fun ~core:_ ~irq:_ -> true);
         drop_shootdown_ipi =
           (fun ~target_core ~attempt ->
             target_core = 1 || (target_core = 2 && attempt = 1));
       });
  Hw.Machine.tlb_shootdown machine ~reason:"test-shootdown";
  Hw.Machine.set_fault_hooks machine None;
  check_bool "silent core quarantined" true
    (Hw.Machine.core machine 1).Hw.Machine.quarantined;
  check_bool "retried core survived" false
    (Hw.Machine.core machine 2).Hw.Machine.quarantined;
  check_bool "other cores untouched" false
    (Hw.Machine.core machine 0).Hw.Machine.quarantined;
  let retries =
    List.length
      (List.filter
         (fun e ->
           match e.Tel.Event.payload with
           | Tel.Event.Shootdown_retry _ -> true
           | _ -> false)
         (Tel.Sink.events sink))
  in
  check_int "retries recorded" (Hw.Machine.shootdown_max_attempts + 1) retries;
  (* the quarantined core satisfies the fencing invariant and is exempt
     from the residue checks it can no longer violate *)
  findings_clean ~ctx:"after shootdown timeout" tb

let test_dma_misfire_denied () =
  let tb = Testbed.create () in
  let inst = install tb in
  let enclave_page = frame_of tb ~eid:inst.Os.eid ~vaddr:evbase in
  (match Hw.Machine.dma_write tb.Testbed.machine ~paddr:enclave_page "devi" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "misfired DMA wrote into enclave memory");
  let untrusted = Hw.Phys_mem.size (Hw.Machine.mem tb.Testbed.machine) - 4096 in
  (match Hw.Machine.dma_write tb.Testbed.machine ~paddr:untrusted "devi" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "DMA into plain untrusted memory denied");
  findings_clean ~ctx:"after DMA misfire" tb

(* ------------------------------------------------------------------ *)
(* Determinism: the schedule and the whole chaos outcome are pure
   functions of (seed, spec, geometry). *)

let all_spec = List.map (fun cls -> { F.Spec.cls; count = 2 }) F.Spec.all_classes

let test_schedule_deterministic () =
  let mk seed =
    let tb = Testbed.create () in
    F.Injector.schedule
      (F.Injector.create ~machine:tb.Testbed.machine ~seed ~spec:all_spec ())
  in
  check_bool "same seed, same schedule" true (mk 42L = mk 42L);
  check_bool "different seed, different schedule" false (mk 42L = mk 43L)

let test_chaos_deterministic () =
  let run () =
    let r = F.Chaos.run ~rounds:3 ~seed:42L ~spec:all_spec () in
    ( r.F.Chaos.completed,
      r.F.Chaos.failed_closed,
      r.F.Chaos.incidents,
      r.F.Chaos.stats,
      r.F.Chaos.fail_open,
      List.map (fun v -> v.An.Report.id) r.F.Chaos.findings )
  in
  check_bool "same seed, same chaos outcome" true (run () = run ())

(* The post-storm gate reads the run's own trace: an illegal event in
   the sink handed to the run is a finding, and so are events the ring
   overwrote before the trace passes read them. *)
let test_chaos_reads_trace () =
  let ids r = List.map (fun v -> v.An.Report.id) r.F.Chaos.findings in
  let sink = Tel.Sink.create () in
  Tel.Sink.emit sink ~core:0 ~cycles:0
    (Tel.Event.Enclave_entered { eid = 0x7777; tid = 0; target_core = 0 });
  let r = F.Chaos.run ~rounds:5 ~sink ~seed:7L ~spec:all_spec () in
  Alcotest.(check (list string)) "planted enter flagged" [ "order.enter" ] (ids r);
  check_bool "planted enter fails the run" false (F.Chaos.ok r);
  let small = Tel.Sink.create ~capacity:16 () in
  let r = F.Chaos.run ~rounds:1 ~sink:small ~seed:7L ~spec:[] () in
  check_bool "lost events flagged" true (List.mem "trace.lost" (ids r));
  check_bool "lost events fail the run" false (F.Chaos.ok r)

let test_spec_roundtrip () =
  (match F.Spec.parse "bitflip:3,mce,ipi-drop:2" with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check string) "round-trips" "bitflip:3,mce,ipi-drop:2"
        (F.Spec.to_string s);
      check_int "total" 6 (F.Spec.total s));
  (match F.Spec.parse "all" with
  | Error m -> Alcotest.fail m
  | Ok s -> check_int "all = one per class" (List.length F.Spec.all_classes)
              (F.Spec.total s));
  check_bool "junk rejected" true (Result.is_error (F.Spec.parse "warp-core"))

let test_testbed_seed_exposed () =
  let tb = Testbed.create () in
  Alcotest.(check string) "default seed" "testbed" tb.Testbed.seed;
  let tb2 = Testbed.create ~seed:"repro-417" () in
  Alcotest.(check string) "custom seed stored" "repro-417" tb2.Testbed.seed

(* ------------------------------------------------------------------ *)
(* The adversarial property: random API storms interleaved with
   injected hardware faults never raise — every failure surfaces as a
   typed Api_error (or a typed hardware fault), and after one patrol
   pass the invariant catalog is silent again. *)

type fault_op =
  | Flip of int * int (* word selector, bit *)
  | Flip2 of int * int
  | Mce of int (* core *)
  | Shootdown
  | Spurious of int (* core *)
  | Dma of int (* word selector *)
  | Patrol

type storm_op = Api of Test_fuzz.op | Hw_fault of fault_op

let storm_gen =
  let open QCheck2.Gen in
  let fault =
    oneof
      [
        map2 (fun w b -> Flip (w, b)) (int_range 0 511) (int_range 0 63);
        map2 (fun w b -> Flip2 (w, b)) (int_range 0 511) (int_range 0 62);
        map (fun c -> Mce c) (int_range 0 3);
        return Shootdown;
        map (fun c -> Spurious c) (int_range 0 3);
        map (fun w -> Dma w) (int_range 0 511);
        return Patrol;
      ]
  in
  frequency
    [ (4, map (fun o -> Api o) Test_fuzz.op_gen); (1, map (fun f -> Hw_fault f) fault) ]

let apply_fault tb op =
  let machine = tb.Testbed.machine in
  let mem = Hw.Machine.mem machine in
  (* spread the flips over the whole address space deterministically *)
  let word_at w = w * (Hw.Phys_mem.size mem / 512) / 8 * 8 in
  match op with
  | Flip (w, bit) -> Hw.Phys_mem.inject_bit_flip mem ~paddr:(word_at w) ~bit
  | Flip2 (w, bit) ->
      Hw.Phys_mem.inject_bit_flip mem ~paddr:(word_at w) ~bit;
      Hw.Phys_mem.inject_bit_flip mem ~paddr:(word_at w) ~bit:(bit + 1)
  | Mce core -> Hw.Machine.raise_machine_check machine ~core ~paddr:(-1)
  | Shootdown -> Hw.Machine.tlb_shootdown machine ~reason:"storm"
  | Spurious core -> Hw.Machine.post_interrupt machine ~core Hw.Trap.Software
  | Dma w -> (
      match Hw.Machine.dma_write machine ~paddr:(word_at w) "storm!!!" with
      | Ok () | Error _ -> ())
  | Patrol -> ignore (S.patrol_scrub tb.Testbed.sm)

let storm_property backend =
  QCheck2.Test.make
    ~name:
      ("storm: API calls under faults never raise ("
      ^ Testbed.backend_name backend ^ ")")
    ~count:40
    QCheck2.Gen.(list_size (int_range 1 60) storm_gen)
    (fun ops ->
      let tb = Testbed.create ~backend () in
      List.iter
        (fun op ->
          match op with
          | Api o -> (
              (* every outcome of an API call is a typed result; an
                 escaping exception fails the property *)
              match Test_fuzz.apply tb o with
              | () -> ()
              | exception exn ->
                  failwith
                    (Printf.sprintf "API raised %s (testbed seed %S)"
                       (Printexc.to_string exn) tb.Testbed.seed))
          | Hw_fault f -> (
              match apply_fault tb f with
              | () -> ()
              | exception exn ->
                  failwith
                    (Printf.sprintf "fault delivery raised %s (testbed seed %S)"
                       (Printexc.to_string exn) tb.Testbed.seed)))
        ops;
      (* recovery converges: one patrol pass, then a silent catalog *)
      ignore (S.patrol_scrub tb.Testbed.sm);
      match An.Checker.snapshot tb.Testbed.sm with
      | [] -> true
      | vs ->
          failwith
            (String.concat "; " (List.map (fun v -> v.An.Report.id) vs)))

(* ------------------------------------------------------------------ *)
(* End-to-end chaos: each fault class alone, then the full storm, on
   both backends, with fixed seeds. *)

let chaos_case backend cls =
  let seed = Int64.of_int (1000 + Hashtbl.hash (F.Spec.class_name cls) mod 97) in
  Alcotest.test_case
    (Printf.sprintf "chaos: %s (%s)" (F.Spec.class_name cls)
       (Testbed.backend_name backend))
    `Quick
    (fun () ->
      let r =
        F.Chaos.run ~backend ~rounds:3 ~seed ~spec:[ { F.Spec.cls; count = 2 } ] ()
      in
      if not (F.Chaos.ok r) then
        Alcotest.failf "chaos failed open:@.%a" F.Chaos.pp r)

let chaos_storm backend =
  Alcotest.test_case
    (Printf.sprintf "chaos: full storm (%s)" (Testbed.backend_name backend))
    `Quick
    (fun () ->
      let r = F.Chaos.run ~backend ~rounds:5 ~seed:7L ~spec:all_spec () in
      if not (F.Chaos.ok r) then
        Alcotest.failf "chaos failed open:@.%a" F.Chaos.pp r;
      check_bool "faults actually fired" true
        (r.F.Chaos.stats.F.Injector.injected > 0))

let suite =
  ( "faults",
    [
      Alcotest.test_case "ecc: single-bit corrected and counted" `Quick
        test_ecc_single_corrected;
      Alcotest.test_case "ecc: double-bit is a contained machine check" `Quick
        test_ecc_double_machine_check;
      Alcotest.test_case "ecc: patrol scrub corrects and retires" `Quick
        test_ecc_patrol_scrub;
      Alcotest.test_case "bitflip2: uncorrectable fetch fails closed" `Quick
        test_bitflip2_kills_enclave;
      Alcotest.test_case "mce: core death mid-run is contained" `Quick
        test_mce_mid_run;
      Alcotest.test_case "irq-drop: lost tick recovered by run_enclave"
        `Quick test_irq_drop_recovery;
      Alcotest.test_case "irq-drop: scheduler pins the thread to its core"
        `Quick test_irq_drop_scheduler_pin;
      Alcotest.test_case "spurious-irq: unsolicited AEX, nothing worse" `Quick
        test_spurious_irq_only_preempts;
      Alcotest.test_case "ipi-drop: retry then quarantine" `Quick
        test_ipi_drop_retry_then_quarantine;
      Alcotest.test_case "dma: misfire into enclave memory denied" `Quick
        test_dma_misfire_denied;
      Alcotest.test_case "determinism: schedule is seed-pure" `Quick
        test_schedule_deterministic;
      Alcotest.test_case "determinism: chaos outcome is seed-pure" `Quick
        test_chaos_deterministic;
      Alcotest.test_case "chaos: the trace passes read the run's events" `Quick
        test_chaos_reads_trace;
      Alcotest.test_case "spec: parse/print round-trip" `Quick
        test_spec_roundtrip;
      Alcotest.test_case "testbed: rng seed exposed for repro" `Quick
        test_testbed_seed_exposed;
      QCheck_alcotest.to_alcotest (storm_property Testbed.Sanctum_backend);
      QCheck_alcotest.to_alcotest (storm_property Testbed.Keystone_backend);
    ]
    @ List.concat_map
        (fun backend ->
          List.map (chaos_case backend) F.Spec.all_classes
          @ [ chaos_storm backend ])
        [ Testbed.Sanctum_backend; Testbed.Keystone_backend ] )
