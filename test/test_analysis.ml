(* The analysis layer (DESIGN.md invariant catalog): every cataloged
   invariant must (a) stay silent on honest executions and (b) fire
   when the one protection it encodes is broken. Each negative test
   injects exactly one fault — via the Testbed or Sm fault hooks, which
   bypass the API surface — and asserts the expected id appears. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module A = Sanctorum_analysis
module Tel = Sanctorum_telemetry
open Sanctorum_os

let check_bool = Alcotest.(check bool)

let ids vs = List.sort_uniq compare (List.map (fun v -> v.A.Report.id) vs)

let fires id vs =
  if not (List.mem id (ids vs)) then
    Alcotest.failf "expected %s among [%s]" id (String.concat "; " (ids vs))

let silent vs =
  if vs <> [] then
    Alcotest.failf "expected no violations, got [%s]"
      (String.concat "; " (ids vs))

(* A small enclave with two private data mappings (so the aliasing test
   has two leaves to point at each other), installed and run to exit. *)
let installed_run ?sink ?(backend = Testbed.Sanctum_backend) () =
  let tb = Testbed.create ~backend ?sink () in
  let image =
    Sanctorum.Image.of_program ~evbase:0x10000 ~data_pages:1
      Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  match Os.install_enclave tb.Testbed.os image with
  | Error e -> Alcotest.failf "install: %s" (Sanctorum.Api_error.to_string e)
  | Ok inst -> (
      match
        Os.run_enclave tb.Testbed.os ~eid:inst.Os.eid
          ~tid:(List.hd inst.Os.tids) ~core:0 ~fuel:1000 ()
      with
      | Ok Os.Exited -> (tb, inst)
      | _ -> Alcotest.fail "enclave did not exit")

(* ------------------------------------------------------------------ *)
(* Honest paths: zero findings. *)

let test_honest_snapshot backend () =
  let tb, _ = installed_run ~backend () in
  silent (A.Checker.snapshot tb.Testbed.sm)

let test_honest_trace () =
  let sink = Tel.Sink.create () in
  let tb, _ = installed_run ~sink () in
  let events = Tel.Sink.events sink in
  check_bool "trace recorded" true (events <> []);
  check_bool "lock events recorded" true
    (List.exists
       (fun e ->
         match e.Tel.Event.payload with
         | Tel.Event.Lock_acquired _ -> true
         | _ -> false)
       events);
  silent (A.Checker.run_all ~events tb.Testbed.sm)

(* ------------------------------------------------------------------ *)
(* Snapshot invariants: one injected fault each. *)

(* The exact report, for the checks whose subjects and details are
   formatted only when they fire. *)
let pinned ~id ~subject ~detail vs =
  let report (r : A.Report.violation) = (r.id, r.subject, r.detail) in
  Alcotest.(check (list (triple string string string)))
    (id ^ " report") [ (id, subject, detail) ] (List.map report vs)

let test_own_exclusive () =
  let tb, inst = installed_run () in
  silent (A.Checker.snapshot tb.Testbed.sm);
  Testbed.corrupt_owner_map tb
    ~rid:(S.memory_units tb.Testbed.sm - 1);
  pinned ~id:"own.exclusive" ~subject:"unit 63"
    ~detail:
      "resource map says untrusted but hardware owner at 0xfc0000 is \
       domain:77"
    (A.Checker.snapshot tb.Testbed.sm);
  ignore inst

let test_own_sm_reserved () =
  let tb, _ = installed_run () in
  S.corrupt_resource_owner tb.Testbed.sm ~rid:0 Hw.Trap.domain_untrusted;
  fires "own.sm-reserved" (A.Checker.snapshot tb.Testbed.sm)

let test_pt_confined () =
  let tb, inst = installed_run () in
  Testbed.corrupt_page_table tb ~eid:inst.Os.eid;
  pinned ~id:"pt.confined" ~subject:"enclave 0x10000"
    ~detail:"evrange mapping 0x10000 -> frame 0x0 lies in sm memory"
    (A.Checker.snapshot tb.Testbed.sm)

(* The last slot of a level-0 table is the last word the checker's
   table scan reads: point it at monitor memory (frame 0), outside
   evrange, so it reads as a shared window into the monitor. *)
let test_pt_confined_last_slot backend () =
  let tb, inst = installed_run ~backend () in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let pte table idx =
    Hw.Phys_mem.page_base table + (idx * Hw.Page_table.pte_size)
  in
  let root, vpn =
    match S.enclave_info tb.Testbed.sm ~eid:inst.Os.eid with
    | Some { S.i_root_ppn = Some root; i_mappings = (vpn, _) :: _; _ } ->
        (root, vpn)
    | Some _ | None -> Alcotest.fail "enclave has no mapping"
  in
  let rec level0 table level =
    if level = 0 then table
    else
      let idx = (vpn lsr (9 * level)) land 511 in
      let entry = Hw.Phys_mem.read_u64 mem (pte table idx) in
      match Hw.Page_table.decode_pte entry with
      | Ok (child, _, false) -> level0 child (level - 1)
      | Ok _ | Error () -> Alcotest.fail "no level-0 table"
  in
  let table = level0 root (Hw.Page_table.levels - 1) in
  silent (A.Checker.snapshot tb.Testbed.sm);
  Hw.Phys_mem.write_u64 mem (pte table 511)
    (Hw.Page_table.encode_pte ~ppn:0
       ~perms:{ Hw.Page_table.r = true; w = true; x = false; u = true }
       ~valid:true);
  pinned ~id:"pt.confined" ~subject:"enclave 0x10000"
    ~detail:"shared-window mapping 0x1ff000 -> frame 0x0 lies in sm memory"
    (A.Checker.snapshot tb.Testbed.sm)

let test_pt_no_alias () =
  let tb, inst = installed_run () in
  Testbed.alias_page_table tb ~eid:inst.Os.eid;
  fires "pt.no-alias" (A.Checker.snapshot tb.Testbed.sm)

let test_tlb_no_stale () =
  let tb, inst = installed_run () in
  Testbed.skip_flush tb ~eid:inst.Os.eid;
  let vs = A.Checker.snapshot tb.Testbed.sm in
  fires "tlb.no-stale" vs;
  fires "cache.no-residue" vs

let test_l2_residue () =
  let tb, _ = installed_run () in
  (* a line tagged with monitor memory in the shared L2 *)
  ignore (Hw.Cache.access (Hw.Machine.l2 tb.Testbed.machine) ~paddr:0);
  fires "cache.no-residue" (A.Checker.snapshot tb.Testbed.sm)

let test_enclave_lifecycle () =
  let tb, inst = installed_run () in
  S.corrupt_enclave_lifecycle tb.Testbed.sm ~eid:inst.Os.eid;
  fires "enclave.lifecycle" (A.Checker.snapshot tb.Testbed.sm)

let test_thread_lifecycle () =
  let tb, inst = installed_run () in
  S.corrupt_thread_phase tb.Testbed.sm ~tid:(List.hd inst.Os.tids) ~core:0;
  pinned ~id:"thread.lifecycle" ~subject:"thread 0x10800"
    ~detail:"running on core 0 whose domain is untrusted, not enclave:0x10000"
    (A.Checker.snapshot tb.Testbed.sm)

let test_core_domain () =
  let tb, _ = installed_run () in
  Testbed.corrupt_core_domain tb ~core:1;
  fires "core.domain" (A.Checker.snapshot tb.Testbed.sm)

let test_meta_slots () =
  let tb, _ = installed_run () in
  S.corrupt_metadata_slot tb.Testbed.sm;
  pinned ~id:"meta.slots" ~subject:"slot 0x80000"
    ~detail:
      "slot [0x80000, 0x80010) escapes the metadata window [0x10000, \
       0x80000)"
    (A.Checker.snapshot tb.Testbed.sm)

let test_lock_quiescent () =
  let tb, inst = installed_run () in
  Testbed.leak_lock tb ~eid:inst.Os.eid;
  fires "lock.quiescent" (A.Checker.snapshot tb.Testbed.sm)

(* ------------------------------------------------------------------ *)
(* Trace passes over synthetic event streams. *)

let trace payloads =
  List.mapi
    (fun i p -> { Tel.Event.seq = i; core = -1; cycles = i; payload = p })
    payloads

let api name =
  Tel.Event.Sm_api
    { api = name; caller = Tel.Event.Os; outcome = Tel.Event.Accepted; latency = 1 }

let acq l = Tel.Event.Lock_acquired { lock = l }
let rel l = Tel.Event.Lock_released { lock = l }
let res = Tel.Event.Resource_lock
let enc eid = Tel.Event.Enclave_lock eid
let thr tid = Tel.Event.Thread_lock tid

let test_lock_leak () =
  (* held across an API return *)
  fires "lock.leak"
    (A.Lockcheck.check (trace [ acq (enc 1); api "init_enclave" ]));
  (* released while not held *)
  fires "lock.leak" (A.Lockcheck.check (trace [ rel (enc 1) ]));
  (* still held when the trace ends *)
  fires "lock.leak" (A.Lockcheck.check (trace [ acq res ]));
  (* the balanced discipline is clean *)
  silent
    (A.Lockcheck.check
       (trace [ acq res; rel res; api "grant_resource" ]))

let test_lock_guard () =
  fires "lock.guard"
    (A.Lockcheck.check
       (trace
          [ Tel.Event.Guarded_write { lock = enc 1; field = "phase" } ]));
  silent
    (A.Lockcheck.check
       (trace
          [
            acq (enc 1);
            Tel.Event.Guarded_write { lock = enc 1; field = "phase" };
            rel (enc 1);
          ]))

let test_lock_order () =
  (* resource-then-enclave and enclave-then-resource in one trace: a
     class-order cycle (§V-A deadlock risk) *)
  fires "lock.order"
    (A.Lockcheck.check
       (trace
          [
            acq res;
            acq (enc 1);
            rel (enc 1);
            rel res;
            acq (enc 2);
            acq res;
            rel res;
            rel (enc 2);
          ]));
  (* a consistent order is clean *)
  silent
    (A.Lockcheck.check
       (trace
          [
            acq res;
            acq (enc 1);
            acq (thr 9);
            rel (thr 9);
            rel (enc 1);
            rel res;
          ]))

let created e = Tel.Event.Enclave_created { eid = e }
let inited e = Tel.Event.Enclave_initialized { eid = e }

let entered e =
  Tel.Event.Enclave_entered { eid = e; tid = 1; target_core = 0 }

let exited ?(aex = false) e = Tel.Event.Enclave_exited { eid = e; aex }

let destroyed e = Tel.Event.Enclave_destroyed { eid = e }

let grant rid =
  Tel.Event.Region_granted { kind = "memory"; rid; owner = Tel.Event.Os }

let freed rid = Tel.Event.Region_freed { kind = "memory"; rid }

let read_aex =
  Tel.Event.Sm_api
    {
      api = "read_aex_state";
      caller = Tel.Event.Enclave 1;
      outcome = Tel.Event.Accepted;
      latency = 1;
    }

let sent r = Tel.Event.Mailbox_sent { sender = Tel.Event.Os; recipient = r }
let received r = Tel.Event.Mailbox_received { recipient = r; sender = Tel.Event.Os }

(* Every orderliness trace below, by test: the id it must fire, or
   [None] for a legal sequence that must stay silent. *)
let order_cases =
  [
    ("lifecycle", Some "order.create", [ created 1; created 1 ]);
    ("lifecycle", Some "order.init", [ inited 1 ]);
    ("lifecycle", Some "order.init", [ created 1; inited 1; inited 1 ]);
    ("lifecycle", Some "order.enter", [ created 1; entered 1 ]);
    ("lifecycle", Some "order.exit", [ exited 1 ]);
    ( "lifecycle",
      Some "order.destroy",
      [ created 1; inited 1; entered 1; destroyed 1 ] );
    ( "lifecycle",
      None,
      [ created 1; inited 1; entered 1; exited 1; destroyed 1 ] );
    ("grant", Some "order.grant", [ grant 4; grant 4 ]);
    ("grant", None, [ grant 4; freed 4; grant 4 ]);
    ("aex", Some "order.aex-resume", [ created 1; inited 1; read_aex ]);
    ( "aex",
      None,
      [ created 1; inited 1; entered 1; exited ~aex:true 1; read_aex ] );
    ("mailbox", Some "order.mailbox", [ received 1 ]);
    ("mailbox", None, [ sent 1; received 1 ]);
  ]

let test_order group () =
  List.iter
    (fun (g, expect, payloads) ->
      if g = group then
        let vs = A.Orderlint.check (trace payloads) in
        match expect with Some id -> fires id vs | None -> silent vs)
    order_cases

(* A recorded honest churn run (creates, enters, exits, destroys and
   reinstalls), taken whole before the engine's final checkpoint. *)
let honest_run_trace =
  lazy
    (let cfg =
       {
         Sanctorum_workload.Workload.default with
         seed = "orderlint-stream";
         backend = Testbed.Sanctum_backend;
         cores = 2;
         enclaves = 4;
         mix = Sanctorum_workload.Workload.Churn;
         check_every = 0;
       }
     in
     let module E = Sanctorum_workload.Engine in
     let eng = E.create cfg in
     for jid = 0 to cfg.enclaves - 1 do
       E.submit eng ~jid ~seed:(Int64.of_int (jid + 1)) ~target:None
     done;
     for _ = 1 to 24 do
       ignore (E.step eng)
     done;
     Tel.Sink.events (S.sink (E.testbed eng).Testbed.sm))

let is_enter (e : Tel.Event.t) =
  match e.payload with Tel.Event.Enclave_entered _ -> true | _ -> false

let test_honest_run_trace () =
  let events = Lazy.force honest_run_trace in
  check_bool "trace has enters" true (List.exists is_enter events);
  check_bool "trace has destroys" true
    (List.exists
       (fun (e : Tel.Event.t) ->
         match e.payload with
         | Tel.Event.Enclave_destroyed _ -> true
         | _ -> false)
       events);
  silent (A.Orderlint.check events)

(* Cut [events] at [cuts] (positions taken modulo the trace length + 1;
   empty windows allowed) and at the first enter, so an enclave's
   create and its first enter always land in different windows. *)
let windows events cuts =
  let a = Array.of_list events in
  let n = Array.length a in
  let first_enter =
    let rec find i = if i >= n || is_enter a.(i) then i else find (i + 1) in
    find 0
  in
  let bounds =
    List.sort_uniq compare
      (0 :: n :: first_enter :: List.map (fun c -> c mod (n + 1)) cuts)
  in
  let rec go = function
    | lo :: (hi :: _ as rest) ->
        Array.to_list (Array.sub a lo (hi - lo)) :: go rest
    | [ _ ] | [] -> []
  in
  go bounds

let qcheck_order_streaming =
  QCheck2.Test.make ~name:"orderlint: window-by-window feed = whole check"
    ~count:200
    QCheck2.Gen.(
      pair
        (int_range 0 (List.length order_cases))
        (list_size (int_range 0 12) (int_range 0 100_000)))
    (fun (i, cuts) ->
      let events =
        if i = List.length order_cases then Lazy.force honest_run_trace
        else
          let _, _, payloads = List.nth order_cases i in
          trace payloads
      in
      let st = A.Orderlint.create () in
      List.iter (A.Orderlint.feed st) (windows events cuts);
      A.Orderlint.findings st = A.Orderlint.check events)

(* ------------------------------------------------------------------ *)
(* The attack model: a subverted isolation primitive leaks to the OS
   probe AND the checker reports the divergence (detection, §IV). *)

let test_relax_protections () =
  let tb, inst = installed_run () in
  let os = tb.Testbed.os in
  let paddr =
    match Sanctorum_attack.Malicious_os.enclave_paddrs os ~eid:inst.Os.eid with
    | p :: _ -> p
    | [] -> Alcotest.fail "enclave owns no memory"
  in
  (match Sanctorum_attack.Malicious_os.os_load os ~core:1 ~paddr with
  | Sanctorum_attack.Malicious_os.Denied -> ()
  | Leaked _ -> Alcotest.fail "honest hardware leaked");
  silent (A.Checker.snapshot tb.Testbed.sm);
  check_bool "relaxed" true
    (Sanctorum_attack.Malicious_os.relax_protections os ~eid:inst.Os.eid);
  (match Sanctorum_attack.Malicious_os.os_load os ~core:1 ~paddr with
  | Sanctorum_attack.Malicious_os.Leaked _ -> ()
  | Denied -> Alcotest.fail "relaxed hardware still denies");
  fires "own.exclusive" (A.Checker.snapshot tb.Testbed.sm)

(* Every id a negative test exercises is cataloged, and vice versa all
   cataloged ids have a description. *)
let test_catalog () =
  List.iter
    (fun (id, descr) ->
      check_bool (id ^ " described") true (String.length descr > 0))
    A.Checker.catalog;
  let cataloged id = List.mem_assoc id A.Checker.catalog in
  List.iter
    (fun id -> check_bool (id ^ " cataloged") true (cataloged id))
    [
      "own.exclusive"; "own.sm-reserved"; "pt.confined"; "pt.no-alias";
      "tlb.no-stale"; "cache.no-residue"; "enclave.lifecycle";
      "thread.lifecycle"; "core.domain"; "meta.slots"; "lock.quiescent";
      "lock.leak"; "lock.guard"; "lock.order"; "order.create"; "order.init";
      "order.enter"; "order.exit"; "order.destroy"; "order.grant";
      "order.aex-resume"; "order.mailbox";
    ]

let suite =
  ( "analysis",
    [
      Alcotest.test_case "honest snapshot is silent (sanctum)" `Quick
        (test_honest_snapshot Testbed.Sanctum_backend);
      Alcotest.test_case "honest snapshot is silent (keystone)" `Quick
        (test_honest_snapshot Testbed.Keystone_backend);
      Alcotest.test_case "honest trace is silent" `Quick test_honest_trace;
      Alcotest.test_case "own.exclusive fires" `Quick test_own_exclusive;
      Alcotest.test_case "own.sm-reserved fires" `Quick test_own_sm_reserved;
      Alcotest.test_case "pt.confined fires" `Quick test_pt_confined;
      Alcotest.test_case "pt.confined fires on slot 511 (sanctum)" `Quick
        (test_pt_confined_last_slot Testbed.Sanctum_backend);
      Alcotest.test_case "pt.confined fires on slot 511 (keystone)" `Quick
        (test_pt_confined_last_slot Testbed.Keystone_backend);
      Alcotest.test_case "pt.no-alias fires" `Quick test_pt_no_alias;
      Alcotest.test_case "tlb.no-stale + cache.no-residue fire" `Quick
        test_tlb_no_stale;
      Alcotest.test_case "cache.no-residue fires on L2" `Quick test_l2_residue;
      Alcotest.test_case "enclave.lifecycle fires" `Quick
        test_enclave_lifecycle;
      Alcotest.test_case "thread.lifecycle fires" `Quick test_thread_lifecycle;
      Alcotest.test_case "core.domain fires" `Quick test_core_domain;
      Alcotest.test_case "meta.slots fires" `Quick test_meta_slots;
      Alcotest.test_case "lock.quiescent fires" `Quick test_lock_quiescent;
      Alcotest.test_case "lock.leak fires" `Quick test_lock_leak;
      Alcotest.test_case "lock.guard fires" `Quick test_lock_guard;
      Alcotest.test_case "lock.order fires" `Quick test_lock_order;
      Alcotest.test_case "order.* lifecycle lints fire" `Quick
        (test_order "lifecycle");
      Alcotest.test_case "order.grant fires" `Quick (test_order "grant");
      Alcotest.test_case "order.aex-resume fires" `Quick (test_order "aex");
      Alcotest.test_case "order.mailbox fires" `Quick (test_order "mailbox");
      Alcotest.test_case "honest workload trace is orderly" `Quick
        test_honest_run_trace;
      QCheck_alcotest.to_alcotest qcheck_order_streaming;
      Alcotest.test_case "relaxed protections are detected" `Quick
        test_relax_protections;
      Alcotest.test_case "catalog covers every id" `Quick test_catalog;
    ] )
