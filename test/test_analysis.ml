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

let report (r : A.Report.violation) = (r.id, r.subject, r.detail)

(* The exact report, for the checks whose subjects and details are
   formatted only when they fire. *)
let pinned ~id ~subject ~detail vs =
  Alcotest.(check (list (triple string string string)))
    (id ^ " report") [ (id, subject, detail) ] (List.map report vs)

(* The snapshot pass twice over: [snapshot ()] is a fresh pass's report,
   after checking that a memo warmed on the state before the fault
   reports exactly the same. Without this no negative test would reach
   a warm memo: [Checker.snapshot] starts a fresh one on every call. *)
let warm_snapshot tb =
  let memo = A.Invariants.memo () in
  silent (A.Invariants.check memo tb.Testbed.sm);
  fun () ->
    let fresh = A.Checker.snapshot tb.Testbed.sm in
    Alcotest.(check (list (triple string string string)))
      "warm memo = fresh pass" (List.map report fresh)
      (List.map report (A.Invariants.check memo tb.Testbed.sm));
    fresh

let pte_addr table idx =
  Hw.Phys_mem.page_base table + (idx * Hw.Page_table.pte_size)

(* The table frames on the path of [vpn] from [root], root first, as
   far as the path leads through valid pointers inside DRAM. *)
let path_tables mem ~root ~vpn =
  let frames = Hw.Phys_mem.size mem / Hw.Phys_mem.page_size in
  let rec go table level acc =
    let acc = table :: acc in
    if level = 0 then List.rev acc
    else
      let idx = (vpn lsr (9 * level)) land 511 in
      let entry = Hw.Phys_mem.read_u64 mem (pte_addr table idx) in
      match Hw.Page_table.decode_pte entry with
      | Ok (child, _, false) when child < frames -> go child (level - 1) acc
      | Ok _ | Error () -> List.rev acc
  in
  go root (Hw.Page_table.levels - 1) []

(* The root and level-0 table of the enclave's first mapping. *)
let root_and_level0 tb ~eid =
  match
    (S.enclave_info tb.Testbed.sm ~eid, S.enclave_mappings tb.Testbed.sm ~eid)
  with
  | Some { S.i_root_ppn = Some root; _ }, (vpn, _) :: _ -> (
      match path_tables (Hw.Machine.mem tb.Testbed.machine) ~root ~vpn with
      | [ _; _; level0 ] -> (root, level0)
      | _ -> Alcotest.fail "no level-0 table")
  | _ -> Alcotest.fail "enclave has no mapping"

let test_own_exclusive () =
  let tb, _ = installed_run () in
  let snapshot = warm_snapshot tb in
  Testbed.corrupt_owner_map tb
    ~rid:(S.memory_units tb.Testbed.sm - 1);
  pinned ~id:"own.exclusive" ~subject:"unit 63"
    ~detail:
      "resource map says untrusted but hardware owner at 0xfc0000 is \
       domain:77"
    (snapshot ())

let test_own_sm_reserved () =
  let tb, _ = installed_run () in
  S.corrupt_resource_owner tb.Testbed.sm ~rid:0 Hw.Trap.domain_untrusted;
  fires "own.sm-reserved" (A.Checker.snapshot tb.Testbed.sm)

let test_pt_confined () =
  let tb, inst = installed_run () in
  let snapshot = warm_snapshot tb in
  Testbed.corrupt_page_table tb ~eid:inst.Os.eid;
  pinned ~id:"pt.confined" ~subject:"enclave 0x10000"
    ~detail:"evrange mapping 0x10000 -> frame 0x0 lies in sm memory"
    (snapshot ())

(* The last slot of a level-0 table is the last word the checker's
   table scan reads: point it at monitor memory (frame 0), outside
   evrange, so it reads as a shared window into the monitor. *)
let test_pt_confined_last_slot backend () =
  let tb, inst = installed_run ~backend () in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let _, table = root_and_level0 tb ~eid:inst.Os.eid in
  let snapshot = warm_snapshot tb in
  Hw.Phys_mem.write_u64 mem (pte_addr table 511)
    (Hw.Page_table.encode_pte ~ppn:0
       ~perms:{ Hw.Page_table.r = true; w = true; x = false; u = true }
       ~valid:true);
  pinned ~id:"pt.confined" ~subject:"enclave 0x10000"
    ~detail:"shared-window mapping 0x1ff000 -> frame 0x0 lies in sm memory"
    (snapshot ())

(* A flipped bit 50 moves a valid entry's frame number past the end of
   DRAM. The hardware walk reads such an entry as an invalid mapping;
   the checker reports it as pt.confined, naming the table, the index
   and the frame, and does not follow it. *)
let test_pt_beyond_dram backend ~leaf () =
  let tb, inst = installed_run ~backend () in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let root, level0 = root_and_level0 tb ~eid:inst.Os.eid in
  let table = if leaf then level0 else root in
  let idx =
    let rec first i =
      if Hw.Phys_mem.read_u64 mem (pte_addr table i) <> 0L then i
      else first (i + 1)
    in
    first 0
  in
  let child =
    let entry = Hw.Phys_mem.read_u64 mem (pte_addr table idx) in
    match Hw.Page_table.decode_pte entry with
    | Ok (child, _, is_leaf) when is_leaf = leaf -> child
    | Ok _ | Error () -> Alcotest.fail "unexpected first entry"
  in
  let snapshot = warm_snapshot tb in
  Hw.Phys_mem.inject_bit_flip mem ~paddr:(pte_addr table idx) ~bit:50;
  pinned ~id:"pt.confined" ~subject:"enclave 0x10000"
    ~detail:
      (Printf.sprintf "%s at table 0x%x index %d names frame 0x%x beyond DRAM"
         (if leaf then "leaf" else "pointer")
         (Hw.Phys_mem.page_base table) idx
         (Hw.Phys_mem.page_base (child lor (1 lsl 40))))
    (snapshot ())

let test_pt_no_alias () =
  let tb, inst = installed_run () in
  let snapshot = warm_snapshot tb in
  Testbed.alias_page_table tb ~eid:inst.Os.eid;
  fires "pt.no-alias" (snapshot ())

let test_tlb_no_stale () =
  let tb, inst = installed_run () in
  Testbed.skip_flush tb ~eid:inst.Os.eid;
  let vs = A.Checker.snapshot tb.Testbed.sm in
  fires "tlb.no-stale" vs;
  fires "cache.no-residue" vs

let test_l2_residue () =
  let tb, _ = installed_run () in
  (* a line tagged with monitor memory in the shared L2 *)
  ignore (Hw.Cache.access_hit (Hw.Machine.l2 tb.Testbed.machine) ~paddr:0);
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

(* Thread, enclave, resource under one API call; then resource, thread,
   enclave under the next. *)
let three_class_inversion =
  [
    acq (thr 3);
    acq (enc 1);
    acq res;
    rel res;
    rel (enc 1);
    rel (thr 3);
    acq res;
    acq (thr 4);
    acq (enc 2);
    rel (enc 2);
    rel (thr 4);
    rel res;
  ]

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
          ]));
  (* three classes taken in two orders: every edge is on a cycle, and
     the findings follow the class-edge table's iteration order *)
  let inverted n ~outer ~inner seq ~established =
    ( "lock.order",
      n,
      Printf.sprintf
        "acquired %s while holding %s (event #%d), inverting the established \
         %s order"
        inner outer seq established )
  in
  Alcotest.(check (list (triple string string string)))
    "lock.order reports"
    [
      inverted "resource -> thread" ~outer:"resource" ~inner:"thread:0x4" 7
        ~established:"thread -> resource";
      inverted "thread -> resource" ~outer:"thread:0x3" ~inner:"resource" 2
        ~established:"resource -> thread";
      inverted "resource -> enclave" ~outer:"resource" ~inner:"enclave:0x2" 8
        ~established:"enclave -> resource";
      inverted "enclave -> resource" ~outer:"enclave:0x1" ~inner:"resource" 2
        ~established:"resource -> enclave";
      inverted "thread -> enclave" ~outer:"thread:0x3" ~inner:"enclave:0x1" 1
        ~established:"enclave -> thread";
    ]
    (List.map report (A.Lockcheck.check (trace three_class_inversion)))

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

(* One enclave entered on cores 0 and 1; one core exits and the other
   takes a machine check, which abandons the thread still inside it. In
   either order the destroy that follows is orderly: an exit releases
   the core its event names, not whichever core the enclave is on. *)
let test_exit_releases_its_core () =
  let on core payload = (core, payload) in
  let enter c =
    Tel.Event.Enclave_entered { eid = 1; tid = 1 + c; target_core = c }
  in
  List.iter
    (fun (exits, checked) ->
      [
        on (-1) (created 1);
        on (-1) (inited 1);
        on 0 (enter 0);
        on 1 (enter 1);
        on exits (exited 1);
        on checked (Tel.Event.Machine_check { paddr = 0x80000 });
        on (-1) (destroyed 1);
      ]
      |> List.mapi (fun i (core, payload) ->
             { Tel.Event.seq = i; core; cycles = i; payload })
      |> A.Orderlint.check |> silent)
    [ (0, 1); (1, 0) ]

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

(* The lock pass holds its locks in an array stack; the reference in
   test/oracle holds them in a list, as the pass once did. Random takes,
   releases in any order, guarded writes and API returns over five
   locks of all three classes must bring the same findings, in the same
   order. *)
let qcheck_lock_stack =
  let locks = [| res; enc 1; enc 2; thr 1; thr 2 |] in
  QCheck2.Test.make ~name:"lockcheck: held-lock stack = list reference"
    ~count:500
    ~print:(fun evs ->
      String.concat "; "
        (List.map (fun (e : Tel.Event.t) -> Tel.Event.label e.payload) evs))
    QCheck2.Gen.(
      map trace
        (list_size (int_range 0 40)
           (let lock = map (Array.get locks) (int_bound 4) in
            frequency
              [
                (4, map acq lock);
                (4, map rel lock);
                ( 2,
                  map
                    (fun l -> Tel.Event.Guarded_write { lock = l; field = "f" })
                    lock );
                (1, return (api "call"));
              ])))
    (fun evs ->
      List.map report (A.Lockcheck.check evs)
      = List.map report (Sanctorum_oracle.Lockcheck_ref.check evs))

(* The lint keys its tables on ints and keeps a pending AEX as a flag
   of the live enclave; the reference in test/oracle keeps polymorphic
   tables, as the lint once did. Random traces of lifecycle, grant,
   AEX-resume, mailbox, machine-check and quarantine events over three
   eids, four envelope cores (-1 for host context), two resource kinds
   and four rids must bring the same findings, in the same order. *)
let qcheck_orderlint_ints =
  let open QCheck2.Gen in
  let eid = int_range 1 3 and core = int_range (-1) 2 and rid = int_range 0 3 in
  let kind = oneofl [ "memory"; "core" ] in
  let enter e c =
    Tel.Event.Enclave_entered { eid = e; tid = 1; target_core = c }
  in
  let exit e aex = Tel.Event.Enclave_exited { eid = e; aex } in
  let granted k r =
    Tel.Event.Region_granted { kind = k; rid = r; owner = Tel.Event.Os }
  in
  let freed k r = Tel.Event.Region_freed { kind = k; rid = r } in
  let read_aex caller ok =
    let outcome = if ok then Tel.Event.Accepted else Tel.Event.Rejected "x" in
    Tel.Event.Sm_api { api = "read_aex_state"; caller; outcome; latency = 1 }
  in
  let caller =
    oneof [ return Tel.Event.Os; map (fun e -> Tel.Event.Enclave e) eid ]
  in
  let quarantined c =
    Tel.Event.Core_quarantined { core = c; reason = "machine-check" }
  in
  let payload =
    frequency
      [
        (3, map created eid);
        (2, map inited eid);
        (3, map2 enter eid (int_range 0 2));
        (3, map2 exit eid bool);
        (2, map destroyed eid);
        (2, map2 granted kind rid);
        (2, map2 freed kind rid);
        (2, map2 read_aex caller bool);
        (2, map sent eid);
        (2, map received eid);
        (1, return (Tel.Event.Machine_check { paddr = -1 }));
        (1, map quarantined (int_range 0 2));
      ]
  in
  QCheck2.Test.make ~name:"orderlint: int tables = polymorphic reference"
    ~count:500
    ~print:(fun evs ->
      String.concat "; "
        (List.map
           (fun (e : Tel.Event.t) ->
             Printf.sprintf "%d:%s" e.core (Tel.Event.label e.payload))
           evs))
    (map
       (List.mapi (fun i (c, p) ->
            { Tel.Event.seq = i; core = c; cycles = i; payload = p }))
       (list_size (int_range 0 40) (pair core payload)))
    (fun evs ->
      List.map report (A.Orderlint.check evs)
      = List.map report (Sanctorum_oracle.Orderlint_ref.check evs))

(* The engine's checkpoint traverses the sink's ring once and steps the
   window's lock pass and the run-long lint from each slot's fields,
   building no event and skipping the kinds neither pass reads
   ([Engine.checkpoint_kinds]). Replay each window of a trace into a
   sink the way the engine drains one (emit, one [Sink.iter] fold over
   the kinds the engine wants, clear), with rings small enough to wrap
   as well, and hold that fold to the list passes over the same whole
   window: [Lockcheck.check] on [Sink.events], including the order of
   its lock.order findings, and [Orderlint.feed] of the same lists. A
   chaos run's trace holds every kind the engine skips among the
   machine checks and quarantines the lint reads. *)
let lock_cases =
  [
    trace [ acq (enc 1); api "init_enclave" ];
    trace [ rel (enc 1); acq res ];
    trace [ Tel.Event.Guarded_write { lock = enc 1; field = "phase" } ];
    trace three_class_inversion;
  ]

let chaos_run_trace =
  lazy
    (let sink = Tel.Sink.create () in
     ignore
       (Sanctorum_faults.Chaos.run ~sink ~seed:7L
          ~spec:(Result.get_ok (Sanctorum_faults.Spec.parse "all"))
          ());
     Tel.Sink.events sink)

let qcheck_ring_pass =
  let traces () =
    List.map (fun (_, _, payloads) -> trace payloads) order_cases
    @ lock_cases
    @ [ Lazy.force honest_run_trace; Lazy.force chaos_run_trace ]
  in
  let n_traces = List.length order_cases + List.length lock_cases + 2 in
  QCheck2.Test.make ~name:"checkpoint ring pass = list passes" ~count:200
    ~print:
      QCheck2.Print.(triple int (list int) int)
    QCheck2.Gen.(
      triple
        (int_range 0 (n_traces - 1))
        (list_size (int_range 0 12) (int_range 0 100_000))
        (oneof [ return 65536; int_range 1 16 ]))
    (fun (i, cuts, capacity) ->
      let events = List.nth (traces ()) i in
      let sink = Tel.Sink.create ~capacity () in
      let lint_ring = A.Orderlint.create () in
      let lint_lists = A.Orderlint.create () in
      let window_agrees window =
        List.iter
          (fun (e : Tel.Event.t) ->
            Tel.Sink.emit sink ~core:e.core ~cycles:e.cycles e.payload)
          window;
        let locks = A.Lockcheck.create () in
        Tel.Sink.iter ~want:Sanctorum_workload.Engine.checkpoint_kinds
          (fun ~seq ~core ~cycles:_ payload ->
            A.Lockcheck.step locks ~seq payload;
            A.Orderlint.step lint_ring ~seq ~core payload)
          sink;
        let evs = Tel.Sink.events sink in
        A.Orderlint.feed lint_lists evs;
        let same = A.Lockcheck.finish locks = A.Lockcheck.check evs in
        Tel.Sink.clear sink;
        same
      in
      List.for_all window_agrees (windows events cuts)
      && A.Orderlint.findings lint_ring = A.Orderlint.findings lint_lists)

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
  let snapshot = warm_snapshot tb in
  check_bool "relaxed" true
    (Sanctorum_attack.Malicious_os.relax_protections os ~eid:inst.Os.eid);
  (match Sanctorum_attack.Malicious_os.os_load os ~core:1 ~paddr with
  | Sanctorum_attack.Malicious_os.Leaked _ -> ()
  | Denied -> Alcotest.fail "relaxed hardware still denies");
  fires "own.exclusive" (snapshot ())

(* ------------------------------------------------------------------ *)
(* The memo against the stateless reference. One memo follows a churn
   engine's stack through a random sequence: installs and reclaims
   (eids are reused), enclaves deleted with their threads left in place
   (reclaimed in full later), engine rounds, PTEs written into live table
   frames (leaves inside and outside evrange, pointers back into the
   enclave's own tables, level-0 pointers, frames past DRAM, zeros),
   bit flips in table frames, a unit handed to a foreign domain, a
   relaxed isolation primitive, a unit's Fig. 2 state rewritten (and
   checked twice before it is put back), an L2 line of monitor memory
   planted, the L2 flushed, a metadata slot claimed outside the window,
   a thread marked running, an enclave's lifecycle flipped and an
   enclave lock leaked (each of the last two checked twice before it is
   put back), and quiet passes with nothing changed between them. After
   every step the memo's full report must equal the reference's, in
   order. *)

type pte =
  | Zero
  | Leaf_to of int  (* a frame anywhere in DRAM *)
  | Leaf_to_mapped of int  (* a frame some live enclave maps *)
  | Pointer_to_table of int  (* one of the enclave's own tables *)
  | Pointer_to of int  (* a frame anywhere in DRAM *)
  | Past_dram of bool  (* a leaf (true) or a pointer *)

type slot = In_evrange of int | Slot of int

type memo_op =
  | Install
  | Reclaim of int
  | Delete of int  (* an install deleted, its threads left in place *)
  | Rounds of int
  | Pte of int * int * slot * pte  (* enclave, table on its path, slot *)
  | Flip of int * int * int * int  (* enclave, table, slot, bit *)
  | Owner of int  (* an enclave's first unit, to domain 77 *)
  | Relax of int
  | Resource of int  (* an enclave's first unit's state, to domain 77 *)
  | Plant of int  (* an L2 line of monitor memory *)
  | Flush_l2
  | Meta  (* a metadata slot claimed outside the window *)
  | Phase of int * int  (* a thread marked running on a core *)
  | Lifecycle of int  (* an enclave's lifecycle flipped *)
  | Leak of int  (* an enclave's lock left held *)
  | Quiet of int  (* passes with nothing changed between them *)

let print_memo_op = function
  | Install -> "install"
  | Reclaim i -> Printf.sprintf "reclaim %d" i
  | Delete i -> Printf.sprintf "delete %d" i
  | Rounds n -> Printf.sprintf "rounds %d" n
  | Pte (e, t, slot, pte) ->
      Printf.sprintf "pte e%d t%d %s %s" e t
        (match slot with
        | In_evrange k -> Printf.sprintf "evrange+%d" k
        | Slot i -> Printf.sprintf "slot %d" i)
        (match pte with
        | Zero -> "zero"
        | Leaf_to f -> Printf.sprintf "leaf->%d" f
        | Leaf_to_mapped m -> Printf.sprintf "leaf->mapped %d" m
        | Pointer_to_table t -> Printf.sprintf "ptr->table %d" t
        | Pointer_to f -> Printf.sprintf "ptr->%d" f
        | Past_dram leaf -> if leaf then "leaf past DRAM" else "ptr past DRAM")
  | Flip (e, t, i, b) -> Printf.sprintf "flip e%d t%d slot %d bit %d" e t i b
  | Owner e -> Printf.sprintf "owner e%d" e
  | Relax e -> Printf.sprintf "relax e%d" e
  | Resource e -> Printf.sprintf "resource e%d" e
  | Plant l -> Printf.sprintf "plant line %d" l
  | Flush_l2 -> "flush L2"
  | Meta -> "meta slot"
  | Phase (t, c) -> Printf.sprintf "phase t%d core %d" t c
  | Lifecycle e -> Printf.sprintf "lifecycle e%d" e
  | Leak e -> Printf.sprintf "leak e%d" e
  | Quiet n -> Printf.sprintf "quiet %d" n

let gen_memo_op =
  QCheck2.Gen.(
    let sel = int_range 0 15 in
    let frame = int_bound 100_000 in
    let slot =
      oneof
        [
          map (fun k -> In_evrange k) (int_range 0 3);
          map (fun i -> Slot i) (int_range 0 511);
        ]
    in
    let pte =
      frequency
        [
          (2, return Zero);
          (3, map (fun f -> Leaf_to f) frame);
          (2, map (fun m -> Leaf_to_mapped m) frame);
          (2, map (fun t -> Pointer_to_table t) sel);
          (1, map (fun f -> Pointer_to f) frame);
          (1, map (fun leaf -> Past_dram leaf) bool);
        ]
    in
    frequency
      [
        (2, return Install);
        (1, map (fun i -> Reclaim i) sel);
        (1, map (fun i -> Delete i) sel);
        (2, map (fun n -> Rounds n) (int_range 1 3));
        (6, map (fun (((e, t), slot), pte) -> Pte (e, t, slot, pte))
              (pair (pair (pair sel sel) slot) pte));
        (2, map (fun ((e, t), (i, b)) -> Flip (e, t, i, b))
              (pair (pair sel sel) (pair (int_range 0 511) (int_range 0 63))));
        (1, map (fun e -> Owner e) sel);
        (1, map (fun e -> Relax e) sel);
        (1, map (fun e -> Resource e) sel);
        (1, map (fun l -> Plant l) (int_bound 8191));
        (1, return Flush_l2);
        (1, return Meta);
        (1, map2 (fun t c -> Phase (t, c)) sel (int_range 0 2));
        (1, map (fun e -> Lifecycle e) sel);
        (1, map (fun e -> Leak e) sel);
        (2, map (fun n -> Quiet n) (int_range 1 3));
      ])

(* Over a run of the property: walks replayed, and passes that skipped
   and that re-ran (after a memo's first pass) the ownership check, the
   page-table replay and the metadata-slot check, and that kept and that
   re-read the enclave and thread ids. *)
let memo_replays = ref 0
let memo_own = ref (0, 0)
let memo_replay = ref (0, 0)
let memo_slots = ref (0, 0)
let memo_ids = ref (0, 0)

let qcheck_memo_differential =
  QCheck2.Test.make ~name:"invariants: memoized walks = stateless reference"
    ~count:60
    ~print:(fun (keystone, seed, ops) ->
      Printf.sprintf "%s seed=%d [%s]"
        (if keystone then "keystone" else "sanctum")
        seed
        (String.concat "; " (List.map print_memo_op ops)))
    QCheck2.Gen.(
      triple bool (int_bound 1000) (list_size (int_range 1 24) gen_memo_op))
    (fun (keystone, seed, ops) ->
      let module E = Sanctorum_workload.Engine in
      let eng =
        E.create
          {
            Sanctorum_workload.Workload.default with
            seed = Printf.sprintf "memo-differential/%d" seed;
            backend =
              (if keystone then Testbed.Keystone_backend
               else Testbed.Sanctum_backend);
            cores = 2;
            enclaves = 8;
            mix = Sanctorum_workload.Workload.Churn;
            check_every = 0;
          }
      in
      for jid = 0 to 2 do
        E.submit eng ~jid ~seed:(Int64.of_int (seed + jid)) ~target:None
      done;
      let tb = E.testbed eng in
      let sm = tb.Testbed.sm in
      let mem = Hw.Machine.mem tb.Testbed.machine in
      let frames = Hw.Phys_mem.size mem / Hw.Phys_mem.page_size in
      let memo = A.Invariants.memo () in
      let passes = ref 0 and ok = ref true in
      let agrees () =
        incr passes;
        if
          A.Invariants.check memo sm
          <> Sanctorum_oracle.Invariants_ref.snapshot sm
        then ok := false
      in
      let mine = ref [] in
      let nth l i = List.nth l (i mod List.length l) in
      let with_enclave i f =
        match S.enclaves sm with [] -> () | eids -> f (nth eids i)
      in
      (* [f info tables] on the enclave's tables along its first
         mapping's path, root first *)
      let with_tables i f =
        with_enclave i (fun eid ->
            match (S.enclave_info sm ~eid, S.enclave_mappings sm ~eid) with
            | Some ({ S.i_root_ppn = Some root; _ } as info), (vpn, _) :: _ ->
                f info (path_tables mem ~root ~vpn)
            | _ -> ())
      in
      let apply = function
        | Install ->
            if List.length !mine < 4 then
              let image =
                Sanctorum.Image.of_program ~evbase:0x10000 ~data_pages:1
                  Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
              in
              (match Os.install_enclave tb.Testbed.os image with
              | Ok inst -> mine := inst.Os.eid :: !mine
              | Error _ -> ())
        | Reclaim i -> (
            match !mine with
            | [] -> ()
            | l ->
                let eid = nth l i in
                ignore (Os.reclaim_enclave tb.Testbed.os ~eid);
                mine := List.filter (( <> ) eid) l)
        | Delete i -> (
            match !mine with
            | [] -> ()
            | l -> ignore (S.delete_enclave sm ~caller:S.Os ~eid:(nth l i)))
        | Rounds n ->
            for _ = 1 to n do
              ignore (E.step eng)
            done
        | Pte (e, t, slot, pte) ->
            with_tables e (fun info tables ->
                let ti = t mod List.length tables in
                let table = List.nth tables ti in
                let level = Hw.Page_table.levels - 1 - ti in
                let idx =
                  match slot with
                  | Slot i -> i
                  | In_evrange k ->
                      let page = Hw.Phys_mem.page_size in
                      let pages = max 1 (info.S.i_evsize / page) in
                      let vpn = (info.S.i_evbase / page) + (k mod pages) in
                      (vpn lsr (9 * level)) land 511
                in
                let perms leaf =
                  { Hw.Page_table.r = leaf; w = leaf; x = false; u = true }
                in
                let entry ~leaf ppn =
                  Hw.Page_table.encode_pte ~ppn ~perms:(perms leaf) ~valid:true
                in
                Hw.Phys_mem.write_u64 mem (pte_addr table idx)
                  (match pte with
                  | Zero -> 0L
                  | Leaf_to f -> entry ~leaf:true (f mod frames)
                  | Leaf_to_mapped m -> (
                      let mapped =
                        List.concat_map
                          (fun eid -> List.map snd (S.enclave_mappings sm ~eid))
                          (S.enclaves sm)
                      in
                      match mapped with
                      | [] -> 0L
                      | l -> entry ~leaf:true (nth l m))
                  | Pointer_to_table j -> entry ~leaf:false (nth tables j)
                  | Pointer_to f -> entry ~leaf:false (f mod frames)
                  | Past_dram leaf -> entry ~leaf (frames + idx)))
        | Flip (e, t, i, bit) ->
            with_tables e (fun _ tables ->
                let paddr = pte_addr (nth tables t) i in
                Hw.Phys_mem.inject_bit_flip mem ~paddr ~bit)
        | Owner e ->
            with_enclave e (fun eid ->
                let pf = tb.Testbed.platform in
                match S.enclave_domain sm ~eid with
                | Error _ -> ()
                | Ok d -> (
                    match pf.Sanctorum_platform.Platform.ranges_of_domain d with
                    | (lo, _) :: _ ->
                        let rid = lo / S.memory_unit_bytes sm in
                        Testbed.corrupt_owner_map tb ~rid
                    | [] -> ()))
        | Relax e ->
            with_enclave e (fun eid ->
                ignore
                  (Sanctorum_attack.Malicious_os.relax_protections tb.Testbed.os
                     ~eid))
        | Resource e ->
            with_enclave e (fun eid ->
                let pf = tb.Testbed.platform in
                match S.enclave_domain sm ~eid with
                | Error _ -> ()
                | Ok d -> (
                    match pf.Sanctorum_platform.Platform.ranges_of_domain d with
                    | (lo, _) :: _ -> (
                        let rid = lo / S.memory_unit_bytes sm in
                        match
                          S.resource_state sm Sanctorum.Resource.Memory_resource
                            ~rid
                        with
                        | Ok (Sanctorum.Resource.Owned owner) ->
                            (* a dirty pass must not let the next one,
                               with nothing moved, skip the check *)
                            S.corrupt_resource_owner sm ~rid 77;
                            agrees ();
                            agrees ();
                            S.corrupt_resource_owner sm ~rid owner
                        | Ok _ | Error _ -> ())
                    | [] -> ()))
        | Plant l ->
            let monitor = Sanctorum_platform.Platform.sm_memory_bytes in
            ignore
              (Hw.Cache.access_hit
                 (Hw.Machine.l2 tb.Testbed.machine)
                 ~paddr:(l * 64 mod monitor))
        | Flush_l2 -> Hw.Cache.flush_all (Hw.Machine.l2 tb.Testbed.machine)
        | Meta -> S.corrupt_metadata_slot sm
        | Phase (t, core) -> (
            match S.thread_ids sm with
            | [] -> ()
            | tids -> S.corrupt_thread_phase sm ~tid:(nth tids t) ~core)
        | Lifecycle e ->
            with_enclave e (fun eid ->
                S.corrupt_enclave_lifecycle sm ~eid;
                agrees ();
                agrees ();
                S.corrupt_enclave_lifecycle sm ~eid)
        | Leak e ->
            with_enclave e (fun eid ->
                if S.try_lock_enclave sm ~eid then begin
                  agrees ();
                  agrees ();
                  S.unlock_enclave sm ~eid
                end)
        | Quiet n ->
            for _ = 2 to n do
              agrees ()
            done
      in
      agrees ();
      List.iter
        (fun op ->
          apply op;
          agrees ())
        ops;
      let tally counter skipped =
        let s, r = !counter in
        counter := (s + skipped, r + (!passes - 1 - skipped))
      in
      let skips = A.Invariants.skips memo in
      tally memo_own skips.A.Invariants.ownership;
      tally memo_replay skips.A.Invariants.replay;
      tally memo_slots skips.A.Invariants.slots;
      tally memo_ids skips.A.Invariants.ids;
      memo_replays := !memo_replays + A.Invariants.replays memo;
      !ok)

(* The property, then a check that its run replayed some walks, that
   each gate both skipped and re-ran its check, and that the ids were
   both kept and read again: a memo that never replays, or a gate that
   never opens or never closes, would pass it vacuously. *)
let memo_differential =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck_memo_differential in
  ( name,
    speed,
    fun () ->
      memo_replays := 0;
      memo_own := (0, 0);
      memo_replay := (0, 0);
      memo_slots := (0, 0);
      memo_ids := (0, 0);
      run ();
      if !memo_replays = 0 then Alcotest.fail "the memo never replayed a walk";
      List.iter
        (fun (what, (skipped, reran)) ->
          if skipped = 0 then Alcotest.failf "no pass skipped the %s" what;
          if reran = 0 then Alcotest.failf "no later pass re-ran the %s" what)
        [
          ("ownership check", !memo_own);
          ("page-table replay", !memo_replay);
          ("metadata-slot check", !memo_slots);
          ("reading of the ids", !memo_ids);
        ]
    )

(* The ownership check walks units and the owner map's maximal ranges
   in step; the reference in test/oracle scans every page. A monitor
   booted on a platform whose owner map the test holds, with units of
   1, 2, 4 or 16 pages, takes random grants (to the OS or to one of two
   loading enclaves), blocks, cleans, rewritten Fig. 2 states
   ([corrupt_resource_owner]), whole units handed to another domain,
   and page ranges of any length handed to another domain straight in
   the owner map, which splits units. After every step the [own.*]
   findings of a fresh pass and of a memo kept across the steps equal
   the reference's, in order. *)
type own_op =
  | Grant of int * int  (* unit, target: 0 the OS, else enclave 1 or 2 *)
  | Block of int * int  (* unit, caller: 0 the OS, else enclave 1 or 2 *)
  | Clean of int
  | State of int * int  (* unit, domain *)
  | Hand of int * int  (* unit, domain *)
  | Split of int * int * int  (* first page, pages, domain *)

let print_own_op = function
  | Grant (u, x) -> Printf.sprintf "grant u%d to %d" u x
  | Block (u, x) -> Printf.sprintf "block u%d by %d" u x
  | Clean u -> Printf.sprintf "clean u%d" u
  | State (u, d) -> Printf.sprintf "state u%d owned by %d" u d
  | Hand (u, d) -> Printf.sprintf "hand u%d to %d" u d
  | Split (p, n, d) -> Printf.sprintf "split pages %d+%d to %d" p n d

let own_identity =
  lazy
    (Sanctorum.Boot.perform
       ~root:(Sanctorum.Boot.manufacturer_root ~seed:"ownership")
       ~device_secret:"device-secret-ownership" ~sm_binary:S.binary_image)

(* Over a run of the property: steps after which some unit was split
   by the owner map, and [own.*] findings compared. *)
let own_splits = ref 0
let own_findings = ref 0

let qcheck_ownership_ranges =
  let mem_bytes = 2 * 1024 * 1024 in
  let page = Hw.Phys_mem.page_size in
  let pages = mem_bytes / page in
  QCheck2.Test.make ~name:"ownership by range = per-page reference" ~count:150
    ~print:(fun (unit_pages, ops) ->
      Printf.sprintf "unit %d pages: [%s]" unit_pages
        (String.concat "; " (List.map print_own_op ops)))
    QCheck2.Gen.(
      let u = int_bound 1000 and x = int_range 0 2 and d = int_range 0 4 in
      pair (oneofl [ 1; 2; 4; 16 ])
        (list_size (int_range 1 30)
           (frequency
              [
                (4, map2 (fun u x -> Grant (u, x)) u x);
                (3, map2 (fun u x -> Block (u, x)) u x);
                (3, map (fun u -> Clean u) u);
                (1, map2 (fun u d -> State (u, d)) u d);
                (1, map2 (fun u d -> Hand (u, d)) u d);
                (2, map3 (fun p n d -> Split (p, n, d)) (int_bound (pages - 1))
                      (int_range 1 24) d);
              ])))
    (fun (unit_pages, ops) ->
      let unit_bytes = unit_pages * page in
      let machine =
        Hw.Machine.create
          { Hw.Machine.default_config with Hw.Machine.cores = 1; mem_bytes }
      in
      let owners = Sanctorum_platform.Platform.owner_map machine in
      let pf =
        Sanctorum_platform.Platform.make ~name:"split" ~alloc_unit:unit_bytes
          ~llc_partitioned:false
          ~phys_check:(fun ~core:_ ~access:_ ~paddr:_ -> true)
          ~pte_fetch_check:(fun ~core:_ ~paddr:_ -> true)
          machine owners
      in
      let sm =
        S.boot ~platform:pf ~identity:(Lazy.force own_identity)
          ~signing_enclave_measurement:
            Sanctorum.Attestation.signing_expected_measurement
      in
      let eids =
        List.init 2 (fun i ->
            let eid = S.metadata_base sm + (i * S.enclave_slot_bytes) in
            match
              S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000
                ~evsize:0x4000 ()
            with
            | Ok () -> eid
            | Error e -> failwith (Sanctorum.Api_error.to_string e))
      in
      let units = S.memory_units sm in
      let domain = function
        | 0 -> Hw.Trap.domain_sm
        | 1 -> Hw.Trap.domain_untrusted
        | 4 -> 77
        | i -> Result.get_ok (S.enclave_domain sm ~eid:(List.nth eids (i - 2)))
      in
      let party = function
        | 0 -> None
        | x -> Some (List.nth eids (x - 1))
      in
      let kind = Sanctorum.Resource.Memory_resource in
      let memo = A.Invariants.memo () in
      let own vs =
        List.map report
          (List.filter
             (fun v -> String.starts_with ~prefix:"own." v.A.Report.id)
             vs)
      in
      let split () =
        let cut = ref false in
        pf.Sanctorum_platform.Platform.iter_ranges (fun ~lo ~hi ~domain:_ ->
            if lo mod unit_bytes <> 0 || hi mod unit_bytes <> 0 then
              cut := true);
        !cut
      in
      let agrees () =
        let want = Sanctorum_oracle.Invariants_ref.ownership sm in
        if split () then incr own_splits;
        own_findings := !own_findings + List.length want;
        own (A.Invariants.check memo sm) = List.map report want
        && own (A.Checker.snapshot sm) = List.map report want
      in
      let apply = function
        | Grant (u, x) ->
            let to_ =
              match party x with None -> S.To_os | Some eid -> S.To_enclave eid
            in
            ignore
              (S.grant_resource sm ~caller:S.Os kind ~rid:(u mod units) ~to_)
        | Block (u, x) ->
            let caller =
              match party x with None -> S.Os | Some eid -> S.Enclave_caller eid
            in
            ignore (S.block_resource sm ~caller kind ~rid:(u mod units))
        | Clean u ->
            ignore (S.clean_resource sm ~caller:S.Os kind ~rid:(u mod units))
        | State (u, d) ->
            S.corrupt_resource_owner sm ~rid:(u mod units) (domain d)
        | Hand (u, d) ->
            let lo = u mod units * unit_bytes in
            ignore
              (pf.Sanctorum_platform.Platform.assign_range ~lo
                 ~hi:(lo + unit_bytes) (domain d))
        | Split (p, n, d) ->
            let lo = p * page in
            Sanctorum_platform.Owner_map.set_range owners ~lo
              ~hi:(min mem_bytes (lo + (n * page)))
              (domain d)
      in
      agrees ()
      && List.for_all
           (fun op ->
             apply op;
             agrees ())
           ops)

(* The property, then a check that its run split some units and
   compared some findings: a run that never splits a unit, or never
   flags one, would pass it without reaching the walk's corners. *)
let ownership_ranges =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck_ownership_ranges in
  ( name,
    speed,
    fun () ->
      own_splits := 0;
      own_findings := 0;
      run ();
      if !own_splits = 0 then Alcotest.fail "no step split a unit";
      if !own_findings = 0 then Alcotest.fail "no step flagged a unit" )

(* A memo follows one monitor: handed another, it starts over, so it
   neither replays a walk recorded on another machine's memory nor
   skips a check on versions another monitor reached. Two testbeds
   built alike reach the same eids, roots, page generations and
   versions; each then takes one table write and one resource write,
   corrupting on [b] and rewriting what is there on [a], which keeps
   them equal. *)
let test_memo_follows_one_monitor () =
  let a, inst_a = installed_run () and b, inst_b = installed_run () in
  let memo = A.Invariants.memo () in
  silent (A.Invariants.check memo a.Testbed.sm);
  let rid = S.memory_units b.Testbed.sm - 1 in
  Testbed.corrupt_page_table b ~eid:inst_b.Os.eid;
  S.corrupt_resource_owner b.Testbed.sm ~rid 77;
  let mem = Hw.Machine.mem a.Testbed.machine in
  let _, level0 = root_and_level0 a ~eid:inst_a.Os.eid in
  (match S.enclave_mappings a.Testbed.sm ~eid:inst_a.Os.eid with
  | (vpn, _) :: _ ->
      let pte = pte_addr level0 (vpn land 511) in
      Hw.Phys_mem.write_u64 mem pte (Hw.Phys_mem.read_u64 mem pte)
  | [] -> Alcotest.fail "enclave has no mapping");
  S.corrupt_resource_owner a.Testbed.sm ~rid Hw.Trap.domain_untrusted;
  silent (A.Invariants.check memo a.Testbed.sm);
  let fresh = A.Checker.snapshot b.Testbed.sm in
  fires "pt.confined" fresh;
  fires "own.exclusive" fresh;
  Alcotest.(check (list (triple string string string)))
    "memo on another monitor = fresh pass" (List.map report fresh)
    (List.map report (A.Invariants.check memo b.Testbed.sm))

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
      Alcotest.test_case "pt.confined: pointer beyond DRAM (sanctum)" `Quick
        (test_pt_beyond_dram Testbed.Sanctum_backend ~leaf:false);
      Alcotest.test_case "pt.confined: pointer beyond DRAM (keystone)" `Quick
        (test_pt_beyond_dram Testbed.Keystone_backend ~leaf:false);
      Alcotest.test_case "pt.confined: leaf beyond DRAM (sanctum)" `Quick
        (test_pt_beyond_dram Testbed.Sanctum_backend ~leaf:true);
      Alcotest.test_case "pt.confined: leaf beyond DRAM (keystone)" `Quick
        (test_pt_beyond_dram Testbed.Keystone_backend ~leaf:true);
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
      Alcotest.test_case "order.destroy: an exit releases its own core"
        `Quick test_exit_releases_its_core;
      Alcotest.test_case "honest workload trace is orderly" `Quick
        test_honest_run_trace;
      QCheck_alcotest.to_alcotest qcheck_order_streaming;
      QCheck_alcotest.to_alcotest qcheck_lock_stack;
      QCheck_alcotest.to_alcotest qcheck_orderlint_ints;
      QCheck_alcotest.to_alcotest qcheck_ring_pass;
      memo_differential;
      ownership_ranges;
      Alcotest.test_case "a memo handed another monitor starts over" `Quick
        test_memo_follows_one_monitor;
      Alcotest.test_case "relaxed protections are detected" `Quick
        test_relax_protections;
      Alcotest.test_case "catalog covers every id" `Quick test_catalog;
    ] )
