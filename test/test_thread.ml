(* Fig. 4 conformance: the thread lifecycle. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module E = Sanctorum.Api_error
module Img = Sanctorum.Image
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let is_error = function Error _ -> true | Ok _ -> false

let setup () =
  let tb = Testbed.create () in
  let image =
    Img.of_program ~evbase:0x10000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let inst = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  (tb, inst.Os.eid, List.hd inst.Os.tids)

let phase sm ~tid = Option.map (fun i -> i.S.i_phase) (S.thread_info sm ~tid)

let test_load_thread_states () =
  let tb, eid, tid = setup () in
  match S.thread_info tb.Testbed.sm ~tid with
  | Some { S.i_phase = `Assigned; i_owner = Some e; i_has_aex; _ } ->
      Alcotest.(check int) "assigned to" eid e;
      check_bool "no aex yet" false i_has_aex
  | Some _ | None -> Alcotest.fail "expected assigned"

let test_release_and_recycle () =
  let tb, eid, tid = setup () in
  let sm = tb.Testbed.sm in
  (* the enclave releases its thread *)
  (match S.release_thread sm ~caller:(S.Enclave_caller eid) ~tid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "release: %s" (E.to_string e));
  check_bool "available" true (phase sm ~tid = Some `Available);
  (* install a second enclave, recycle the thread into it *)
  let image2 =
    Img.of_program ~evbase:0x40000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let inst2 = Result.get_ok (Os.install_enclave tb.Testbed.os image2) in
  let eid2 = inst2.Os.eid in
  (* assign (offer) by the OS, accept by the new owner *)
  (match S.assign_thread sm ~caller:S.Os ~eid:eid2 ~tid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "assign: %s" (E.to_string e));
  (* a third enclave cannot steal the offer *)
  check_bool "foreign accept rejected" true
    (is_error (S.accept_thread sm ~caller:(S.Enclave_caller eid) ~tid ()));
  (match
     S.accept_thread sm ~caller:(S.Enclave_caller eid2) ~tid
       ~entry_pc:0x40000L ~entry_sp:0x41ff0L ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "accept: %s" (E.to_string e));
  (match S.thread_info sm ~tid with
  | Some { S.i_phase = `Assigned; i_owner = Some e; _ } ->
      Alcotest.(check int) "new owner" eid2 e
  | Some _ | None -> Alcotest.fail "expected assigned to new enclave");
  (* the recycled thread actually runs in the new enclave *)
  match Os.run_enclave tb.Testbed.os ~eid:eid2 ~tid ~core:0 ~fuel:1000 () with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "recycled thread did not run"

let test_illegal_thread_transitions () =
  let tb, eid, tid = setup () in
  let sm = tb.Testbed.sm in
  (* delete while assigned *)
  check_bool "delete assigned" true
    (is_error (S.delete_thread sm ~caller:S.Os ~tid));
  (* unassign a live enclave's thread *)
  (match S.unassign_thread sm ~caller:S.Os ~tid with
  | Error E.Unauthorized -> ()
  | Ok () -> Alcotest.fail "OS ripped a live enclave's thread"
  | Error e -> Alcotest.failf "unexpected: %s" (E.to_string e));
  (* release by a non-owner *)
  let image2 =
    Img.of_program ~evbase:0x60000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let inst2 = Result.get_ok (Os.install_enclave tb.Testbed.os image2) in
  check_bool "foreign release" true
    (is_error
       (S.release_thread sm ~caller:(S.Enclave_caller inst2.Os.eid) ~tid));
  (* assign a thread that is not available *)
  check_bool "assign assigned thread" true
    (is_error (S.assign_thread sm ~caller:S.Os ~eid:inst2.Os.eid ~tid));
  (* enter with a foreign tid *)
  check_bool "enter foreign thread" true
    (is_error
       (S.enter_enclave sm ~caller:S.Os ~eid:inst2.Os.eid ~tid ~core:0));
  ignore eid

let test_unassign_after_delete () =
  let tb, eid, tid = setup () in
  let sm = tb.Testbed.sm in
  (match S.delete_enclave sm ~caller:S.Os ~eid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "delete: %s" (E.to_string e));
  (* deletion released the thread *)
  check_bool "available after delete" true (phase sm ~tid = Some `Available);
  (* delete the metadata *)
  match S.delete_thread sm ~caller:S.Os ~tid with
  | Ok () -> check_bool "gone" true (phase sm ~tid = None)
  | Error e -> Alcotest.failf "delete_thread: %s" (E.to_string e)

let test_thread_slot_validation () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let os = tb.Testbed.os in
  let eid = Os.alloc_metadata os `Enclave in
  Result.get_ok
    (S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000 ~evsize:4096 ());
  (* a tid outside the metadata area *)
  check_bool "tid out of area" true
    (is_error
       (S.load_thread sm ~caller:S.Os ~eid ~tid:(8 * 1024 * 1024)
          ~entry_pc:0L ~entry_sp:0L));
  (* a tid colliding with the enclave's own slot *)
  check_bool "tid collides" true
    (is_error
       (S.load_thread sm ~caller:S.Os ~eid ~tid:eid ~entry_pc:0L ~entry_sp:0L))

(* The monitor finds the thread running on a core among the threads of
   the enclave whose domain the core is in; the fold over every thread
   it replaced ([Sanctorum_oracle.Running_ref]) must answer alike, for
   every core, after every API call of an engine run (each mix, both
   backends), of the same run under an armed fault storm (the chaos
   harness's injector: core deaths, dropped and spurious interrupts,
   flips, lost shootdowns), and after each step of a random path of
   the model checker's enter, exit and AEX actions over two enclaves
   of two threads each on two cores, which leave threads running
   between calls. *)
module W = Sanctorum_workload

type running_case =
  | Engine of W.Workload.mix * string option  (* fault spec *)
  | Path of (int * int * int) list  (* enter, exit or AEX; thread; core *)

let agrees_on_every_core sm cores =
  List.for_all
    (fun core ->
      S.running_thread sm ~core
      = Sanctorum_oracle.Running_ref.running_thread sm ~core)
    (List.init cores Fun.id)

let running_case_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun m f -> Engine (m, f))
            (oneofl W.Workload.[ Compute; Ipc; Churn ])
            (oneofl [ None; Some "all"; Some "mce:2,spurious-irq:4" ]) );
        ( 2,
          map (fun p -> Path p)
            (list_size (int_range 1 40)
               (triple (int_bound 2) (int_bound 3) (int_bound 1))) );
      ])

let prop_running_thread =
  QCheck2.Test.make ~count:40
    ~name:"running thread: the core's enclave's threads = fold over all"
    QCheck2.Gen.(triple bool (int_bound 1000) running_case_gen)
    (fun (keystone, seed, case) ->
      let backend =
        if keystone then Testbed.Keystone_backend else Testbed.Sanctum_backend
      in
      let ok = ref true in
      (match case with
      | Engine (mix, faults) ->
          let eng =
            W.Engine.create
              {
                W.Workload.default with
                seed = Printf.sprintf "running-thread/%d" seed;
                backend;
                cores = 2;
                enclaves = 6;
                mix;
                check_every = 0;
              }
          in
          let tb = W.Engine.testbed eng in
          let sm = tb.Testbed.sm in
          S.set_post_api_hook sm
            (Some (fun ~api:_ -> if not (agrees_on_every_core sm 2) then ok := false));
          Option.iter
            (fun spec ->
              let inj =
                Sanctorum_faults.Injector.create ~horizon:400_000
                  ~machine:tb.Testbed.machine ~seed:(Int64.of_int seed)
                  ~spec:(Result.get_ok (Sanctorum_faults.Spec.parse spec))
                  ()
              in
              Sanctorum_faults.Injector.arm inj)
            faults;
          for jid = 0 to 2 do
            W.Engine.submit eng ~jid ~seed:(Int64.of_int (seed + jid))
              ~target:None
          done;
          for _ = 1 to 30 do
            ignore (W.Engine.step eng)
          done
      | Path actions ->
          let tb = Testbed.create ~backend ~cores:2 ~seed:"running-thread" () in
          let sm = tb.Testbed.sm and m = tb.Testbed.machine in
          let install evbase =
            let page = Hw.Phys_mem.page_size in
            let code =
              Hw.Isa.encode_program Hw.Isa.[ Jal (zero, 0) ]
            in
            let entry = Int64.of_int evbase
            and sp k = Int64.of_int (evbase + (2 * page) - (16 * k)) in
            Result.get_ok
              (Os.install_enclave tb.Testbed.os
                 (Img.make ~evbase ~evsize:(2 * page)
                    ~threads:[ (entry, sp 1); (entry, sp 2) ]
                    [
                      { Img.vaddr = evbase; r = true; w = false; x = true;
                        contents = code };
                      { Img.vaddr = evbase + page; r = true; w = true;
                        x = false; contents = "" };
                    ]))
          in
          let a = install 0x10000 and b = install 0x40000 in
          let threads =
            List.concat_map
              (fun i -> List.map (fun tid -> (i.Os.eid, tid)) i.Os.tids)
              [ a; b ]
          in
          List.iter
            (fun (kind, t, core) ->
              let eid, tid = List.nth threads (t mod List.length threads) in
              (match kind with
              | 0 -> ignore (S.enter_enclave sm ~caller:S.Os ~eid ~tid ~core)
              | 1 -> ignore (S.exit_enclave sm ~caller:(S.Enclave_caller eid) ~core)
              | _ ->
                  if Sanctorum_oracle.Running_ref.running_thread sm ~core <> None
                  then begin
                    Hw.Machine.post_interrupt m ~core Hw.Trap.Timer;
                    Hw.Machine.step m (Hw.Machine.core m core)
                  end);
              if not (agrees_on_every_core sm 2) then ok := false)
            actions);
      !ok)

(* A trap handler that raises fails closed: the monitor scrubs the core
   into the untrusted domain and then quarantines it. The thread the
   core was running must still be detached (its context is lost), or
   its enclave could never be deleted. The post-API hook raises inside
   the enclave's accept_mail ecall, delivered by the stepped pipeline
   or at a superblock's exit. *)
let test_faulted_handler_detaches (backend, stepped) () =
  let tb = Testbed.create ~backend () in
  let sm = tb.Testbed.sm and m = tb.Testbed.machine in
  let image =
    Img.of_program ~evbase:0x10000
      Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.accept_mail); Ecall ]
  in
  let inst = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  Result.get_ok (S.enter_enclave sm ~caller:S.Os ~eid ~tid ~core:0);
  S.set_post_api_hook sm
    (Some (fun ~api -> if api = "accept_mail" then failwith "corrupt"));
  let c = Hw.Machine.core m 0 in
  if stepped then begin
    Hw.Machine.step m c;
    Hw.Machine.step m c
  end
  else ignore (Hw.Machine.run m ~core:0 ~fuel:2);
  S.set_post_api_hook sm None;
  check_bool "core quarantined" true c.Hw.Machine.quarantined;
  check_bool "thread detached" true (phase sm ~tid = Some `Assigned);
  check_bool "enclave deletable" true
    (S.delete_enclave sm ~caller:S.Os ~eid = Ok ())

let suite =
  ( "thread-fig4",
    [
      Alcotest.test_case "load_thread assigns" `Quick test_load_thread_states;
      Alcotest.test_case "release and recycle" `Quick test_release_and_recycle;
      Alcotest.test_case "illegal transitions" `Quick
        test_illegal_thread_transitions;
      Alcotest.test_case "unassign after enclave delete" `Quick
        test_unassign_after_delete;
      Alcotest.test_case "thread slot validation" `Quick
        test_thread_slot_validation;
      QCheck_alcotest.to_alcotest prop_running_thread;
    ]
    @ List.map
        (fun ((b, stepped) as case) ->
          Alcotest.test_case
            (Printf.sprintf "faulted trap handler detaches the thread (%s, %s)"
               (if b = Testbed.Keystone_backend then "keystone" else "sanctum")
               (if stepped then "stepped" else "superblock"))
            `Quick (test_faulted_handler_detaches case))
        Testbed.
          [
            (Sanctum_backend, true);
            (Sanctum_backend, false);
            (Keystone_backend, true);
            (Keystone_backend, false);
          ] )
