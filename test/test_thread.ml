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
    ] )
