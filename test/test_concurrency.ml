(* Transaction semantics (§V-A): a held fine-grained lock aborts the
   concurrent call with [Concurrent_call] and leaves state unchanged. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module E = Sanctorum.Api_error
module Img = Sanctorum.Image
open Sanctorum_os

let check_bool = Alcotest.(check bool)

let setup () =
  let tb = Testbed.create () in
  let image =
    Img.of_program ~evbase:0x10000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let inst = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  (tb, inst)

let test_enclave_lock_aborts () =
  let tb, inst = setup () in
  let sm = tb.Testbed.sm in
  let eid = inst.Os.eid in
  check_bool "lock taken" true (S.try_lock_enclave sm ~eid);
  check_bool "second lock fails" false (S.try_lock_enclave sm ~eid);
  (* API calls on the locked enclave abort *)
  (match S.delete_enclave sm ~caller:S.Os ~eid with
  | Error E.Concurrent_call -> ()
  | Ok () -> Alcotest.fail "delete proceeded under a held lock"
  | Error e -> Alcotest.failf "unexpected: %s" (E.to_string e));
  (match
     S.accept_mail sm ~caller:(S.Enclave_caller eid)
       ~sender:Sanctorum.Mailbox.From_os
   with
  | Error E.Concurrent_call -> ()
  | Ok () -> Alcotest.fail "accept_mail proceeded under a held lock"
  | Error e -> Alcotest.failf "unexpected: %s" (E.to_string e));
  (match S.enter_enclave sm ~caller:S.Os ~eid ~tid:(List.hd inst.Os.tids) ~core:0 with
  | Error E.Concurrent_call -> ()
  | Ok () -> Alcotest.fail "enter proceeded under a held lock"
  | Error e -> Alcotest.failf "unexpected: %s" (E.to_string e));
  (* state unchanged: still initialized, thread still assigned *)
  check_bool "still initialized" true
    (Option.map (fun i -> i.S.i_initialized) (S.enclave_info sm ~eid)
    = Some true);
  (* releasing the lock lets the transaction through *)
  S.unlock_enclave sm ~eid;
  match S.delete_enclave sm ~caller:S.Os ~eid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "delete after unlock: %s" (E.to_string e)

let test_lock_released_after_abort () =
  (* A failed transaction releases its locks: the next call works. *)
  let tb, inst = setup () in
  let sm = tb.Testbed.sm in
  let eid = inst.Os.eid in
  (* a call that fails validation (double init) must not leave the
     enclave locked *)
  (match S.init_enclave sm ~caller:S.Os ~eid with
  | Error (E.Invalid_state _) -> ()
  | Ok () -> Alcotest.fail "double init succeeded"
  | Error e -> Alcotest.failf "unexpected: %s" (E.to_string e));
  check_bool "lock free after failed call" true (S.try_lock_enclave sm ~eid);
  S.unlock_enclave sm ~eid

let test_unknown_enclave_lock () =
  let tb, _ = setup () in
  check_bool "unknown eid" false (S.try_lock_enclave tb.Testbed.sm ~eid:999999)

let suite =
  ( "concurrency",
    [
      Alcotest.test_case "held lock aborts transactions" `Quick
        test_enclave_lock_aborts;
      Alcotest.test_case "failed call releases lock" `Quick
        test_lock_released_after_abort;
      Alcotest.test_case "unknown enclave lock" `Quick test_unknown_enclave_lock;
    ] )
