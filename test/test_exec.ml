(* Enclave execution: enter/exit, AEX semantics, the ecall ABI, core
   cleaning, and enclave fault handlers. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module E = Sanctorum.Api_error
module Img = Sanctorum.Image
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)
let is_error = function Error _ -> true | Ok _ -> false

let install tb image = Result.get_ok (Os.install_enclave tb.Testbed.os image)

let test_enter_exit_roundtrip () =
  let tb = Testbed.create () in
  let image =
    Img.of_program ~evbase:0x10000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let inst = install tb image in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  (match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100 () with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected clean exit");
  (* thread can be entered again *)
  match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100 () with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "second run failed"

let test_enter_validation () =
  let tb = Testbed.create () in
  let image =
    Img.of_program ~evbase:0x10000 Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let inst = install tb image in
  let sm = tb.Testbed.sm in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  check_bool "bad core" true
    (is_error (S.enter_enclave sm ~caller:S.Os ~eid ~tid ~core:99));
  check_bool "enclave cannot self-enter" true
    (is_error (S.enter_enclave sm ~caller:(S.Enclave_caller eid) ~eid ~tid ~core:0));
  check_bool "bad tid" true
    (is_error (S.enter_enclave sm ~caller:S.Os ~eid ~tid:12345 ~core:0));
  (* loading enclave cannot be entered *)
  let eid2 = Os.alloc_metadata tb.Testbed.os `Enclave in
  Result.get_ok
    (S.create_enclave sm ~caller:S.Os ~eid:eid2 ~evbase:0x50000 ~evsize:4096 ());
  check_bool "loading enclave" true
    (is_error (S.enter_enclave sm ~caller:S.Os ~eid:eid2 ~tid ~core:0))

let test_aex_saves_and_scrubs () =
  let tb = Testbed.create () in
  (* Load a distinctive value into a register, then spin. *)
  let open Hw.Isa in
  let image =
    Img.of_program ~evbase:0x10000 (li a5 0x5ec2e7 @ [ j 0 ])
  in
  let inst = install tb image in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  (match
     Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100000 ~quantum:200 ()
   with
  | Ok Os.Preempted -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected preemption");
  (* AEX state exists *)
  check_bool "aex saved" true
    (Option.get (S.thread_info tb.Testbed.sm ~tid)).S.i_has_aex;
  (* the architected state visible to the OS is scrubbed *)
  let c = Hw.Machine.core tb.Testbed.machine 0 in
  check_i64 "a5 scrubbed" 0L (Hw.Machine.read_reg c Hw.Isa.a5);
  check_i64 "pc scrubbed" 0L c.Hw.Machine.pc;
  check_bool "satp cleared" true (c.Hw.Machine.satp_root = None);
  check_bool "domain is untrusted" true
    (c.Hw.Machine.domain = Hw.Trap.domain_untrusted);
  (* private microarchitectural state flushed *)
  Alcotest.(check int) "tlb flushed" 0 (Hw.Tlb.entry_count c.Hw.Machine.tlb);
  (* re-entry signals the AEX dump via a0 = 1 *)
  match
    Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:50 ~quantum:10000 ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resume: %s" (E.to_string e)

let test_aex_flag_visible_to_enclave () =
  let tb = Testbed.create () in
  let open Hw.Isa in
  (* If a0 = 1 (resumed after AEX) exit immediately; else spin. *)
  let image =
    Img.of_program ~evbase:0x10000
      [
        Branch (Bne, a0, zero, 8);
        j 0;
        Op_imm (Add, a7, zero, 1);
        Ecall;
      ]
  in
  let inst = install tb image in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  (match
     Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100000 ~quantum:100 ()
   with
  | Ok Os.Preempted -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected preemption");
  match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:1000 () with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "enclave did not observe the AEX flag"

let test_exit_clears_aex () =
  let tb = Testbed.create () in
  let open Hw.Isa in
  let image =
    Img.of_program ~evbase:0x10000
      [ Branch (Bne, a0, zero, 8); j 0; Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let inst = install tb image in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  ignore (Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100000 ~quantum:100 ());
  ignore (Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:1000 ());
  check_bool "aex cleared after voluntary exit" false
    (Option.get (S.thread_info tb.Testbed.sm ~tid)).S.i_has_aex

let test_enclave_fault_without_handler () =
  let tb = Testbed.create () in
  let open Hw.Isa in
  (* touch an unmapped enclave address *)
  let image =
    Img.of_program ~evbase:0x10000 (li t0 0x18000 @ [ Load (Ld, a0, t0, 0) ])
  in
  let inst = install tb image in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:1000 () with
  | Ok (Os.Faulted (Hw.Trap.Exception (Hw.Trap.Page_fault _))) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected delegated page fault"

let test_enclave_fault_handler_delivery () =
  let tb = Testbed.create () in
  let open Hw.Isa in
  let evbase = 0x10000 in
  (* Entry: register the handler (at evbase+0x40) via ecall 9, then
     touch an unmapped page. The handler stores the fault address to
     the data page and exits cleanly. *)
  let entry =
    li a0 (evbase + 0x40)
    @ [ Op_imm (Add, a7, zero, S.Ecall.set_fault_handler); Ecall ]
    @ li t0 0x18000
    @ [ Load (Ld, t1, t0, 0); j 0 ]
  in
  let entry_padded = entry @ List.init (16 - List.length entry) (fun _ -> nop) in
  let handler =
    li t2 (evbase + 4096)
    @ [ Store (Sd, a0, t2, 0); Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  let image = Img.of_program ~evbase (entry_padded @ handler) in
  let inst = install tb image in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  Os.clear_delegated_events tb.Testbed.os;
  (match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:1000 () with
  | Ok Os.Exited -> ()
  | Ok o ->
      Alcotest.failf "expected handler-mediated exit, got %s"
        (match o with
        | Os.Preempted -> "preempted"
        | Os.Faulted _ -> "faulted"
        | Os.Fuel_exhausted -> "fuel"
        | Os.Killed -> "killed"
        | Os.Exited -> "exited")
  | Error e -> Alcotest.failf "run: %s" (E.to_string e));
  (* the OS never observed the fault *)
  let os_saw_fault =
    List.exists
      (function
        | Hw.Trap.Exception (Hw.Trap.Page_fault _) -> true
        | Hw.Trap.Exception _ | Hw.Trap.Interrupt _ -> false)
      (Os.delegated_events tb.Testbed.os)
  in
  check_bool "fault hidden from OS" false os_saw_fault

let test_ecall_mailbox_abi () =
  (* Two ISA enclaves exchange a message purely through the ecall ABI. *)
  let tb = Testbed.create () in
  let open Hw.Isa in
  let ev_r = 0x10000 in
  let ev_s = 0x40000 in
  (* The receiver is a real measured enclave; its accept/get side runs
     through the native path (the harness acting as the scheduled
     enclave), while the sender exercises the full ecall ABI. *)
  let recv_img =
    Img.of_program ~evbase:ev_r [ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let recv = install tb recv_img in
  let recv_eid = recv.Os.eid in
  (* Sender enclave: writes a message into its data page, sends it to
     recv_eid via the send_mail ecall. *)
  let msg_vaddr = ev_s + 4096 in
  let sender_prog =
    li t0 msg_vaddr
    @ li t1 0x42
    @ [ Store (Sd, t1, t0, 0) ]
    @ li a0 recv_eid
    @ li a1 msg_vaddr
    @ [ Op_imm (Add, a7, zero, S.Ecall.send_mail); Ecall ]
    @ [ mv s0 a0; Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  let sender_img = Img.of_program ~evbase:ev_s sender_prog in
  let sender = install tb sender_img in
  (* the receiver accepts the true sender *)
  Result.get_ok
    (S.accept_mail tb.Testbed.sm ~caller:(S.Enclave_caller recv_eid)
       ~sender:(Sanctorum.Mailbox.From_enclave sender.Os.eid));
  (* run the sender: its ecall must deposit the mail *)
  (match
     Os.run_enclave tb.Testbed.os ~eid:sender.Os.eid
       ~tid:(List.hd sender.Os.tids) ~core:0 ~fuel:1000 ()
   with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "sender did not exit");
  (* the receiver retrieves it (native path) and sees the sender's
     true measurement *)
  match
    S.get_mail tb.Testbed.sm ~caller:(S.Enclave_caller recv_eid)
      ~sender:(Sanctorum.Mailbox.From_enclave sender.Os.eid)
  with
  | Ok (msg, meas) ->
      check_i64 "message content" 0x42L
        (Sanctorum_util.Bytesx.get_u64_le msg 0);
      check_bool "sender measurement" true
        (meas = Img.measurement sender_img)
  | Error e -> Alcotest.failf "get_mail: %s" (E.to_string e)

let test_ecall_error_codes () =
  let tb = Testbed.create () in
  let open Hw.Isa in
  (* send_mail to a bogus recipient: a0 should come back nonzero, and
     the enclave stores it then exits. *)
  let prog =
    li a0 12345
    @ li a1 0x11000
    @ [ Op_imm (Add, a7, zero, S.Ecall.send_mail); Ecall; mv t0 a0 ]
    @ li t1 0x11000
    @ [ Store (Sd, t0, t1, 0); Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  let image = Img.of_program ~evbase:0x10000 prog in
  let inst = install tb image in
  (match
     Os.run_enclave tb.Testbed.os ~eid:inst.Os.eid ~tid:(List.hd inst.Os.tids)
       ~core:0 ~fuel:1000 ()
   with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected exit");
  (* read the stored error code through the monitor's view *)
  let paddrs = Sanctorum_attack.Malicious_os.enclave_paddrs tb.Testbed.os ~eid:inst.Os.eid in
  let tables = List.length (Img.required_page_tables image) in
  let data_paddr = List.nth paddrs (tables + 1) in
  let v =
    Hw.Phys_mem.read_u64 (Hw.Machine.mem tb.Testbed.machine) data_paddr
  in
  check_bool "error code nonzero" true (v <> 0L)

let test_unknown_ecall () =
  let tb = Testbed.create () in
  let open Hw.Isa in
  let prog =
    [ Op_imm (Add, a7, zero, 999); Ecall; mv s0 a0;
      Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  let inst = install tb (Img.of_program ~evbase:0x10000 prog) in
  match
    Os.run_enclave tb.Testbed.os ~eid:inst.Os.eid ~tid:(List.hd inst.Os.tids)
      ~core:0 ~fuel:1000 ()
  with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "unknown ecall should return an error, not kill"

(* An output buffer is checked before the call that fills it: an ecall
   whose result has nowhere to go fails with code 1 (illegal argument)
   and consumes nothing. Each enclave spins after the failing ecall, so
   a short fuel budget stops it there. *)
let unmapped = 0x300000

let spin_after_failed_ecall tb ~eid ~tid run =
  match run tb.Testbed.os ~eid ~tid ~core:0 ~fuel:50 ?quantum:None () with
  | Ok Os.Fuel_exhausted ->
      check_i64 "ecall failed with illegal argument" 1L
        (Hw.Machine.read_reg (Hw.Machine.core tb.Testbed.machine 0) Hw.Isa.a0)
  | Ok _ -> Alcotest.fail "enclave left the spin loop"
  | Error e -> Alcotest.failf "run: %s" (E.to_string e)

let test_get_mail_bad_buffer backend () =
  let tb = Testbed.create ~backend () in
  let open Hw.Isa in
  let inst =
    install tb
      (Img.of_program ~evbase:0x10000
         (li a1 unmapped @ li a2 0x11000
         @ [ mv a0 zero; Op_imm (Add, a7, zero, S.Ecall.get_mail); Ecall; j 0 ]))
  in
  let eid = inst.Os.eid and sm = tb.Testbed.sm in
  let from_os = Sanctorum.Mailbox.From_os in
  Result.get_ok (S.accept_mail sm ~caller:(S.Enclave_caller eid) ~sender:from_os);
  Result.get_ok (S.send_mail sm ~caller:S.Os ~recipient:eid ~msg:"kept");
  spin_after_failed_ecall tb ~eid ~tid:(List.hd inst.Os.tids) Os.run_enclave;
  match S.get_mail sm ~caller:(S.Enclave_caller eid) ~sender:from_os with
  | Ok (msg, _) -> check_bool "message intact" true (String.sub msg 0 4 = "kept")
  | Error e -> Alcotest.failf "message lost: %s" (E.to_string e)

let test_read_aex_state_bad_buffer backend () =
  let tb = Testbed.create ~backend () in
  let open Hw.Isa in
  (* spin until preempted; on resume (a0 = 1) read the dump into an
     unmapped buffer *)
  let inst =
    install tb
      (Img.of_program ~evbase:0x10000
         ([ Branch (Bne, a0, zero, 8); j 0 ]
         @ li a1 unmapped @ [ mv a0 zero ]
         @ [ Op_imm (Add, a7, zero, S.Ecall.read_aex_state); Ecall; j 0 ]))
  in
  let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
  (match
     Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100000 ~quantum:200 ()
   with
  | Ok Os.Preempted -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected preemption");
  spin_after_failed_ecall tb ~eid ~tid Os.run_enclave;
  check_bool "AEX dump kept" true
    (Option.get (S.thread_info tb.Testbed.sm ~tid)).S.i_has_aex

let suite =
  ( "execution",
    [
      Alcotest.test_case "enter/exit roundtrip" `Quick test_enter_exit_roundtrip;
      Alcotest.test_case "enter validation" `Quick test_enter_validation;
      Alcotest.test_case "AEX saves and scrubs" `Quick test_aex_saves_and_scrubs;
      Alcotest.test_case "AEX flag visible on re-entry" `Quick
        test_aex_flag_visible_to_enclave;
      Alcotest.test_case "exit clears AEX state" `Quick test_exit_clears_aex;
      Alcotest.test_case "fault without handler delegates" `Quick
        test_enclave_fault_without_handler;
      Alcotest.test_case "fault handler delivery" `Quick
        test_enclave_fault_handler_delivery;
      Alcotest.test_case "ecall mailbox ABI" `Quick test_ecall_mailbox_abi;
      Alcotest.test_case "ecall error codes" `Quick test_ecall_error_codes;
      Alcotest.test_case "unknown ecall tolerated" `Quick test_unknown_ecall;
      Alcotest.test_case "get_mail: bad buffer keeps the message (sanctum)" `Quick
        (test_get_mail_bad_buffer Testbed.Sanctum_backend);
      Alcotest.test_case "get_mail: bad buffer keeps the message (keystone)" `Quick
        (test_get_mail_bad_buffer Testbed.Keystone_backend);
      Alcotest.test_case "read_aex_state: bad buffer keeps the dump (sanctum)"
        `Quick (test_read_aex_state_bad_buffer Testbed.Sanctum_backend);
      Alcotest.test_case "read_aex_state: bad buffer keeps the dump (keystone)"
        `Quick (test_read_aex_state_bad_buffer Testbed.Keystone_backend);
    ] )
