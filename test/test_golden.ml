(* The monitor's event stream, pinned. One small honest scenario per
   backend runs with a recording sink; its [Tel.Export.jsonl] must equal
   test/golden/trace-<backend>.jsonl line for line. The scenario takes
   every path of the trap funnel, the lock discipline and both enclave
   teardowns, so a change that drops, reorders or re-renders a monitor
   event fails here, naming the first line that differs. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module Img = Sanctorum.Image
module Mailbox = Sanctorum.Mailbox
module Tel = Sanctorum_telemetry
open Sanctorum_os

let get what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Sanctorum.Api_error.to_string e)

let ecall n = Hw.Isa.[ Op_imm (Add, a7, zero, n); Ecall ]

let scenario backend =
  let sink = Tel.Sink.create () in
  let tb = Testbed.create ~backend ~sink () in
  let os = tb.Testbed.os and sm = tb.Testbed.sm in
  let install what img = get what (Os.install_enclave os img) in
  let run what ?quantum ~eid ~tid ~core want f =
    match f os ~eid ~tid ~core ~fuel:100_000 ?quantum () with
    | Ok o when want o -> ()
    | Ok _ -> Alcotest.failf "%s: unexpected run outcome" what
    | Error e -> Alcotest.failf "%s: %s" what (Sanctorum.Api_error.to_string e)
  in
  let exited = function Os.Exited -> true | _ -> false in
  let open Hw.Isa in
  (* grant, create, load and init: a mail recipient that never runs *)
  let b_base = 0x40000 in
  let b =
    install "install b" (Img.of_program ~evbase:b_base (ecall S.Ecall.exit_enclave))
  in
  (* the OS mails [e]; [e] collects it with get_mail, re-accepts the
     OS, forwards the message to [b] and exits *)
  let data = 0x10000 + 4096 in
  let e =
    install "install e"
      (Img.of_program ~evbase:0x10000
         (li a1 data @ li a2 (data + 256) @ [ mv a0 zero ]
         @ ecall S.Ecall.get_mail @ [ mv a0 zero ]
         @ ecall S.Ecall.accept_mail @ li a0 b.Os.eid @ li a1 data
         @ ecall S.Ecall.send_mail
         @ ecall S.Ecall.exit_enclave))
  in
  get "e accepts the OS"
    (S.accept_mail sm ~caller:(S.Enclave_caller e.Os.eid) ~sender:Mailbox.From_os);
  get "b accepts e"
    (S.accept_mail sm ~caller:(S.Enclave_caller b.Os.eid)
       ~sender:(Mailbox.From_enclave e.Os.eid));
  get "os mails e"
    (S.send_mail sm ~caller:S.Os ~recipient:e.Os.eid ~msg:"golden");
  run "e" ~eid:e.Os.eid ~tid:(List.hd e.Os.tids) ~core:0 exited Os.run_enclave;
  ignore
    (get "b reads e's mail"
       (S.get_mail sm ~caller:(S.Enclave_caller b.Os.eid)
          ~sender:(Mailbox.From_enclave e.Os.eid)));
  (* a timer AEX, then the resumed thread reads its own dump *)
  let a =
    install "install a"
      (Img.of_program ~evbase:0x80000
         ([ Branch (Bne, a0, zero, 8); j 0 ]
         @ li a1 (0x80000 + 4096)
         @ [ mv a0 zero ]
         @ ecall S.Ecall.read_aex_state
         @ ecall S.Ecall.exit_enclave))
  in
  let a_tid = List.hd a.Os.tids in
  run "a preempted" ~quantum:200 ~eid:a.Os.eid ~tid:a_tid ~core:1
    (function Os.Preempted -> true | _ -> false)
    Os.run_enclave;
  run "a resumed" ~eid:a.Os.eid ~tid:a_tid ~core:1 exited Os.run_enclave;
  (* a page fault the enclave's own handler takes *)
  let h_base = 0xc0000 in
  let entry =
    li a0 (h_base + 0x40)
    @ ecall S.Ecall.set_fault_handler
    @ li t0 0xf0000
    @ [ Load (Ld, t1, t0, 0); j 0 ]
  in
  let h =
    install "install h"
      (Img.of_program ~evbase:h_base
         (entry
         @ List.init (16 - List.length entry) (fun _ -> nop)
         @ ecall S.Ecall.exit_enclave))
  in
  run "h" ~eid:h.Os.eid ~tid:(List.hd h.Os.tids) ~core:2 exited Os.run_enclave;
  (* a page fault with no handler: AEX, then delegation to the OS *)
  let f =
    install "install f"
      (Img.of_program ~evbase:0x100000 (li t0 0x1f0000 @ [ Load (Ld, a0, t0, 0) ]))
  in
  run "f" ~eid:f.Os.eid ~tid:(List.hd f.Os.tids) ~core:3
    (function Os.Faulted _ -> true | _ -> false)
    Os.run_enclave;
  (* delete_enclave detaches f's thread (AEX dump pending); clean and
     free its memory back to the OS *)
  get "reclaim f" (Os.reclaim_enclave os ~eid:f.Os.eid);
  (* a double-bit fault in b's code: the patrol retires the word and
     emergency-reclaims b *)
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let code = Test_faults.frame_of tb ~eid:b.Os.eid ~vaddr:b_base in
  Hw.Phys_mem.inject_bit_flip mem ~paddr:code ~bit:1;
  Hw.Phys_mem.inject_bit_flip mem ~paddr:code ~bit:2;
  let _corrected, retired = S.patrol_scrub sm in
  Alcotest.(check int) "patrol retired the poisoned word" 1 retired;
  Tel.Export.jsonl (Tel.Sink.events sink)

let golden_path backend =
  let name = Printf.sprintf "trace-%s.jsonl" (Testbed.backend_name backend) in
  (* dune runtest runs from _build/default/test, with golden/ copied
     next to the test binary *)
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  with
  | Some p -> p
  | None -> Alcotest.failf "golden trace %s not found" name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines s = String.split_on_char '\n' s

let test_backend backend () =
  let path = golden_path backend in
  let want = lines (read_file path) and got = lines (scenario backend) in
  let rec cmp n want got =
    match (want, got) with
    | [], [] -> ()
    | w :: want, g :: got when w = g -> cmp (n + 1) want got
    | w :: _, g :: _ ->
        Alcotest.failf "%s line %d differs:\nwant %s\ngot  %s" path n w g
    | [], g :: _ -> Alcotest.failf "%s: extra line %d: %s" path n g
    | w :: _, [] -> Alcotest.failf "%s: missing line %d: %s" path n w
  in
  cmp 1 want got

let suite =
  ( "golden-trace",
    [
      Alcotest.test_case "sanctum event stream" `Quick
        (test_backend Testbed.Sanctum_backend);
      Alcotest.test_case "keystone event stream" `Quick
        (test_backend Testbed.Keystone_backend);
    ] )
