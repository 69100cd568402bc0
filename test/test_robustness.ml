(* Robustness corners: PMP entry exhaustion fails closed on Keystone,
   and dedicated (enclave-owned) cores of the Sanctum model. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module Img = Sanctorum.Image
module Atk = Sanctorum_attack
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let exit_prog = Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]

(* Install enough enclaves that a Keystone domain switch cannot fit one
   PMP entry per enclave range. The switch must fail closed — no foreign
   enclave and no OS memory reachable — while the incoming domain keeps
   its own memory, so an enclave still runs and its probe of a
   neighbour is stopped by PMP, not by an earlier fetch fault. *)
let test_keystone_pmp_exhaustion () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let os = tb.Testbed.os and sm = tb.Testbed.sm in
  let m = tb.Testbed.machine and pf = tb.Testbed.platform in
  let installs =
    List.init 18 (fun i ->
        Result.get_ok
          (Os.install_enclave os
             (Img.of_program ~evbase:(0x10000 + (i * 0x10000)) exit_prog)))
  in
  (* the machine is now far beyond 16 PMP entries of enclave ranges *)
  let victims = List.filteri (fun i _ -> i < 6) installs in
  List.iter
    (fun (v : Os.installed) ->
      let paddr = List.hd (Atk.Malicious_os.enclave_paddrs os ~eid:v.Os.eid) in
      match Atk.Malicious_os.os_load os ~core:1 ~paddr with
      | Atk.Malicious_os.Denied -> ()
      | Atk.Malicious_os.Leaked _ ->
          Alcotest.fail "PMP exhaustion leaked enclave memory to the OS")
    victims;
  (* The spy loads from its own data page after its leaf PTE has been
     re-aimed at a neighbour's frame — the only way code inside an
     enclave can name that frame, and a corruption the monitor's
     page-table invariant would flag (see [Testbed.corrupt_page_table]).
     Translation succeeds, so only PMP stands between the load and the
     neighbour. *)
  let b = List.nth installs 17 in
  let b_page = List.hd (Atk.Malicious_os.enclave_paddrs os ~eid:b.Os.eid) in
  let data_vaddr = 0x200000 + Hw.Phys_mem.page_size in
  let setup = Hw.Isa.li Hw.Isa.t0 data_vaddr in
  let prog = setup @ Hw.Isa.[ Load (Ld, a0, t0, 0) ] @ exit_prog in
  let spy =
    Result.get_ok
      (Os.install_enclave os (Img.of_program ~evbase:0x200000 prog))
  in
  (match S.enclave_info sm ~eid:spy.Os.eid with
  | Some { S.i_root_ppn = Some root; _ } ->
      let mem = Hw.Machine.mem m in
      ignore (Hw.Page_table.unmap mem ~root_ppn:root ~vaddr:data_vaddr);
      Hw.Page_table.map mem ~root_ppn:root ~vaddr:data_vaddr
        ~ppn:(b_page / Hw.Phys_mem.page_size)
        ~perms:{ Hw.Page_table.r = true; w = true; x = false; u = true }
        ~alloc_table:(fun () -> Alcotest.fail "spy data page had no table")
  | Some _ | None -> Alcotest.fail "spy has no page table");
  let c0 = Hw.Machine.core m 0 in
  let instret0 = c0.Hw.Machine.instret in
  (match
     Os.run_enclave os ~eid:spy.Os.eid ~tid:(List.hd spy.Os.tids) ~core:0
       ~fuel:1000 ()
   with
  | Ok (Os.Faulted (Hw.Trap.Exception (Hw.Trap.Access_fault (Hw.Trap.Read, va))))
    ->
      check_int "fault at the load" data_vaddr (Int64.to_int va)
  | Ok Os.Exited -> Alcotest.fail "spy enclave read a neighbour's memory"
  | Ok (Os.Faulted c) ->
      Alcotest.failf "spy faulted before its load: %a" Hw.Trap.pp_cause c
  | Ok _ | Error _ -> Alcotest.fail "unexpected outcome");
  check_int "spy retired its li sequence" (List.length setup)
    (c0.Hw.Machine.instret - instret0);
  (* The same layout, checked address by address on a fresh core. *)
  let c = Hw.Machine.core m 2 in
  let allowed access paddr =
    Result.is_ok
      (Hw.Machine.translate m c ~access ~vaddr:(Int64.of_int paddr))
  in
  let accesses = Hw.Trap.[ Read; Write; Execute ] in
  let pages (i : Os.installed) =
    Atk.Malicious_os.enclave_paddrs os ~eid:i.Os.eid
  in
  let each_page_access installs f =
    List.iter
      (fun i -> List.iter (fun p -> List.iter (fun a -> f a p) accesses) (pages i))
      installs
  in
  let spy_domain = Result.get_ok (S.enclave_domain sm ~eid:spy.Os.eid) in
  pf.Sanctorum_platform.Platform.enter_domain ~core:c spy_domain;
  each_page_access [ spy ] (fun a p ->
      check_bool (Printf.sprintf "own page 0x%x allowed" p) true (allowed a p));
  each_page_access installs (fun a p ->
      check_bool
        (Printf.sprintf "foreign page 0x%x denied" p)
        false (allowed a p));
  check_bool "no background allow on overflow" false
    (allowed Hw.Trap.Read (1024 * 1024));
  pf.Sanctorum_platform.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted;
  each_page_access (spy :: installs) (fun a p ->
      check_bool
        (Printf.sprintf "enclave page 0x%x denied to the OS" p)
        false (allowed a p))

(* §V-B: cores are first-class resources. A core granted to an enclave
   is usable by that enclave and refused to others. *)
let test_dedicated_core () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let sm = tb.Testbed.sm in
  let i1 =
    Result.get_ok (Os.install_enclave os (Img.of_program ~evbase:0x10000 exit_prog))
  in
  let i2 =
    Result.get_ok (Os.install_enclave os (Img.of_program ~evbase:0x40000 exit_prog))
  in
  let e1 = i1.Os.eid and e2 = i2.Os.eid in
  let kind = Sanctorum.Resource.Core_resource in
  (* dedicate core 3 to e1 *)
  Result.get_ok (S.block_resource sm ~caller:S.Os kind ~rid:3);
  Result.get_ok (S.clean_resource sm ~caller:S.Os kind ~rid:3);
  Result.get_ok (S.grant_resource sm ~caller:S.Os kind ~rid:3 ~to_:(S.To_enclave e1));
  Result.get_ok (S.accept_resource sm ~caller:(S.Enclave_caller e1) kind ~rid:3);
  (* e1 runs on its core *)
  (match Os.run_enclave os ~eid:e1 ~tid:(List.hd i1.Os.tids) ~core:3 ~fuel:100 () with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "owner enclave refused its dedicated core");
  (* e2 is refused on e1's core *)
  (match S.enter_enclave sm ~caller:S.Os ~eid:e2 ~tid:(List.hd i2.Os.tids) ~core:3 with
  | Error Sanctorum.Api_error.Unauthorized -> ()
  | Ok () -> Alcotest.fail "foreign enclave scheduled on a dedicated core"
  | Error e -> Alcotest.failf "unexpected: %s" (Sanctorum.Api_error.to_string e));
  (* e2 still runs on a time-multiplexed core *)
  match Os.run_enclave os ~eid:e2 ~tid:(List.hd i2.Os.tids) ~core:0 ~fuel:100 () with
  | Ok Os.Exited -> ()
  | Ok _ | Error _ -> Alcotest.fail "e2 refused a shared core"

(* Image validation corners. *)
let test_image_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> true
    | (_ : Img.t) -> false
  in
  check_bool "unaligned evbase" true
    (bad (fun () -> Img.make ~evbase:100 ~evsize:4096 []));
  check_bool "page outside evrange" true
    (bad (fun () ->
         Img.make ~evbase:0x10000 ~evsize:4096
           [ { Img.vaddr = 0x20000; r = true; w = false; x = false; contents = "" } ]));
  check_bool "oversized contents" true
    (bad (fun () ->
         Img.make ~evbase:0x10000 ~evsize:4096
           [ { Img.vaddr = 0x10000; r = true; w = false; x = false;
               contents = String.make 5000 'x' } ]));
  check_bool "shared overlapping evrange" true
    (bad (fun () ->
         Img.make ~evbase:0x10000 ~evsize:8192 ~shared:[ (0x11000, 4096) ] []));
  check_bool "program too large" true
    (bad (fun () ->
         Img.of_program ~evbase:0x10000
           (List.init 2000 (fun _ -> Hw.Isa.nop))))

let suite =
  ( "robustness",
    [
      Alcotest.test_case "keystone PMP exhaustion fails closed" `Quick
        test_keystone_pmp_exhaustion;
      Alcotest.test_case "dedicated cores" `Quick test_dedicated_core;
      Alcotest.test_case "image validation" `Quick test_image_validation;
    ] )
