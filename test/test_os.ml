(* The untrusted OS model itself: allocators, loader determinism,
   recycling, untrusted program execution. (Nothing here is trusted —
   these tests pin the harness the experiments stand on.) *)
module Hw = Sanctorum_hw
module Img = Sanctorum.Image
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_unit_allocator () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let a = Os.alloc_units os ~count:3 in
  check_int "three units" 3 (List.length a);
  (* ascending and contiguous *)
  (match a with
  | [ x; y; z ] ->
      check_bool "contiguous" true (y = x + 1 && z = y + 1)
  | _ -> Alcotest.fail "wrong shape");
  let b = Os.alloc_units os ~count:2 in
  check_bool "disjoint" true
    (List.for_all (fun u -> not (List.mem u a)) b);
  Os.free_units os a;
  let c = Os.alloc_units os ~count:3 in
  check_bool "reuses freed units" true (c = a)

let test_metadata_recycling () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  let image =
    Img.of_program ~evbase:0x10000
      Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let i1 = Result.get_ok (Os.install_enclave os image) in
  let eid1 = i1.Os.eid in
  Result.get_ok (Os.reclaim_enclave os ~eid:eid1);
  let i2 = Result.get_ok (Os.install_enclave os image) in
  check_int "slot recycled" eid1 i2.Os.eid;
  (* many install/reclaim cycles neither leak metadata nor units *)
  for _ = 1 to 300 do
    let i = Result.get_ok (Os.install_enclave os image) in
    Result.get_ok (Os.reclaim_enclave os ~eid:i.Os.eid)
  done;
  check_bool "still installable" true
    (Result.is_ok (Os.install_enclave os image))

let test_untrusted_program () =
  let tb = Testbed.create () in
  let open Hw.Isa in
  (* compute 7 * 9 in user mode under OS page tables *)
  let code = li t0 7 @ li t1 9 @ [ Mul (a0, t0, t1); Ecall ] in
  let outcome, result = Os.run_untrusted_program tb.Testbed.os ~code ~core:0 ~fuel:100 () in
  check_bool "exited" true (outcome = Os.Exited);
  Alcotest.(check int64) "result" 63L result;
  (* a fault in user code is delegated, not fatal to the harness *)
  let bad = li t0 0x7ffff000 @ [ Load (Ld, a0, t0, 0); Ecall ] in
  let outcome2, _ = Os.run_untrusted_program tb.Testbed.os ~code:bad ~core:0 ~fuel:100 () in
  (match outcome2 with
  | Os.Faulted (Hw.Trap.Exception (Hw.Trap.Page_fault _)) -> ()
  | Os.Faulted _ | Os.Exited | Os.Preempted | Os.Fuel_exhausted | Os.Killed ->
      Alcotest.fail "expected page fault")

let test_testbed_determinism () =
  (* identical seeds give identical monitor identities and enclave ids *)
  let boot seed =
    let tb = Testbed.create ~seed () in
    let pk = Sanctorum.Sm.get_field tb.Testbed.sm Sanctorum.Sm.Field_public_key in
    let image =
      Img.of_program ~evbase:0x10000
        Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
    in
    let i = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
    (pk, i.Os.eid)
  in
  let pk1, eid1 = boot "alpha" in
  let pk2, eid2 = boot "alpha" in
  let pk3, _ = boot "beta" in
  check_bool "same seed, same identity" true (pk1 = pk2 && eid1 = eid2);
  check_bool "different seed, different identity" true (pk1 <> pk3)

(* Filling the unit pool used to raise [Out_of_memory] out of
   [install_enclave] after [create_enclave] had succeeded, leaving the
   monitor with an enclave whose eid the OS never learned. On sanctum
   (large units) the pool runs dry after a few dozen installs: the next
   install must return [Out_of_resources] and leave nothing behind. *)
let test_install_exhaustion () =
  let tb = Testbed.create ~backend:Testbed.Sanctum_backend () in
  let os = tb.Testbed.os and sm = tb.Testbed.sm in
  let image =
    Img.of_program ~evbase:0x10000 ~data_pages:1
      Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]
  in
  let enclaves () = List.length (Sanctorum.Sm.enclaves sm) in
  let before = enclaves () and free0 = Os.free_unit_count os in
  let rec fill eids =
    if List.length eids > 10_000 then Alcotest.fail "the pool never ran dry";
    match Os.install_enclave os image with
    | Ok i -> fill (i.Os.eid :: eids)
    | Error (Sanctorum.Api_error.Out_of_resources _) -> eids
    | Error e ->
        Alcotest.failf "install: %s" (Sanctorum.Api_error.to_string e)
  in
  let eids = fill [] in
  check_bool "some installs fit" true (eids <> []);
  check_int "the monitor holds only the successful installs"
    (before + List.length eids) (enclaves ());
  let free_full = Os.free_unit_count os in
  check_bool "a retry fails the same way" true
    (match Os.install_enclave os image with
    | Error (Sanctorum.Api_error.Out_of_resources _) -> true
    | Ok _ | Error _ -> false);
  check_int "no enclave leaked by the retry" (before + List.length eids)
    (enclaves ());
  check_int "no unit leaked by the retry" free_full (Os.free_unit_count os);
  List.iter
    (fun eid -> Result.get_ok (Os.reclaim_enclave os ~eid))
    eids;
  check_int "reclaiming everything restores the pool" free0
    (Os.free_unit_count os);
  check_int "no enclave left" before (enclaves ());
  check_bool "installable again" true
    (Result.is_ok (Os.install_enclave os image))

let test_delegated_event_log () =
  let tb = Testbed.create () in
  let os = tb.Testbed.os in
  Os.clear_delegated_events os;
  let code = Hw.Isa.[ Ecall ] in
  let _ = Os.run_untrusted_program os ~code ~core:0 ~fuel:10 () in
  check_int "one event" 1 (List.length (Os.delegated_events os));
  Os.clear_delegated_events os;
  check_int "cleared" 0 (List.length (Os.delegated_events os))

let suite =
  ( "os",
    [
      Alcotest.test_case "unit allocator" `Quick test_unit_allocator;
      Alcotest.test_case "metadata recycling" `Quick test_metadata_recycling;
      Alcotest.test_case "untrusted program" `Quick test_untrusted_program;
      Alcotest.test_case "testbed determinism" `Quick test_testbed_determinism;
      Alcotest.test_case "install: pool exhaustion returns Out_of_resources"
        `Quick test_install_exhaustion;
      Alcotest.test_case "delegated event log" `Quick test_delegated_event_log;
    ] )
