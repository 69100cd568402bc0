(* Fig. 3 conformance: the enclave lifecycle, and the measurement
   properties of §VI-A. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module E = Sanctorum.Api_error
module Img = Sanctorum.Image
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let is_error = function Error _ -> true | Ok _ -> false

let simple_image ?(evbase = 0x10000) ?(data_pages = 1) () =
  Img.of_program ~evbase ~data_pages
    Hw.Isa.[ Op_imm (Add, a7, zero, 1); Ecall ]

let test_legal_lifecycle () =
  let tb = Testbed.create () in
  match Os.install_enclave tb.Testbed.os (simple_image ()) with
  | Error e -> Alcotest.failf "install: %s" (E.to_string e)
  | Ok inst ->
      check_bool "initialized" true
        (Option.map
           (fun i -> i.S.i_initialized)
           (S.enclave_info tb.Testbed.sm ~eid:inst.Os.eid)
        = Some true);
      (match Os.reclaim_enclave tb.Testbed.os ~eid:inst.Os.eid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reclaim: %s" (E.to_string e));
      check_bool "gone" true
        (S.enclave_info tb.Testbed.sm ~eid:inst.Os.eid = None)

let test_create_validation () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let eid = Os.alloc_metadata tb.Testbed.os `Enclave in
  (* misaligned evrange *)
  check_bool "unaligned evbase" true
    (is_error
       (S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10001 ~evsize:4096 ()));
  check_bool "empty evrange" true
    (is_error (S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000 ~evsize:0 ()));
  check_bool "evrange beyond VA" true
    (is_error
       (S.create_enclave sm ~caller:S.Os ~eid ~evbase:(1 lsl 38)
          ~evsize:((1 lsl 38) + 4096) ()));
  (* metadata placement abuse *)
  check_bool "eid outside metadata area" true
    (is_error
       (S.create_enclave sm ~caller:S.Os ~eid:(2 * 1024 * 1024) ~evbase:0x10000
          ~evsize:4096 ()));
  (* valid create, then overlapping second enclave *)
  (match S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000 ~evsize:4096 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "create: %s" (E.to_string e));
  check_bool "same eid reused" true
    (is_error (S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000 ~evsize:4096 ()));
  check_bool "overlapping metadata slot" true
    (is_error
       (S.create_enclave sm ~caller:S.Os ~eid:(eid + 8) ~evbase:0x20000
          ~evsize:4096 ()));
  (* enclave cannot create enclaves *)
  check_bool "enclave caller" true
    (is_error
       (S.create_enclave sm ~caller:(S.Enclave_caller eid) ~eid:(eid + 4096)
          ~evbase:0x20000 ~evsize:4096 ()))

let test_loading_rules () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let os = tb.Testbed.os in
  let eid = Os.alloc_metadata os `Enclave in
  (match S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000 ~evsize:8192 () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "create: %s" (E.to_string e));
  (* no memory yet: page table allocation fails *)
  check_bool "no pages" true
    (is_error (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0 ~level:2));
  (* grant one unit *)
  let rid = List.hd (Os.alloc_units os ~count:1) in
  let ok_or_fail what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what (E.to_string e)
  in
  ok_or_fail "block" (S.block_resource sm ~caller:S.Os Sanctorum.Resource.Memory_resource ~rid);
  ok_or_fail "clean" (S.clean_resource sm ~caller:S.Os Sanctorum.Resource.Memory_resource ~rid);
  ok_or_fail "grant"
    (S.grant_resource sm ~caller:S.Os Sanctorum.Resource.Memory_resource ~rid
       ~to_:(S.To_enclave eid));
  (* init without page tables *)
  check_bool "init without root" true
    (is_error (S.init_enclave sm ~caller:S.Os ~eid));
  (* load_page before tables *)
  let src = Os.alloc_staging os ~bytes:4096 in
  check_bool "page before tables" true
    (is_error
       (S.load_page sm ~caller:S.Os ~eid ~vaddr:0x10000 ~src_paddr:src ~r:true
          ~w:false ~x:true));
  (* build tables root -> L1 -> L0 *)
  ok_or_fail "root" (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0 ~level:2);
  check_bool "double root" true
    (is_error (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0 ~level:2));
  ok_or_fail "l1" (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0x10000 ~level:1);
  ok_or_fail "l0" (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0x10000 ~level:0);
  (* load a page *)
  ok_or_fail "load"
    (S.load_page sm ~caller:S.Os ~eid ~vaddr:0x10000 ~src_paddr:src ~r:true
       ~w:false ~x:true);
  (* page tables after data: forbidden *)
  check_bool "tables after data" true
    (is_error (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0x30000 ~level:1));
  (* aliasing: same vaddr twice *)
  check_bool "vaddr alias" true
    (is_error
       (S.load_page sm ~caller:S.Os ~eid ~vaddr:0x10000 ~src_paddr:src ~r:true
          ~w:true ~x:false));
  (* outside evrange *)
  check_bool "outside evrange" true
    (is_error
       (S.load_page sm ~caller:S.Os ~eid ~vaddr:0x40000 ~src_paddr:src ~r:true
          ~w:true ~x:false));
  (* source must be untrusted memory: point it at the enclave's own unit *)
  let unit_base = rid * S.memory_unit_bytes sm in
  check_bool "enclave source rejected" true
    (is_error
       (S.load_page sm ~caller:S.Os ~eid ~vaddr:0x11000 ~src_paddr:unit_base
          ~r:true ~w:true ~x:false));
  (* seal *)
  ok_or_fail "init" (S.init_enclave sm ~caller:S.Os ~eid);
  check_bool "double init" true (is_error (S.init_enclave sm ~caller:S.Os ~eid));
  (* loading after init *)
  check_bool "load after init" true
    (is_error
       (S.load_page sm ~caller:S.Os ~eid ~vaddr:0x11000 ~src_paddr:src ~r:true
          ~w:true ~x:false));
  check_bool "measurement exists" true
    (match S.enclave_measurement sm ~eid with Ok m -> String.length m = 32 | Error _ -> false)

let test_delete_blocks_resources () =
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  match Os.install_enclave tb.Testbed.os (simple_image ()) with
  | Error e -> Alcotest.failf "install: %s" (E.to_string e)
  | Ok inst ->
      let domain = Result.get_ok (S.enclave_domain sm ~eid:inst.Os.eid) in
      (match S.delete_enclave sm ~caller:S.Os ~eid:inst.Os.eid with
      | Ok () -> ()
      | Error e -> Alcotest.failf "delete: %s" (E.to_string e));
      (* every unit previously owned is blocked, none owned *)
      let units = S.memory_units sm in
      let blocked = ref 0 in
      for rid = 0 to units - 1 do
        match S.resource_state sm Sanctorum.Resource.Memory_resource ~rid with
        | Ok (Sanctorum.Resource.Blocked d) when d = domain -> incr blocked
        | Ok (Sanctorum.Resource.Owned d) when d = domain ->
            Alcotest.fail "deleted enclave still owns memory"
        | Ok _ | Error _ -> ()
      done;
      check_bool "some units blocked" true (!blocked > 0)

let test_delete_running_rejected () =
  let tb = Testbed.create () in
  let image = Img.of_program ~evbase:0x10000 [ Hw.Isa.j 0 ] in
  match Os.install_enclave tb.Testbed.os image with
  | Error e -> Alcotest.failf "install: %s" (E.to_string e)
  | Ok inst ->
      let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
      (* run forever; fuel out leaves the thread scheduled *)
      (match Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:100 () with
      | Ok Os.Fuel_exhausted -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected fuel exhaustion");
      check_bool "delete while running" true
        (is_error (S.delete_enclave tb.Testbed.sm ~caller:S.Os ~eid))

(* ------------------------------------------------------------------ *)
(* Measurement properties *)

let test_measurement_physical_independence () =
  (* The same image loaded at different physical addresses (second
     install lands in different units) measures identically, and
     matches the pure Image.measurement. *)
  let tb = Testbed.create () in
  let image = simple_image () in
  let i1 = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  let i2 = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
  let m1 = Result.get_ok (S.enclave_measurement tb.Testbed.sm ~eid:i1.Os.eid) in
  let m2 = Result.get_ok (S.enclave_measurement tb.Testbed.sm ~eid:i2.Os.eid) in
  check_bool "equal across placements" true (m1 = m2);
  check_bool "matches pure computation" true (m1 = Img.measurement image)

let test_measurement_sensitivity () =
  let base = simple_image () in
  let m0 = Img.measurement base in
  (* content change *)
  let other_prog =
    Img.of_program ~evbase:0x10000 Hw.Isa.([ nop; Op_imm (Add, a7, zero, 1); Ecall ])
  in
  check_bool "contents change hash" true (Img.measurement other_prog <> m0);
  (* virtual base change *)
  let moved = simple_image ~evbase:0x20000 () in
  check_bool "evbase changes hash" true (Img.measurement moved <> m0);
  (* extra data page *)
  let bigger = simple_image ~data_pages:2 () in
  check_bool "layout changes hash" true (Img.measurement bigger <> m0);
  (* permissions change *)
  let flip_perms (img : Img.t) =
    match img.Img.pages with
    | p :: rest ->
        { img with Img.pages = { p with Img.w = not p.Img.w } :: rest }
    | [] -> img
  in
  check_bool "perms change hash" true (Img.measurement (flip_perms base) <> m0);
  (* thread entry change *)
  let thread_moved =
    { base with Img.threads = [ (0x10004L, 0x11ff0L) ] }
  in
  check_bool "entry changes hash" true (Img.measurement thread_moved <> m0);
  (* mailbox count change *)
  let mail = { base with Img.mailbox_slots = 8 } in
  check_bool "mailboxes change hash" true (Img.measurement mail <> m0)

let test_measurement_monotonic_load_enforced () =
  (* Grant two units, then try to make the monitor allocate downward by
     granting a lower unit after pages were consumed from a higher one:
     the ascending-order rule must reject it. *)
  let tb = Testbed.create () in
  let sm = tb.Testbed.sm in
  let os = tb.Testbed.os in
  let eid = Os.alloc_metadata os `Enclave in
  Result.get_ok (S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000 ~evsize:4096 ());
  let units = Os.alloc_units os ~count:2 in
  let lo, hi = (List.nth units 0, List.nth units 1) in
  let prep rid =
    Result.get_ok (S.block_resource sm ~caller:S.Os Sanctorum.Resource.Memory_resource ~rid);
    Result.get_ok (S.clean_resource sm ~caller:S.Os Sanctorum.Resource.Memory_resource ~rid)
  in
  prep lo;
  prep hi;
  (* grant the higher unit first *)
  Result.get_ok
    (S.grant_resource sm ~caller:S.Os Sanctorum.Resource.Memory_resource ~rid:hi
       ~to_:(S.To_enclave eid));
  Result.get_ok (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0 ~level:2);
  (* now grant the lower one: its pages would violate ascending order *)
  Result.get_ok
    (S.grant_resource sm ~caller:S.Os Sanctorum.Resource.Memory_resource ~rid:lo
       ~to_:(S.To_enclave eid));
  match S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr:0x10000 ~level:1 with
  | Error (E.Invalid_state _) -> ()
  | Ok () -> Alcotest.fail "descending physical load accepted"
  | Error e -> Alcotest.failf "unexpected error: %s" (E.to_string e)

(* A rejected map_shared maps nothing: the monitor resolves and probes
   every page's leaf slot before it writes any PTE. The 2-page window at
   0x1FF000 straddles two level-0 tables, and the second one does not
   exist yet. *)
let test_map_shared_all_or_nothing backend () =
  let tb = Testbed.create ~backend () in
  let sm = tb.Testbed.sm and os = tb.Testbed.os in
  let ok what = function
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s" what (E.to_string e)
  in
  let eid = Os.alloc_metadata os `Enclave in
  ok "create"
    (S.create_enclave sm ~caller:S.Os ~eid ~evbase:0x10000 ~evsize:4096 ());
  let memory = Sanctorum.Resource.Memory_resource in
  let ub = Os.unit_bytes os in
  List.iter
    (fun rid ->
      ok "block" (S.block_resource sm ~caller:S.Os memory ~rid);
      ok "clean" (S.clean_resource sm ~caller:S.Os memory ~rid);
      ok "grant"
        (S.grant_resource sm ~caller:S.Os memory ~rid ~to_:(S.To_enclave eid)))
    (Os.alloc_units os ~count:(((4 * 4096) + ub - 1) / ub));
  let table ~vaddr ~level =
    ok "table" (S.allocate_page_table sm ~caller:S.Os ~eid ~vaddr ~level)
  in
  table ~vaddr:0 ~level:2;
  table ~vaddr:0 ~level:1;
  table ~vaddr:0 ~level:0;
  let window = 0x1FF000 and src_paddr = Os.alloc_staging os ~bytes:8192 in
  let map () =
    S.map_shared sm ~caller:S.Os ~eid ~vaddr:window ~src_paddr ~len:8192
  in
  (match map () with
  | Error (E.Invalid_state "missing intermediate page table") -> ()
  | Error e -> Alcotest.failf "unexpected rejection: %s" (E.to_string e)
  | Ok () -> Alcotest.fail "window over a missing table accepted");
  let root =
    match S.enclave_info sm ~eid with
    | Some { S.i_root_ppn = Some root; _ } -> root
    | Some _ | None -> Alcotest.fail "enclave has no root table"
  in
  check_bool "rejected call left no mapping" true
    (is_error
       (fst
          (Hw.Page_table.walk (Hw.Machine.mem tb.Testbed.machine)
             ~root_ppn:root ~vaddr:window ~pte_fetch_ok:(fun _ -> true))));
  table ~vaddr:0x200000 ~level:0;
  ok "same window once the table exists" (map ())

let suite =
  ( "enclave-fig3",
    [
      Alcotest.test_case "legal lifecycle" `Quick test_legal_lifecycle;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "loading rules" `Quick test_loading_rules;
      Alcotest.test_case "delete blocks resources" `Quick
        test_delete_blocks_resources;
      Alcotest.test_case "delete running thread rejected" `Quick
        test_delete_running_rejected;
      Alcotest.test_case "measurement: physical independence" `Quick
        test_measurement_physical_independence;
      Alcotest.test_case "measurement: sensitivity" `Quick
        test_measurement_sensitivity;
      Alcotest.test_case "measurement: ascending loads" `Quick
        test_measurement_monotonic_load_enforced;
      Alcotest.test_case "rejected map_shared maps nothing (sanctum)" `Quick
        (test_map_shared_all_or_nothing Testbed.Sanctum_backend);
      Alcotest.test_case "rejected map_shared maps nothing (keystone)" `Quick
        (test_map_shared_all_or_nothing Testbed.Keystone_backend);
    ] )
