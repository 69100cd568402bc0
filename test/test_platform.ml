(* Platform backends (paper §VII): Sanctum DRAM regions + LLC coloring,
   Keystone PMP. Experiment P1's correctness half. *)
module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_sanctum_granularity () =
  let tb = Testbed.create ~backend:Testbed.Sanctum_backend () in
  let pf = tb.Testbed.platform in
  check_int "region size" (16 * 1024 * 1024 / 64) pf.Pf.Platform.alloc_unit;
  check_bool "llc partitioned" true pf.Pf.Platform.llc_partitioned;
  (* grants must be region-aligned *)
  (match pf.Pf.Platform.assign_range ~lo:4096 ~hi:8192 5 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "sub-region grant accepted");
  match
    pf.Pf.Platform.assign_range ~lo:pf.Pf.Platform.alloc_unit
      ~hi:(2 * pf.Pf.Platform.alloc_unit)
      5
  with
  | Ok () ->
      check_int "owner updated" 5
        (pf.Pf.Platform.owner_at ~paddr:(pf.Pf.Platform.alloc_unit + 100))
  | Error m -> Alcotest.fail m

let test_keystone_granularity () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let pf = tb.Testbed.platform in
  check_int "page granularity" 4096 pf.Pf.Platform.alloc_unit;
  check_bool "llc shared" false pf.Pf.Platform.llc_partitioned;
  match pf.Pf.Platform.assign_range ~lo:(1024 * 1024) ~hi:(1024 * 1024 + 4096) 5 with
  | Ok () ->
      check_int "owner updated" 5 (pf.Pf.Platform.owner_at ~paddr:(1024 * 1024))
  | Error m -> Alcotest.fail m

let test_sm_memory_reserved () =
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      let pf = tb.Testbed.platform in
      check_int
        (Testbed.backend_name backend ^ " sm owns bottom")
        Hw.Trap.domain_sm
        (pf.Pf.Platform.owner_at ~paddr:0))
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

let test_sanctum_llc_coloring_disjoint () =
  let tb = Testbed.create ~backend:Testbed.Sanctum_backend () in
  let l2 = Hw.Machine.l2 tb.Testbed.machine in
  let region_bytes = tb.Testbed.platform.Pf.Platform.alloc_unit in
  (* Any two addresses in different regions map to different sets. *)
  let ok = ref true in
  for r1 = 0 to 7 do
    for r2 = 0 to 7 do
      if r1 <> r2 then
        for off = 0 to 3 do
          let a1 = (r1 * region_bytes) + (off * 64) in
          let a2 = (r2 * region_bytes) + (off * 64) in
          if Hw.Cache.set_of_paddr l2 a1 = Hw.Cache.set_of_paddr l2 a2 then
            ok := false
        done
    done
  done;
  check_bool "distinct regions, disjoint sets" true !ok

let test_keystone_llc_shared () =
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let l2 = Hw.Machine.l2 tb.Testbed.machine in
  (* Two addresses 64 KiB apart (same index bits) share a set. *)
  let sets = (Hw.Cache.config l2).Hw.Cache.sets in
  let a1 = 1024 * 1024 in
  let a2 = a1 + (sets * 64) in
  check_int "same set across owners" (Hw.Cache.set_of_paddr l2 a1)
    (Hw.Cache.set_of_paddr l2 a2)

let test_enter_domain_flushes () =
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      let pf = tb.Testbed.platform in
      let c = Hw.Machine.core tb.Testbed.machine 0 in
      ignore (Hw.Cache.access c.Hw.Machine.l1 ~paddr:0x200000);
      Hw.Tlb.insert c.Hw.Machine.tlb ~vpn:5 ~ppn:9
        ~perms:{ Hw.Tlb.r = true; w = false; x = false; u = true };
      pf.Pf.Platform.enter_domain ~core:c 7;
      check_bool "l1 flushed" false
        (Hw.Cache.probe c.Hw.Machine.l1 ~paddr:0x200000);
      check_int "tlb flushed" 0 (Hw.Tlb.entry_count c.Hw.Machine.tlb);
      check_int "domain set" 7 c.Hw.Machine.domain;
      pf.Pf.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted)
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

let test_clean_range_zeroes () =
  let tb = Testbed.create () in
  let pf = tb.Testbed.platform in
  let mem = Hw.Machine.mem tb.Testbed.machine in
  let unit = pf.Pf.Platform.alloc_unit in
  Hw.Phys_mem.write_string mem ~pos:(4 * unit) "secret-residue";
  pf.Pf.Platform.clean_range ~lo:(4 * unit) ~hi:(5 * unit);
  Alcotest.(check string)
    "zeroed"
    (String.make 14 '\000')
    (Hw.Phys_mem.read_string mem ~pos:(4 * unit) ~len:14)

let test_keystone_pmp_programming () =
  (* After entering an enclave domain on a core, that core's PMP permits
     the enclave range and still denies the monitor's memory. *)
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let pf = tb.Testbed.platform in
  let base = 2 * 1024 * 1024 in
  (match pf.Pf.Platform.assign_range ~lo:base ~hi:(base + 8192) 9 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let c = Hw.Machine.core tb.Testbed.machine 0 in
  pf.Pf.Platform.enter_domain ~core:c 9;
  check_bool "own range allowed" true
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:base);
  check_bool "sm memory denied" false
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:0x100);
  check_bool "os memory reachable" true
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:(1024 * 1024));
  (* a second enclave's range is denied on this core *)
  let base2 = 4 * 1024 * 1024 in
  (match pf.Pf.Platform.assign_range ~lo:base2 ~hi:(base2 + 4096) 10 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_bool "foreign enclave denied" false
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:base2);
  (* back to the OS: both enclave ranges now denied *)
  pf.Pf.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted;
  check_bool "enclave denied to OS" false
    (Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
       ~paddr:base)

let test_dma_checks_both () =
  List.iter
    (fun backend ->
      let tb = Testbed.create ~backend () in
      let m = tb.Testbed.machine in
      (* DMA into OS memory is fine; into monitor memory is not. *)
      (match Hw.Machine.dma_write m ~paddr:(1024 * 1024) "x" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "dma to OS memory denied");
      match Hw.Machine.dma_write m ~paddr:0x100 "x" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "dma to monitor memory allowed")
    [ Testbed.Sanctum_backend; Testbed.Keystone_backend ]

(* Differential: the Keystone PMP layout against the owner-map rule it
   encodes. Allows, denies and the monitor's entry come from one
   partition of memory, so they never overlap and their order cannot
   change a decision — only overflow can, and it must fail closed. *)

let small_mem = 1024 * 1024
let page = Hw.Phys_mem.page_size
let sm_pages = Pf.Platform.sm_memory_bytes / page
let mem_pages = small_mem / page

(* 1 is the OS; 2..6 are enclaves. *)
let gen_domain = QCheck2.Gen.int_range 1 6

(* A grant of [len] pages at page [start], above the monitor. *)
let gen_grant =
  QCheck2.Gen.(
    let* start = int_range sm_pages (mem_pages - 1) in
    let* len = int_range 1 (min 12 (mem_pages - start)) in
    let* d = gen_domain in
    return (start, len, d))

let gen_query =
  QCheck2.Gen.(
    triple gen_domain (int_range 0 (mem_pages - 1))
      (oneofl Hw.Trap.[ Read; Write; Execute ]))

let gen_scenario =
  QCheck2.Gen.(
    quad (int_range 3 24) gen_domain
      (list_size (int_range 0 40) gen_grant)
      (list_size (int_range 1 40) gen_query))

let print_scenario (entries, d0, grants, queries) =
  let acc = function
    | Hw.Trap.Read -> "r"
    | Hw.Trap.Write -> "w"
    | Hw.Trap.Execute -> "x"
  in
  Printf.sprintf "pmp=%d core0-domain=%d grants=[%s] queries=[%s]" entries d0
    (String.concat "; "
       (List.map (fun (s, l, d) -> Printf.sprintf "%d+%d->%d" s l d) grants))
    (String.concat "; "
       (List.map
          (fun (d, p, a) -> Printf.sprintf "d%d@%d:%s" d p (acc a))
          queries))

let qcheck_keystone_pmp_matches_owner_map =
  QCheck2.Test.make ~name:"keystone PMP decision = owner-map rule" ~count:300
    ~print:print_scenario gen_scenario
    (fun (entries, d0, grants, queries) ->
      let machine =
        Hw.Machine.create
          {
            Hw.Machine.default_config with
            mem_bytes = small_mem;
            cores = 1;
            pmp_entries = entries;
          }
      in
      let pf = Pf.Keystone.create machine in
      let c = Hw.Machine.core machine 0 in
      (* Enter before the grants: [assign_range] must reprogram a core
         already inside a domain. *)
      pf.Pf.Platform.enter_domain ~core:c d0;
      List.iter
        (fun (start, len, d) ->
          Result.get_ok
            (pf.Pf.Platform.assign_range ~lo:(start * page)
               ~hi:((start + len) * page)
               d))
        grants;
      let enclave_ranges =
        List.concat_map pf.Pf.Platform.ranges_of_domain [ 2; 3; 4; 5; 6 ]
      in
      (* entry 0 is the monitor's, the last the background allow *)
      let fits = List.length enclave_ranges <= entries - 2 in
      let decide d paddr access =
        if d <> c.Hw.Machine.domain then pf.Pf.Platform.enter_domain ~core:c d;
        Hw.Pmp.check c.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access ~paddr
      in
      let agrees (d, p, access) =
        let paddr = (p * page) + (p * 8 mod page) in
        let owner = pf.Pf.Platform.owner_at ~paddr in
        let allowed = decide d paddr access in
        if fits then
          allowed = (owner = d || owner = Hw.Trap.domain_untrusted)
        else
          (not allowed || owner = d)
          &&
          (* own ranges go first, so they survive when they fit *)
          (owner <> d || d = Hw.Trap.domain_untrusted
          || List.length (pf.Pf.Platform.ranges_of_domain d) > entries - 2
          || allowed)
      in
      (* The core has not been re-entered yet, so these check the
         reprogramming the grants did. *)
      List.for_all
        (fun p ->
          List.for_all (fun a -> agrees (d0, p, a)) Hw.Trap.[ Read; Write; Execute ])
        (List.init mem_pages Fun.id)
      && List.for_all agrees queries)

(* The cached range list against a fresh page scan, read between
   mutations so a stale cache would show. *)
let qcheck_owner_map_ranges_cache =
  QCheck2.Test.make ~name:"owner-map cached ranges = page scan" ~count:300
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(list_size (int_range 1 30) gen_grant)
    (fun grants ->
      let om =
        Pf.Owner_map.create
          (Hw.Phys_mem.create ~size:small_mem)
          ~initial_owner:Hw.Trap.domain_untrusted
      in
      let scan () =
        let rec go p acc =
          if p = mem_pages then List.rev acc
          else
            let d = Pf.Owner_map.owner_at om ~paddr:(p * page) in
            match acc with
            | (lo, hi, d') :: rest when d' = d && hi = p * page ->
                go (p + 1) ((lo, (p + 1) * page, d) :: rest)
            | _ -> go (p + 1) ((p * page, (p + 1) * page, d) :: acc)
        in
        go 0 []
      in
      let consistent () =
        let expected = scan () in
        let seen = ref [] in
        Pf.Owner_map.iter_ranges om (fun ~lo ~hi ~domain ->
            seen := (lo, hi, domain) :: !seen);
        List.rev !seen = expected
        && List.for_all
             (fun d ->
               Pf.Owner_map.domain_ranges om d
               = List.filter_map
                   (fun (lo, hi, d') -> if d' = d then Some (lo, hi) else None)
                   expected)
             [ 1; 2; 3; 4; 5; 6 ]
      in
      List.for_all
        (fun (start, len, d) ->
          Pf.Owner_map.set_range om ~lo:(start * page)
            ~hi:((start + len) * page)
            d;
          consistent ())
        grants)

let suite =
  ( "platform",
    [
      Alcotest.test_case "sanctum granularity" `Quick test_sanctum_granularity;
      Alcotest.test_case "keystone granularity" `Quick test_keystone_granularity;
      Alcotest.test_case "monitor memory reserved" `Quick test_sm_memory_reserved;
      Alcotest.test_case "sanctum LLC coloring disjoint" `Quick
        test_sanctum_llc_coloring_disjoint;
      Alcotest.test_case "keystone LLC shared" `Quick test_keystone_llc_shared;
      Alcotest.test_case "enter_domain flushes core state" `Quick
        test_enter_domain_flushes;
      Alcotest.test_case "clean_range zeroes memory" `Quick
        test_clean_range_zeroes;
      Alcotest.test_case "keystone PMP programming" `Quick
        test_keystone_pmp_programming;
      Alcotest.test_case "dma checks" `Quick test_dma_checks_both;
      QCheck_alcotest.to_alcotest qcheck_keystone_pmp_matches_owner_map;
      QCheck_alcotest.to_alcotest qcheck_owner_map_ranges_cache;
    ] )
