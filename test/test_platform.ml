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
      ignore (Hw.Cache.access_hit c.Hw.Machine.l1 ~paddr:0x200000);
      ignore
        (Hw.Tlb.insert c.Hw.Machine.tlb ~vpn:5 ~ppn:9
           ~perms:
             (Hw.Page_table.perm_bits
                { Hw.Page_table.r = true; w = false; x = false; u = true }));
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

(* A user-mode access decision as an access gets it: the installed
   check, through a translation with paging off. A core's PMP entries
   are written on its first check after its domain or the owner map
   moved, so reading them directly would see a stale layout. *)
let allowed machine (c : Hw.Machine.core) access paddr =
  Result.is_ok
    (Hw.Machine.translate machine c ~access ~vaddr:(Int64.of_int paddr))

let test_keystone_pmp_programming () =
  (* After entering an enclave domain on a core, that core's PMP permits
     the enclave range and still denies the monitor's memory. *)
  let tb = Testbed.create ~backend:Testbed.Keystone_backend () in
  let pf = tb.Testbed.platform and m = tb.Testbed.machine in
  let base = 2 * 1024 * 1024 in
  (match pf.Pf.Platform.assign_range ~lo:base ~hi:(base + 8192) 9 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let c = Hw.Machine.core m 0 in
  pf.Pf.Platform.enter_domain ~core:c 9;
  check_bool "own range allowed" true (allowed m c Hw.Trap.Read base);
  check_bool "sm memory denied" false (allowed m c Hw.Trap.Read 0x100);
  check_bool "os memory reachable" true
    (allowed m c Hw.Trap.Read (1024 * 1024));
  (* a second enclave's range is denied on this core *)
  let base2 = 4 * 1024 * 1024 in
  (match pf.Pf.Platform.assign_range ~lo:base2 ~hi:(base2 + 4096) 10 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_bool "foreign enclave denied" false (allowed m c Hw.Trap.Read base2);
  (* back to the OS: both enclave ranges now denied *)
  pf.Pf.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted;
  check_bool "enclave denied to OS" false (allowed m c Hw.Trap.Read base)

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

(* Each grant is followed by a query on another core, which enters the
   query's domain when it is not already there: layouts get computed
   between grants, so one cached under an older owner map would be
   used. *)
let gen_scenario =
  QCheck2.Gen.(
    quad (int_range 3 24) gen_domain
      (list_size (int_range 0 40) (pair gen_grant gen_query))
      (list_size (int_range 1 40) gen_query))

let print_scenario (entries, d0, steps, queries) =
  let acc = function
    | Hw.Trap.Read -> "r"
    | Hw.Trap.Write -> "w"
    | Hw.Trap.Execute -> "x"
  in
  let query (d, p, a) = Printf.sprintf "d%d@%d:%s" d p (acc a) in
  Printf.sprintf "pmp=%d core0-domain=%d steps=[%s] queries=[%s]" entries d0
    (String.concat "; "
       (List.map
          (fun ((s, l, d), q) -> Printf.sprintf "%d+%d->%d, %s" s l d (query q))
          steps))
    (String.concat "; " (List.map query queries))

let qcheck_keystone_pmp_matches_owner_map =
  QCheck2.Test.make ~name:"keystone PMP decision = owner-map rule" ~count:300
    ~print:print_scenario gen_scenario
    (fun (entries, d0, steps, queries) ->
      let machine =
        Hw.Machine.create
          {
            Hw.Machine.default_config with
            mem_bytes = small_mem;
            cores = 2;
            pmp_entries = entries;
          }
      in
      let pf = Pf.Keystone.create machine in
      let c0 = Hw.Machine.core machine 0 and c1 = Hw.Machine.core machine 1 in
      (* Enter before the grants: a grant must reach a core already
         inside a domain. *)
      pf.Pf.Platform.enter_domain ~core:c0 d0;
      let decide (c : Hw.Machine.core) d paddr access =
        if d <> c.Hw.Machine.domain then pf.Pf.Platform.enter_domain ~core:c d;
        allowed machine c access paddr
      in
      let agrees c (d, p, access) =
        let enclave_ranges =
          List.concat_map pf.Pf.Platform.ranges_of_domain [ 2; 3; 4; 5; 6 ]
        in
        (* entry 0 is the monitor's, the last the background allow *)
        let fits = List.length enclave_ranges <= entries - 2 in
        let paddr = (p * page) + (p * 8 mod page) in
        let owner = pf.Pf.Platform.owner_at ~paddr in
        let allowed = decide c d paddr access in
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
      List.for_all
        (fun ((start, len, d), query) ->
          Result.get_ok
            (pf.Pf.Platform.assign_range ~lo:(start * page)
               ~hi:((start + len) * page)
               d);
          agrees c1 query)
        steps
      (* Core 0 has not been re-entered yet, so these check that the
         grants reached it. *)
      && List.for_all
           (fun p ->
             List.for_all
               (fun a -> agrees c0 (d0, p, a))
               Hw.Trap.[ Read; Write; Execute ])
           (List.init mem_pages Fun.id)
      && List.for_all (agrees c1) queries)

(* Differential: the on-demand PMP against the eager layout it replaced
   ([Sanctorum_oracle.Keystone_ref]). Random grants, some of a page to
   the owner it already has, and switches on 2 to 4 cores, each core
   consulted through the installed check only at random points. After
   each consultation the core's entries equal, entry for entry, what
   the eager layout writes for its domain under the current map,
   overflow included: 3 to 24 entries, up to five enclave domains. *)
type pmp_op =
  | Grant of (int * int * int)
  | Keep of int  (** grant a page to the owner it has: a no-op *)
  | Enter of int * int  (** core, domain *)
  | Consult of int * int  (** core, page *)

let print_pmp_op = function
  | Grant (s, l, d) -> Printf.sprintf "grant %d+%d->%d" s l d
  | Keep p -> Printf.sprintf "keep %d" p
  | Enter (c, d) -> Printf.sprintf "enter core%d d%d" c d
  | Consult (c, p) -> Printf.sprintf "consult core%d @%d" c p

let gen_pmp_scenario =
  QCheck2.Gen.(
    let* cores = int_range 2 4 in
    let core = int_range 0 (cores - 1) in
    let op =
      frequency
        [
          (3, map (fun g -> Grant g) gen_grant);
          (1, map (fun p -> Keep p) (int_range sm_pages (mem_pages - 1)));
          (2, map2 (fun c d -> Enter (c, d)) core gen_domain);
          (4, map2 (fun c p -> Consult (c, p)) core (int_range 0 (mem_pages - 1)));
        ]
    in
    triple (return cores) (int_range 3 24) (list_size (int_range 1 60) op))

let qcheck_keystone_pmp_on_demand =
  QCheck2.Test.make ~name:"keystone on-demand PMP = eager layout" ~count:300
    ~print:(fun (cores, entries, ops) ->
      Printf.sprintf "cores=%d pmp=%d [%s]" cores entries
        (String.concat "; " (List.map print_pmp_op ops)))
    gen_pmp_scenario
    (fun (cores, entries, ops) ->
      let machine =
        Hw.Machine.create
          {
            Hw.Machine.default_config with
            mem_bytes = small_mem;
            cores;
            pmp_entries = entries;
          }
      in
      let pf = Pf.Keystone.create machine in
      (* the reference's copy of the map, taking the same grants *)
      let owners = Pf.Platform.owner_map machine in
      let grant lo hi d =
        Result.get_ok (pf.Pf.Platform.assign_range ~lo ~hi d);
        Pf.Owner_map.set_range owners ~lo ~hi d
      in
      let eager domain =
        let pmp = Hw.Pmp.create ~entries () in
        Hw.Pmp.set_entry pmp ~index:0 ~lo:0 ~hi:Pf.Platform.sm_memory_bytes
          ~r:false ~w:false ~x:false ~locked:true;
        Sanctorum_oracle.Keystone_ref.program owners ~mem_bytes:small_mem pmp
          domain;
        List.init entries (Hw.Pmp.entry pmp)
      in
      List.for_all
        (function
          | Grant (start, len, d) ->
              grant (start * page) ((start + len) * page) d;
              true
          | Keep p ->
              grant (p * page) ((p + 1) * page)
                (pf.Pf.Platform.owner_at ~paddr:(p * page));
              true
          | Enter (c, d) ->
              pf.Pf.Platform.enter_domain ~core:(Hw.Machine.core machine c) d;
              true
          | Consult (c, p) ->
              let core = Hw.Machine.core machine c in
              ignore (allowed machine core Hw.Trap.Read (p * page));
              List.init entries (Hw.Pmp.entry core.Hw.Machine.pmp)
              = eager core.Hw.Machine.domain)
        ops)

(* The spliced range list against a separate page array that takes the
   same grants, read after every grant so a stale or wrongly skipped
   update shows. Some grants are followed by a regrant from the same
   page to the same owner: as long (a no-op) or longer (its first pages
   already owned). [version] must move exactly when some page changes
   owner. *)
let qcheck_owner_map_ranges_cache =
  QCheck2.Test.make ~name:"owner-map cached ranges = page scan" ~count:300
    ~print:QCheck2.Print.(list (pair (triple int int int) (option int)))
    QCheck2.Gen.(list_size (int_range 1 30) (pair gen_grant (opt (int_range 0 8))))
    (fun steps ->
      let om =
        Pf.Owner_map.create
          (Hw.Phys_mem.create ~size:small_mem)
          ~initial_owner:Hw.Trap.domain_untrusted
      in
      let pages = Array.make mem_pages Hw.Trap.domain_untrusted in
      let scan () =
        let rec go p acc =
          if p = mem_pages then List.rev acc
          else
            let d = pages.(p) in
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
        && List.for_all
             (fun p -> Pf.Owner_map.owner_at om ~paddr:(p * page) = pages.(p))
             (List.init mem_pages Fun.id)
      in
      let grant start len d =
        let changes = ref false in
        for p = start to start + len - 1 do
          if pages.(p) <> d then changes := true;
          pages.(p) <- d
        done;
        let version = Pf.Owner_map.version om in
        Pf.Owner_map.set_range om ~lo:(start * page) ~hi:((start + len) * page) d;
        (Pf.Owner_map.version om <> version) = !changes && consistent ()
      in
      List.for_all
        (fun ((start, len, d), again) ->
          grant start len d
          &&
          match again with
          | None -> true
          | Some more -> grant start (min (len + more) (mem_pages - start)) d)
        steps)

(* The [set_phys_check] contract the superblock tier relies on: given
   the core and the access kind, the installed check answers alike for
   every address of a 4 KiB page. Both backends take the same random
   grants of whole allocation units, regrants of a unit to the domain
   that holds it and domain switches on two cores; after each step one
   core is asked about one page at random offsets, for every access
   kind, through translations with paging off. *)
type uniform_op =
  | U_grant of int * int * int
      (** first unit above the monitor's memory, units, domain *)
  | U_regrant of int
  | U_enter of int * int  (** core, domain *)

let print_uniform_op = function
  | U_grant (u, n, d) -> Printf.sprintf "grant u%d+%d->%d" u n d
  | U_regrant u -> Printf.sprintf "regrant u%d" u
  | U_enter (c, d) -> Printf.sprintf "enter core%d d%d" c d

let qcheck_phys_check_page_uniform =
  QCheck2.Test.make ~name:"phys_check is page-uniform" ~count:200
    ~print:
      (QCheck2.Print.list (fun (op, (c, p, offs)) ->
           Printf.sprintf "%s; ask core%d @%d +[%s]" (print_uniform_op op) c p
             (String.concat "," (List.map string_of_int offs))))
    QCheck2.Gen.(
      let op =
        frequency
          [
            (3, map3 (fun u n d -> U_grant (u, n, d)) nat (int_range 1 4)
                  gen_domain);
            (1, map (fun u -> U_regrant u) nat);
            (2, map2 (fun c d -> U_enter (c, d)) (int_bound 1) gen_domain);
          ]
      in
      (* a page's edges are where a misaligned range would show *)
      let offset =
        frequency
          [
            (1, int_range 0 (page - 1));
            (1, oneofl [ 1; 8; page - 8; page - 1 ]);
          ]
      in
      let ask =
        triple (int_bound 1)
          (int_range 0 (mem_pages - 1))
          (list_size (int_range 1 6) offset)
      in
      list_size (int_range 1 30) (pair op ask))
    (fun steps ->
      List.for_all
        (fun create ->
          let machine =
            Hw.Machine.create
              {
                Hw.Machine.default_config with
                mem_bytes = small_mem;
                cores = 2;
              }
          in
          let pf : Pf.Platform.t = create machine in
          let unit = pf.alloc_unit in
          let first = Pf.Platform.sm_memory_bytes / unit in
          let units = (small_mem / unit) - first in
          let apply = function
            | U_grant (u, n, d) ->
                let lo = first + (u mod units) in
                let hi = min (first + units) (lo + n) in
                Result.get_ok
                  (pf.assign_range ~lo:(lo * unit) ~hi:(hi * unit) d)
            | U_regrant u ->
                let lo = (first + (u mod units)) * unit in
                Result.get_ok
                  (pf.assign_range ~lo ~hi:(lo + unit) (pf.owner_at ~paddr:lo))
            | U_enter (c, d) ->
                pf.enter_domain ~core:(Hw.Machine.core machine c) d
          in
          (* a translation also refuses the last 7 bytes of memory *)
          let uniform (c, p, offsets) =
            let core = Hw.Machine.core machine c in
            let offsets =
              List.filter (fun off -> (p * page) + off + 8 <= small_mem) offsets
            in
            List.for_all
              (fun access ->
                let answer off =
                  allowed machine core access ((p * page) + off)
                in
                let first = answer 0 in
                List.for_all (fun off -> answer off = first) offsets)
              Hw.Trap.[ Read; Write; Execute ]
          in
          List.for_all
            (fun (op, ask) ->
              apply op;
              uniform ask)
            steps)
        [ Pf.Sanctum.create; Pf.Keystone.create ])

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
      QCheck_alcotest.to_alcotest qcheck_keystone_pmp_on_demand;
      QCheck_alcotest.to_alcotest qcheck_owner_map_ranges_cache;
      QCheck_alcotest.to_alcotest qcheck_phys_check_page_uniform;
    ] )
