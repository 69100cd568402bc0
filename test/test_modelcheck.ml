(* The bounded model checker (DESIGN.md exhaustive-checking section):
   exploration must be deterministic, clean on the real monitor, able
   to find every seeded fault at small depth, and its minimized
   counterexamples must actually replay. The last test is the
   regression for the transaction-guarantee bug the checker itself
   found: a rejected [allocate_page_table]/[load_page] used to leak a
   page from the enclave's free list. *)
module S = Sanctorum.Sm
module M = Sanctorum_analysis.Modelcheck
module R = Sanctorum_analysis.Report

let cfg ?(backend = M.Sanctum) ?(depth = 2) ?(cores = 1) ?(units = 2)
    ?(diff = false) ?(warm = true) ?inject () =
  { M.default_config with backend; depth; cores; units; diff; warm; inject }

let finding_ids s = List.map M.finding_id s.M.s_findings

(* ------------------------------------------------------------------ *)
(* Honest monitor: exploration is clean, substantial, and identical
   across backends. *)

let test_clean backend () =
  let s = M.explore (cfg ~backend ()) in
  Alcotest.(check int) "no findings" 0 s.M.s_findings_total;
  Alcotest.(check bool) "not truncated" false s.M.s_truncated;
  if s.M.s_states < 30 then
    Alcotest.failf "depth-2 warm exploration too small: %d states" s.M.s_states

let test_cross_backend_equal () =
  let a = M.explore (cfg ~backend:M.Sanctum ()) in
  let b = M.explore (cfg ~backend:M.Keystone ()) in
  Alcotest.(check int) "same state count" a.M.s_states b.M.s_states;
  Alcotest.(check int) "same edge count" a.M.s_edges b.M.s_edges;
  Alcotest.(check int) "same dedup hits" a.M.s_dedup_hits b.M.s_dedup_hits

let test_diff_clean () =
  let s = M.explore (cfg ~diff:true ()) in
  Alcotest.(check int) "no cross-backend divergence" 0 s.M.s_findings_total

(* Same configuration twice must reproduce the identical exploration,
   digest included — findings would not be replayable otherwise. *)
let prop_deterministic =
  QCheck.Test.make ~count:6 ~name:"explore is deterministic"
    QCheck.(
      quad (bool : bool arbitrary) (1 -- 2) (1 -- 2) (bool : bool arbitrary))
    (fun (sanctum, cores, units, warm) ->
      let backend = if sanctum then M.Sanctum else M.Keystone in
      let c = cfg ~backend ~depth:1 ~cores ~units ~warm () in
      let a = M.explore c and b = M.explore c in
      a.M.s_state_digest = b.M.s_state_digest
      && a.M.s_states = b.M.s_states
      && a.M.s_edges = b.M.s_edges)

(* ------------------------------------------------------------------ *)
(* Seeded faults: each injector, armed as an [Inject] action, must be
   found at small depth, minimized, and the minimized path must
   reproduce the finding under [replay]. *)

let find_and_replay ~depth fault expect_id () =
  let c = cfg ~depth ~inject:fault () in
  let s = M.explore c in
  if s.M.s_findings = [] then
    Alcotest.failf "fault %s: no findings at depth %d"
      (M.fault_to_string fault) depth;
  let f =
    match
      List.find_opt (fun f -> M.finding_id f = expect_id) s.M.s_findings
    with
    | Some f -> f
    | None ->
        Alcotest.failf "fault %s: expected %s among [%s]"
          (M.fault_to_string fault) expect_id
          (String.concat "; " (finding_ids s))
  in
  let path = M.finding_path f in
  if List.length path > depth then
    Alcotest.failf "fault %s: minimized path longer than depth (%d > %d)"
      (M.fault_to_string fault) (List.length path) depth;
  (* the minimized sequence must survive serialization and reproduce
     the catalog violation when replayed from scratch *)
  (match M.path_of_string (M.path_to_string path) with
  | Ok p when p = path -> ()
  | Ok _ -> Alcotest.fail "path round-trip changed the sequence"
  | Error e -> Alcotest.failf "path round-trip failed: %s" e);
  match M.finding_id f with
  | "diff.verdict" | "api.transactional" -> ()
  | id ->
      let _, violations = M.replay c path in
      let seen = List.sort_uniq compare (List.map (fun v -> v.R.id) violations) in
      if not (List.mem id seen) then
        Alcotest.failf "replay of %s lost the violation (saw [%s])"
          (M.path_to_string path) (String.concat "; " seen)

(* ------------------------------------------------------------------ *)
(* Replay and serialization. *)

let test_replay_verdicts () =
  (* warm start: enclave 0 is initialized with thread 0 loaded, so
     enter/aex/read-aex is an accepted sequence *)
  let path = [ M.Enter (0, 0, 0); M.Aex 0; M.Read_aex (0, 0) ] in
  let steps, violations = M.replay (cfg ()) path in
  Alcotest.(check (list string))
    "all accepted" [ "ok"; "ok"; "ok" ]
    (List.map (fun st -> st.M.r_verdict) steps);
  Alcotest.(check int) "catalog silent" 0 (List.length violations)

(* With [diff], the final report covers both backends: a finding made
   on the other backend must reproduce from the printed command, which
   names the configured one. *)
let test_replay_reports_both_backends () =
  let path = [ M.Inject (M.Corrupt_owner_map 0) ] in
  let ids c = List.map (fun v -> v.R.id) (snd (M.replay c path)) in
  let sanctum = ids (cfg ()) and keystone = ids (cfg ~backend:M.Keystone ()) in
  if sanctum = [] || keystone = [] then
    Alcotest.fail "owner-map fault not reported";
  Alcotest.(check (list string))
    "primary, then other" (sanctum @ keystone)
    (ids (cfg ~diff:true ()))

(* With [diff], a catalog finding names the backend it was seen on. A
   fault only the Keystone world takes is convicted on Keystone alone,
   and every finding says so; Sanctum alone never sees it, and a run on
   Keystone alone prints the catalog's report verbatim. *)
let test_diff_names_backend () =
  let fault = M.Keystone_owner_map 0 in
  let s = M.explore (cfg ~depth:1 ~diff:true ~inject:fault ()) in
  if s.M.s_findings = [] then Alcotest.fail "the fault was not convicted";
  List.iter
    (fun f ->
      (match f.M.f_kind with
      | M.K_catalog (_, M.Keystone) -> ()
      | _ -> Alcotest.failf "not a Keystone catalog finding: %s" f.M.f_detail);
      if not (String.starts_with ~prefix:"keystone: [" f.M.f_detail) then
        Alcotest.failf "finding does not name its backend: %s" f.M.f_detail)
    s.M.s_findings;
  Alcotest.(check int)
    "sanctum alone" 0
    (M.explore (cfg ~depth:1 ~inject:fault ())).M.s_findings_total;
  let single = M.explore (cfg ~backend:M.Keystone ~depth:1 ~inject:fault ()) in
  Alcotest.(check (list string))
    "keystone alone: the same findings, unlabelled"
    (List.map
       (fun f ->
         String.sub f.M.f_detail 10 (String.length f.M.f_detail - 10))
       s.M.s_findings)
    (List.map (fun f -> f.M.f_detail) single.M.s_findings)

(* Findings print replay commands from these tokens, so each
   constructor's printed form is pinned. *)
let pinned_tokens =
  [
    (M.Create 1, "create:1");
    (M.Alloc_pt (0, 2), "allocpt:0:2");
    (M.Load_page (1, 3), "loadpage:1:3");
    (M.Map_shared 0, "mapshared:0");
    (M.Load_thread (1, 1), "loadthread:1:1");
    (M.Init 1, "init:1");
    (M.Delete 0, "delete:0");
    (M.Block_mem 1, "blockmem:1");
    (M.Clean_mem 0, "cleanmem:0");
    (M.Grant_mem (1, 0), "grantmem:1:0");
    (M.Grant_mem_os 1, "grantos:1");
    (M.Accept_mem (0, 1), "acceptmem:0:1");
    (M.Assign (1, 0), "assign:1:0");
    (M.Accept_thread (0, 1), "acceptthread:0:1");
    (M.Release_thread (1, 0), "release:1:0");
    (M.Unassign 1, "unassign:1");
    (M.Delete_thread 0, "delthread:0");
    (M.Enter (0, 1, 1), "enter:0:1:1");
    (M.Exit_enclave (1, 0), "exit:1:0");
    (M.Aex 1, "aex:1");
    (M.Read_aex (0, 0), "readaex:0:0");
    (M.Accept_mail (0, M.S_os), "acceptmail:0:os");
    (M.Accept_mail (1, M.S_enclave 0), "acceptmail:1:e0");
    (M.Send_mail (M.S_os, 1), "sendmail:os:1");
    (M.Send_mail (M.S_enclave 1, 0), "sendmail:e1:0");
    (M.Get_mail (0, M.S_enclave 1), "getmail:0:e1");
    (M.Inject (M.Corrupt_owner_map 1), "inject:owner-map:1");
    (M.Inject (M.Keystone_owner_map 1), "inject:keystone-owner-map:1");
    (M.Inject (M.Corrupt_lifecycle 0), "inject:lifecycle:0");
    (M.Inject (M.Corrupt_thread (1, 0)), "inject:thread:1:0");
    (M.Inject M.Corrupt_meta, "inject:meta");
  ]

let test_pinned_tokens () =
  List.iter
    (fun (a, tok) ->
      Alcotest.(check string) tok tok (M.action_to_string a);
      Alcotest.(check bool)
        ("parses " ^ tok) true
        (M.path_of_string tok = Ok [ a ]))
    pinned_tokens;
  Alcotest.(check string)
    "a path joins its tokens with commas" "create:1,inject:meta"
    (M.path_to_string [ M.Create 1; M.Inject M.Corrupt_meta ])

(* Every constructor and every fault, with random small indices and
   both kinds of sender (an enclave sender prints as one digit). *)
let action_gen =
  let open QCheck.Gen in
  let i = 0 -- 99 in
  let sender = oneof [ return M.S_os; map (fun e -> M.S_enclave e) (0 -- 9) ] in
  let fault =
    oneof
      [
        map (fun u -> M.Corrupt_owner_map u) i;
        map (fun u -> M.Keystone_owner_map u) i;
        map (fun e -> M.Corrupt_lifecycle e) i;
        map2 (fun t c -> M.Corrupt_thread (t, c)) i i;
        return M.Corrupt_meta;
      ]
  in
  oneof
    [
      map (fun e -> M.Create e) i;
      map2 (fun e l -> M.Alloc_pt (e, l)) i i;
      map2 (fun e p -> M.Load_page (e, p)) i i;
      map (fun e -> M.Map_shared e) i;
      map2 (fun e t -> M.Load_thread (e, t)) i i;
      map (fun e -> M.Init e) i;
      map (fun e -> M.Delete e) i;
      map (fun u -> M.Block_mem u) i;
      map (fun u -> M.Clean_mem u) i;
      map2 (fun u e -> M.Grant_mem (u, e)) i i;
      map (fun u -> M.Grant_mem_os u) i;
      map2 (fun e u -> M.Accept_mem (e, u)) i i;
      map2 (fun t e -> M.Assign (t, e)) i i;
      map2 (fun e t -> M.Accept_thread (e, t)) i i;
      map2 (fun e t -> M.Release_thread (e, t)) i i;
      map (fun t -> M.Unassign t) i;
      map (fun t -> M.Delete_thread t) i;
      map3 (fun e t c -> M.Enter (e, t, c)) i i i;
      map2 (fun e c -> M.Exit_enclave (e, c)) i i;
      map (fun c -> M.Aex c) i;
      map2 (fun e t -> M.Read_aex (e, t)) i i;
      map2 (fun e x -> M.Accept_mail (e, x)) i sender;
      map2 (fun x e -> M.Send_mail (x, e)) sender i;
      map2 (fun e x -> M.Get_mail (e, x)) i sender;
      map (fun f -> M.Inject f) fault;
    ]

let prop_path_roundtrip =
  QCheck.Test.make ~count:200 ~name:"path serialization round-trips"
    QCheck.(
      make
        ~print:(fun p -> M.path_to_string p)
        Gen.(list_size (1 -- 8) action_gen))
    (fun path -> M.path_of_string (M.path_to_string path) = Ok path)

(* Malformed input, with the message the CLI prints after "--replay:"
   or "--inject:". A name and an arity no action has read as unknown,
   whatever the fields; only a known shape reads its fields. *)
let want_fault =
  "(want owner-map:U, keystone-owner-map:U, lifecycle:E, thread:T:C, meta)"

let malformed_paths =
  [
    ("bogus:1", {|unknown action "bogus:1"|});
    ("bogus:x", {|unknown action "bogus:x"|});
    ("create", {|unknown action "create"|});
    ("create:1:2", {|unknown action "create:1:2"|});
    ("create:1:x", {|unknown action "create:1:x"|});
    ("enter:0:0", {|unknown action "enter:0:0"|});
    ("enter:0:0:0:0", {|unknown action "enter:0:0:0:0"|});
    ("create:0,,create:1", {|unknown action ""|});
    ("enter:0:0:0,bogus:1", {|unknown action "bogus:1"|});
    ("create:x", {|bad index "x" in "create:x"|});
    ("enter:0:x:y", {|bad index "x" in "enter:0:x:y"|});
    ("readaex:1:e0", {|bad index "e0" in "readaex:1:e0"|});
    ("sendmail:e0:x", {|bad index "x" in "sendmail:e0:x"|});
    ("acceptmail:x:q", {|bad index "x" in "acceptmail:x:q"|});
    ("acceptmail:1:q", {|bad sender "q" (want os, e0, e1)|});
    ("sendmail:q:1", {|bad sender "q" (want os, e0, e1)|});
    ("sendmail:q:x", {|bad sender "q" (want os, e0, e1)|});
    ("getmail:0:e12", {|bad sender "e12" (want os, e0, e1)|});
    ("inject:foo", {|bad fault "foo" |} ^ want_fault);
    ("inject", {|bad fault "" |} ^ want_fault);
    ("inject:thread:x:1", "bad fault thread:x:1");
  ]

let malformed_faults =
  [
    ("thread:x:1", "bad fault thread:x:1");
    ("owner-map:q", "bad fault owner-map:q");
    ("foo", {|bad fault "foo" |} ^ want_fault);
    ("owner-map", {|bad fault "owner-map" |} ^ want_fault);
    ("lifecycle:1:2", {|bad fault "lifecycle:1:2" |} ^ want_fault);
    ("meta:1", {|bad fault "meta:1" |} ^ want_fault);
  ]

let test_replay_rejects_garbage () =
  let error = function Ok _ -> "accepted" | Error e -> e in
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) s want (error (M.path_of_string s)))
    malformed_paths;
  List.iter
    (fun (s, want) ->
      Alcotest.(check string) s want (error (M.fault_of_string s)))
    malformed_faults;
  Alcotest.(check bool)
    "a blank path is empty" true
    (M.path_of_string " " = Ok [])

(* ------------------------------------------------------------------ *)
(* Regression: rejected page allocations must not mutate the enclave.
   Before the fix, [allocate_page_table] and [load_page] popped a page
   off [free_pages] before validating the destination PTE slot, so a
   rejected call leaked one page per attempt — found by the model
   checker as [api.transactional] on the path
   create,blockmem,cleanmem,grantmem,allocpt(level 0). *)

let free_pages sm ~eid =
  match S.enclave_info sm ~eid with
  | Some i -> i.S.i_free_pages
  | None -> Alcotest.fail "enclave_info: no such enclave"

let tb_mem_bytes = 1 lsl 20

let provisioned_enclave backend =
  let tb = Sanctorum_os.Testbed.create ~backend ~mem_bytes:tb_mem_bytes () in
  let sm = tb.Sanctorum_os.Testbed.sm in
  let eid = S.metadata_base sm in
  let ok what = function
    | Ok v -> v
    | Error e ->
        Alcotest.failf "%s: %s" what (Sanctorum.Api_error.to_string e)
  in
  ok "create"
    (S.create_enclave sm ~caller:Os ~eid ~evbase:0x40000 ~evsize:0x4000 ());
  let rid = S.memory_units sm - 1 in
  ok "block" (S.block_resource sm ~caller:Os Memory_resource ~rid);
  ok "clean" (S.clean_resource sm ~caller:Os Memory_resource ~rid);
  ok "grant"
    (S.grant_resource sm ~caller:Os Memory_resource ~rid ~to_:(To_enclave eid));
  (sm, eid)

let test_rejected_allocpt_leaks_nothing backend () =
  let sm, eid = provisioned_enclave backend in
  let before = free_pages sm ~eid in
  Alcotest.(check bool) "enclave has pages" true (before <> []);
  (* level 0 with no root table: must be rejected without side effects *)
  (match S.allocate_page_table sm ~caller:Os ~eid ~vaddr:0x40000 ~level:0 with
  | Ok () -> Alcotest.fail "allocate_page_table accepted with no root table"
  | Error _ -> ());
  Alcotest.(check (list int))
    "free list untouched by rejected allocate_page_table" before
    (free_pages sm ~eid)

let test_rejected_load_page_leaks_nothing backend () =
  let sm, eid = provisioned_enclave backend in
  let before = free_pages sm ~eid in
  (* source must be untrusted memory or the call is rejected before it
     reaches the allocator; mid-RAM is OS-owned and was not granted *)
  let src_paddr = tb_mem_bytes / 2 in
  (match
     S.load_page sm ~caller:Os ~eid ~vaddr:0x40000 ~src_paddr ~r:true ~w:true
       ~x:false
   with
  | Ok () -> Alcotest.fail "load_page accepted with no page tables"
  | Error _ -> ());
  Alcotest.(check (list int))
    "free list untouched by rejected load_page" before (free_pages sm ~eid)

let suite =
  ( "modelcheck",
    [
      Alcotest.test_case "clean exploration (sanctum)" `Quick
        (test_clean M.Sanctum);
      Alcotest.test_case "clean exploration (keystone)" `Quick
        (test_clean M.Keystone);
      Alcotest.test_case "backends explore the same space" `Quick
        test_cross_backend_equal;
      Alcotest.test_case "differential mode finds no divergence" `Quick
        test_diff_clean;
      QCheck_alcotest.to_alcotest prop_deterministic;
      Alcotest.test_case "finds corrupted owner map" `Quick
        (find_and_replay ~depth:1 (M.Corrupt_owner_map 0) "own.exclusive");
      Alcotest.test_case "finds corrupted lifecycle" `Quick
        (find_and_replay ~depth:1 (M.Corrupt_lifecycle 0) "enclave.lifecycle");
      Alcotest.test_case "finds corrupted thread phase" `Quick
        (find_and_replay ~depth:1 (M.Corrupt_thread (0, 0)) "thread.lifecycle");
      Alcotest.test_case "finds corrupted metadata slots" `Quick
        (find_and_replay ~depth:1 M.Corrupt_meta "meta.slots");
      Alcotest.test_case "replay reports per-step verdicts" `Quick
        test_replay_verdicts;
      Alcotest.test_case "replay with --diff reports both backends" `Quick
        test_replay_reports_both_backends;
      Alcotest.test_case "--diff findings name their backend" `Quick
        test_diff_names_backend;
      Alcotest.test_case "replay rejects malformed paths" `Quick
        test_replay_rejects_garbage;
      QCheck_alcotest.to_alcotest prop_path_roundtrip;
      Alcotest.test_case "path tokens are pinned" `Quick test_pinned_tokens;
      Alcotest.test_case "rejected allocate_page_table leaks no page (sanctum)"
        `Quick
        (test_rejected_allocpt_leaks_nothing Sanctorum_os.Testbed.Sanctum_backend);
      Alcotest.test_case "rejected allocate_page_table leaks no page (keystone)"
        `Quick
        (test_rejected_allocpt_leaks_nothing
           Sanctorum_os.Testbed.Keystone_backend);
      Alcotest.test_case "rejected load_page leaks no page (sanctum)" `Quick
        (test_rejected_load_page_leaks_nothing
           Sanctorum_os.Testbed.Sanctum_backend);
      Alcotest.test_case "rejected load_page leaks no page (keystone)" `Quick
        (test_rejected_load_page_leaks_nothing
           Sanctorum_os.Testbed.Keystone_backend);
    ] )
