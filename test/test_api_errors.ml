(* Every public API entry point must turn an out-of-range argument —
   a bad eid, tid, rid, core or level — into a documented [Error], not
   an exception: the monitor fields calls from an untrusted OS, so a
   raise here is a denial-of-service primitive. One table row per
   entry point, run against both platform backends. *)
module S = Sanctorum.Sm
module E = Sanctorum.Api_error

let os = S.Os

(* Addresses that can never name a live metadata slot. *)
let bad_eid sm = S.metadata_limit sm + S.enclave_slot_bytes
let bad_tid sm = S.metadata_limit sm + S.thread_slot_bytes
let bad_rid sm = S.memory_units sm + 7

(* Each row is [(name, call)]; the call must return [Error _]. *)
let table sm =
  let beid = bad_eid sm and btid = bad_tid sm and brid = bad_rid sm in
  let u = fun (r : unit E.result) -> r in
  [
    ("block_resource/neg-rid",
     fun () -> u (S.block_resource sm ~caller:os Memory_resource ~rid:(-1)));
    ("block_resource/rid-too-big",
     fun () -> u (S.block_resource sm ~caller:os Memory_resource ~rid:brid));
    ("clean_resource/rid-too-big",
     fun () -> u (S.clean_resource sm ~caller:os Memory_resource ~rid:brid));
    ("grant_resource/rid-too-big",
     fun () ->
       u (S.grant_resource sm ~caller:os Memory_resource ~rid:brid ~to_:To_os));
    ("grant_resource/bad-target-eid",
     fun () ->
       u
         (S.grant_resource sm ~caller:os Memory_resource ~rid:0
            ~to_:(To_enclave beid)));
    ("accept_resource/rid-too-big",
     fun () ->
       u
         (S.accept_resource sm ~caller:(Enclave_caller beid) Memory_resource
            ~rid:brid));
    ("resource_state/neg-rid",
     fun () ->
       u (Result.map ignore (S.resource_state sm Memory_resource ~rid:(-1))));
    ("create_enclave/unaligned-eid",
     fun () ->
       u
         (S.create_enclave sm ~caller:os ~eid:(S.metadata_base sm + 3)
            ~evbase:0x40000 ~evsize:0x4000 ()));
    ("create_enclave/eid-outside-metadata",
     fun () ->
       u
         (S.create_enclave sm ~caller:os ~eid:beid ~evbase:0x40000
            ~evsize:0x4000 ()));
    ("allocate_page_table/bad-eid",
     fun () ->
       u (S.allocate_page_table sm ~caller:os ~eid:beid ~vaddr:0x40000 ~level:2));
    ("load_page/bad-eid",
     fun () ->
       u
         (S.load_page sm ~caller:os ~eid:beid ~vaddr:0x40000 ~src_paddr:0 ~r:true
            ~w:true ~x:false));
    ("map_shared/bad-eid",
     fun () ->
       u
         (S.map_shared sm ~caller:os ~eid:beid ~vaddr:0x20000 ~src_paddr:0
            ~len:4096));
    ("load_thread/bad-eid",
     fun () ->
       u
         (S.load_thread sm ~caller:os ~eid:beid ~tid:btid ~entry_pc:0L
            ~entry_sp:0L));
    ("init_enclave/bad-eid", fun () -> u (S.init_enclave sm ~caller:os ~eid:beid));
    ("delete_enclave/bad-eid",
     fun () -> u (S.delete_enclave sm ~caller:os ~eid:beid));
    ("enclave_measurement/bad-eid",
     fun () -> u (Result.map ignore (S.enclave_measurement sm ~eid:beid)));
    ("enclave_domain/bad-eid",
     fun () -> u (Result.map ignore (S.enclave_domain sm ~eid:beid)));
    ("mailbox_stats/bad-eid",
     fun () -> u (Result.map ignore (S.mailbox_stats sm ~eid:beid)));
    ("assign_thread/bad-eid",
     fun () -> u (S.assign_thread sm ~caller:os ~eid:beid ~tid:btid));
    ("accept_thread/bad-tid",
     fun () -> u (S.accept_thread sm ~caller:(Enclave_caller beid) ~tid:btid ()));
    ("release_thread/bad-tid",
     fun () -> u (S.release_thread sm ~caller:(Enclave_caller beid) ~tid:btid));
    ("unassign_thread/bad-tid",
     fun () -> u (S.unassign_thread sm ~caller:os ~tid:btid));
    ("delete_thread/bad-tid",
     fun () -> u (S.delete_thread sm ~caller:os ~tid:btid));
    ("enter_enclave/bad-core",
     fun () -> u (S.enter_enclave sm ~caller:os ~eid:beid ~tid:btid ~core:99));
    ("enter_enclave/neg-core",
     fun () -> u (S.enter_enclave sm ~caller:os ~eid:beid ~tid:btid ~core:(-1)));
    ("exit_enclave/bad-core",
     fun () -> u (S.exit_enclave sm ~caller:(Enclave_caller beid) ~core:99));
    ("set_fault_handler/bad-eid",
     fun () ->
       u (S.set_fault_handler sm ~caller:(Enclave_caller beid) ~handler:0L));
    ("read_aex_state/bad-tid",
     fun () ->
       u
         (Result.map ignore
            (S.read_aex_state sm ~caller:(Enclave_caller beid) ~tid:btid)));
    ("accept_mail/bad-caller-eid",
     fun () ->
       u
         (S.accept_mail sm ~caller:(Enclave_caller beid)
            ~sender:Sanctorum.Mailbox.From_os));
    ("accept_mail/bad-sender-eid",
     fun () ->
       u
         (S.accept_mail sm ~caller:os
            ~sender:(Sanctorum.Mailbox.From_enclave beid)));
    ("send_mail/bad-recipient",
     fun () -> u (S.send_mail sm ~caller:os ~recipient:beid ~msg:"hello"));
    ("get_mail/bad-caller-eid",
     fun () ->
       u
         (Result.map ignore
            (S.get_mail sm ~caller:(Enclave_caller beid)
               ~sender:Sanctorum.Mailbox.From_os)));
    ("get_signing_key/bad-caller-eid",
     fun () ->
       u (Result.map ignore (S.get_signing_key sm ~caller:(Enclave_caller beid))));
  ]

let run_table backend () =
  let tb = Sanctorum_os.Testbed.create ~backend () in
  List.iter
    (fun (name, call) ->
      match call () with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s: accepted an out-of-range argument" name
      | exception exn ->
          Alcotest.failf "%s: raised %s instead of returning Error" name
            (Printexc.to_string exn))
    (table tb.Sanctorum_os.Testbed.sm)

let suite =
  ( "api-errors",
    [
      Alcotest.test_case "out-of-range args return Error (sanctum)" `Quick
        (run_table Sanctorum_os.Testbed.Sanctum_backend);
      Alcotest.test_case "out-of-range args return Error (keystone)" `Quick
        (run_table Sanctorum_os.Testbed.Keystone_backend);
    ] )
