(* Bounded exhaustive exploration of the SM API state space. See the
   interface and DESIGN.md §10 for the model; the short version:

   - A state is whatever a fixed small geometry plus a sequence of
     successful API calls produces. States are rebuilt by replay (the
     boot identity is cached, everything else is deterministic), so
     "cloning" a state costs one boot plus at most [depth] calls.
   - The canonical state encoding reads only the monitor's public
     introspection surface and renders every enclave/thread/domain
     name symbolically, minimized over the (tiny) renaming group, so
     two states that differ only in creation order deduplicate.
   - Failed calls must not change the encoding at all — the monitor's
     transaction guarantee — which the explorer checks on every
     rejected edge for free, because rejected edges need no rebuild.
   - With [diff] on, a second world on the other backend shadows every
     action; constructor-level verdicts must match edge by edge. *)

module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
module Tel = Sanctorum_telemetry
module Sm = Sanctorum.Sm
module Api_error = Sanctorum.Api_error
module Resource = Sanctorum.Resource
module Mailbox = Sanctorum.Mailbox

type backend = Sanctum | Keystone

let backend_name = function Sanctum -> "sanctum" | Keystone -> "keystone"
let other_backend = function Sanctum -> Keystone | Keystone -> Sanctum

type fault =
  | Corrupt_owner_map of int
  | Keystone_owner_map of int
  | Corrupt_lifecycle of int
  | Corrupt_thread of int * int
  | Corrupt_meta

type action =
  | Create of int
  | Alloc_pt of int * int
  | Load_page of int * int
  | Map_shared of int
  | Load_thread of int * int
  | Init of int
  | Delete of int
  | Block_mem of int
  | Clean_mem of int
  | Grant_mem of int * int
  | Grant_mem_os of int
  | Accept_mem of int * int
  | Assign of int * int
  | Accept_thread of int * int
  | Release_thread of int * int
  | Unassign of int
  | Delete_thread of int
  | Enter of int * int * int
  | Exit_enclave of int * int
  | Aex of int
  | Read_aex of int * int
  | Accept_mail of int * sender
  | Send_mail of sender * int
  | Get_mail of int * sender
  | Inject of fault

and sender = S_os | S_enclave of int

(* ------------------------------------------------------------------ *)
(* Serialization: compact colon-separated tokens, comma-joined paths,
   shell-safe so findings print as replayable command lines. *)

let sender_to_string = function
  | S_os -> "os"
  | S_enclave e -> "e" ^ string_of_int e

let sender_of_string = function
  | "os" -> Ok S_os
  | s when String.length s = 2 && s.[0] = 'e' && s.[1] >= '0' && s.[1] <= '9' ->
      Ok (S_enclave (Char.code s.[1] - Char.code '0'))
  | s -> Error (Printf.sprintf "bad sender %S (want os, e0, e1)" s)

(* Each action's serialized form, stated once: a name, then its fields
   in constructor order. The printers join these with ':' and the
   parsers below invert them. *)
let fault_tokens fault =
  let n = string_of_int in
  match fault with
  | Corrupt_owner_map u -> [ "owner-map"; n u ]
  | Keystone_owner_map u -> [ "keystone-owner-map"; n u ]
  | Corrupt_lifecycle e -> [ "lifecycle"; n e ]
  | Corrupt_thread (t, c) -> [ "thread"; n t; n c ]
  | Corrupt_meta -> [ "meta" ]

let tokens action =
  let n = string_of_int in
  let s = sender_to_string in
  match action with
  | Create e -> [ "create"; n e ]
  | Alloc_pt (e, l) -> [ "allocpt"; n e; n l ]
  | Load_page (e, i) -> [ "loadpage"; n e; n i ]
  | Map_shared e -> [ "mapshared"; n e ]
  | Load_thread (e, t) -> [ "loadthread"; n e; n t ]
  | Init e -> [ "init"; n e ]
  | Delete e -> [ "delete"; n e ]
  | Block_mem u -> [ "blockmem"; n u ]
  | Clean_mem u -> [ "cleanmem"; n u ]
  | Grant_mem (u, e) -> [ "grantmem"; n u; n e ]
  | Grant_mem_os u -> [ "grantos"; n u ]
  | Accept_mem (e, u) -> [ "acceptmem"; n e; n u ]
  | Assign (t, e) -> [ "assign"; n t; n e ]
  | Accept_thread (e, t) -> [ "acceptthread"; n e; n t ]
  | Release_thread (e, t) -> [ "release"; n e; n t ]
  | Unassign t -> [ "unassign"; n t ]
  | Delete_thread t -> [ "delthread"; n t ]
  | Enter (e, t, c) -> [ "enter"; n e; n t; n c ]
  | Exit_enclave (e, c) -> [ "exit"; n e; n c ]
  | Aex c -> [ "aex"; n c ]
  | Read_aex (e, t) -> [ "readaex"; n e; n t ]
  | Accept_mail (e, x) -> [ "acceptmail"; n e; s x ]
  | Send_mail (x, e) -> [ "sendmail"; s x; n e ]
  | Get_mail (e, x) -> [ "getmail"; n e; s x ]
  | Inject f -> "inject" :: fault_tokens f

let fault_to_string f = String.concat ":" (fault_tokens f)
let action_to_string a = String.concat ":" (tokens a)
let path_to_string path = String.concat "," (List.map action_to_string path)

(* The one integer-field reader of both parsers: [bad x] is the error
   when field [x] is not an integer. *)
let int_field bad x =
  match int_of_string_opt x with Some v -> Ok v | None -> Error (bad x)

(* A parsed constructor applied to a parsed field. Every field is read,
   and the leftmost failure is the error. *)
let ( <*> ) f x =
  match (f, x) with
  | Ok f, Ok x -> Ok (f x)
  | Error e, _ | Ok _, Error e -> Error e

(* In both parsers the name and the arity pick the constructor before
   any field is read: a shape no constructor has is reported as such,
   whatever its fields. *)
let fault_of_string s =
  let int = int_field (fun _ -> "bad fault " ^ s) in
  match String.split_on_char ':' s with
  | [ "owner-map"; u ] -> Ok (fun u -> Corrupt_owner_map u) <*> int u
  | [ "keystone-owner-map"; u ] -> Ok (fun u -> Keystone_owner_map u) <*> int u
  | [ "lifecycle"; e ] -> Ok (fun e -> Corrupt_lifecycle e) <*> int e
  | [ "thread"; t; c ] ->
      Ok (fun t c -> Corrupt_thread (t, c)) <*> int t <*> int c
  | [ "meta" ] -> Ok Corrupt_meta
  | _ ->
      Error
        (Printf.sprintf
           "bad fault %S (want owner-map:U, keystone-owner-map:U, \
            lifecycle:E, thread:T:C, meta)"
           s)

let action_of_string s =
  let int = int_field (fun x -> Printf.sprintf "bad index %S in %S" x s) in
  let sender = sender_of_string in
  match String.split_on_char ':' s with
  | [ "create"; e ] -> Ok (fun e -> Create e) <*> int e
  | [ "allocpt"; e; l ] -> Ok (fun e l -> Alloc_pt (e, l)) <*> int e <*> int l
  | [ "loadpage"; e; i ] -> Ok (fun e i -> Load_page (e, i)) <*> int e <*> int i
  | [ "mapshared"; e ] -> Ok (fun e -> Map_shared e) <*> int e
  | [ "loadthread"; e; t ] ->
      Ok (fun e t -> Load_thread (e, t)) <*> int e <*> int t
  | [ "init"; e ] -> Ok (fun e -> Init e) <*> int e
  | [ "delete"; e ] -> Ok (fun e -> Delete e) <*> int e
  | [ "blockmem"; u ] -> Ok (fun u -> Block_mem u) <*> int u
  | [ "cleanmem"; u ] -> Ok (fun u -> Clean_mem u) <*> int u
  | [ "grantmem"; u; e ] -> Ok (fun u e -> Grant_mem (u, e)) <*> int u <*> int e
  | [ "grantos"; u ] -> Ok (fun u -> Grant_mem_os u) <*> int u
  | [ "acceptmem"; e; u ] ->
      Ok (fun e u -> Accept_mem (e, u)) <*> int e <*> int u
  | [ "assign"; t; e ] -> Ok (fun t e -> Assign (t, e)) <*> int t <*> int e
  | [ "acceptthread"; e; t ] ->
      Ok (fun e t -> Accept_thread (e, t)) <*> int e <*> int t
  | [ "release"; e; t ] ->
      Ok (fun e t -> Release_thread (e, t)) <*> int e <*> int t
  | [ "unassign"; t ] -> Ok (fun t -> Unassign t) <*> int t
  | [ "delthread"; t ] -> Ok (fun t -> Delete_thread t) <*> int t
  | [ "enter"; e; t; c ] ->
      Ok (fun e t c -> Enter (e, t, c)) <*> int e <*> int t <*> int c
  | [ "exit"; e; c ] -> Ok (fun e c -> Exit_enclave (e, c)) <*> int e <*> int c
  | [ "aex"; c ] -> Ok (fun c -> Aex c) <*> int c
  | [ "readaex"; e; t ] -> Ok (fun e t -> Read_aex (e, t)) <*> int e <*> int t
  | [ "acceptmail"; e; x ] ->
      Ok (fun e x -> Accept_mail (e, x)) <*> int e <*> sender x
  | [ "sendmail"; x; e ] ->
      Ok (fun x e -> Send_mail (x, e)) <*> sender x <*> int e
  | [ "getmail"; e; x ] ->
      Ok (fun e x -> Get_mail (e, x)) <*> int e <*> sender x
  | "inject" :: f ->
      Ok (fun f -> Inject f) <*> fault_of_string (String.concat ":" f)
  | _ -> Error (Printf.sprintf "unknown action %S" s)

let path_of_string s =
  let cons tok acc =
    Ok List.cons <*> action_of_string (String.trim tok) <*> acc
  in
  if String.trim s = "" then Ok []
  else List.fold_right cons (String.split_on_char ',' s) (Ok [])

(* ------------------------------------------------------------------ *)
(* Configuration and the fixed small geometry. *)

type config = {
  backend : backend;
  depth : int;
  cores : int;
  units : int;
  diff : bool;
  warm : bool;
  inject : fault option;
  max_states : int;
}

let default_config =
  {
    backend = Sanctum;
    depth = 4;
    cores = 1;
    units = 2;
    diff = false;
    warm = true;
    inject = None;
    max_states = 200_000;
  }

let validate config =
  if config.depth < 0 || config.depth > 12 then
    invalid_arg "Modelcheck: depth must be 0..12";
  if config.cores < 1 || config.cores > 2 then
    invalid_arg "Modelcheck: cores must be 1..2";
  if config.units < 1 || config.units > 4 then
    invalid_arg "Modelcheck: units must be 1..4";
  if config.max_states < 1 then invalid_arg "Modelcheck: max_states must be > 0"

let page = Hw.Phys_mem.page_size
let max_eids = 2
let max_tids = 2

(* 1 MiB of DRAM makes one Sanctum region exactly [group_bytes], so an
   abstract unit group is one region there and four pages on Keystone:
   same byte count, same page count, identical capacity semantics. *)
let mem_bytes = 1 lsl 20
let group_bytes = 16 * 1024
let pmp_entries = 8
let evbase = 0x40000
let evsize = 4 * page
let shared_vaddr = 0x20000
let staging_paddr = mem_bytes - page
let mail_msg = "modelcheck-mail"

(* The Schnorr boot ceremony is deterministic in the seed and by far
   the most expensive part of bring-up; computed once, shared by every
   rebuilt world. *)
let identity =
  lazy
    (let seed = "modelcheck" in
     Sanctorum.Boot.perform
       ~root:(Sanctorum.Boot.manufacturer_root ~seed)
       ~device_secret:("device-secret-" ^ seed)
       ~sm_binary:Sm.binary_image)

type world = {
  w_backend : backend;
  w_machine : Hw.Machine.t;
  w_pf : Pf.Platform.t;
  w_sm : Sm.t;
  w_sink : Tel.Sink.t;
}

let make_world config backend =
  let base = Hw.Machine.default_config in
  let machine =
    Hw.Machine.create
      { base with Hw.Machine.cores = config.cores; mem_bytes; pmp_entries }
  in
  let pf =
    match backend with
    | Sanctum -> Pf.Sanctum.create machine
    | Keystone -> Pf.Keystone.create machine
  in
  let sm =
    Sm.boot ~platform:pf ~identity:(Lazy.force identity)
      ~signing_enclave_measurement:
        Sanctorum.Attestation.signing_expected_measurement
  in
  (* The explorer never runs guest instructions, so a delegated trap
     only ever means "the AEX is done"; nothing for an OS to do. *)
  Sm.set_os_trap_handler sm (fun _ _ -> ());
  let w_sink = Tel.Sink.create ~capacity:8192 () in
  Sm.set_sink sm w_sink;
  { w_backend = backend; w_machine = machine; w_pf = pf; w_sm = sm; w_sink }

let eid_addr w i = Sm.metadata_base w.w_sm + (i * Sm.enclave_slot_bytes)

let tid_addr w j =
  Sm.metadata_base w.w_sm + (max_eids * Sm.enclave_slot_bytes)
  + (j * Sm.thread_slot_bytes)

(* Abstract unit group [g] -> the backend's resource ids. The first
   grantable unit sits just above the monitor's own reservation. *)
let group_rids w g =
  let ub = Sm.memory_unit_bytes w.w_sm in
  let per = group_bytes / ub in
  let smu = Pf.Platform.sm_memory_bytes / ub in
  List.init per (fun i -> smu + (g * per) + i)

(* ------------------------------------------------------------------ *)
(* Applying one abstract action to one world. *)

let err_state m = Error (Api_error.Invalid_state m)
let config_cores w = Hw.Machine.core_count w.w_machine

(* A group operation issues one call per backend resource id. The rids
   of a group only ever transition together, so every per-rid verdict
   must agree; disagreement means the group abstraction (or the
   monitor) broke and is reported as an internal fault, which the
   differential layer then surfaces. *)
let group_op w g f =
  let rec go first = function
    | [] -> ( match first with None -> Ok () | Some v -> v)
    | rid :: rest -> (
        let v = f rid in
        match first with
        | None -> go (Some v) rest
        | Some prev ->
            if
              Api_error.(
                match (prev, v) with
                | Ok (), Ok () -> true
                | Error a, Error b -> equal a b
                | Ok (), Error _ | Error _, Ok () -> false)
            then go (Some prev) rest
            else
              Error
                (Api_error.Internal_fault
                   (Printf.sprintf "group %d verdicts diverged across rids" g)))
  in
  go None (group_rids w g)

let running_tid_on w c =
  List.find_opt
    (fun tid ->
      match Sm.thread_info w.w_sm ~tid with
      | Some { Sm.i_phase = `Running core; _ } -> core = c
      | Some _ | None -> false)
    (Sm.thread_ids w.w_sm)

let apply w action =
  let sm = w.w_sm in
  let os = Sm.Os in
  let enc e = Sm.Enclave_caller (eid_addr w e) in
  let caller_of = function S_os -> os | S_enclave e -> enc e in
  let mailbox_sender = function
    | S_os -> Mailbox.From_os
    | S_enclave e -> Mailbox.From_enclave (eid_addr w e)
  in
  match action with
  | Create e ->
      Sm.create_enclave sm ~caller:os ~eid:(eid_addr w e) ~evbase ~evsize ()
  | Alloc_pt (e, level) ->
      Sm.allocate_page_table sm ~caller:os ~eid:(eid_addr w e) ~vaddr:evbase
        ~level
  | Load_page (e, i) ->
      Sm.load_page sm ~caller:os ~eid:(eid_addr w e)
        ~vaddr:(evbase + (i * page))
        ~src_paddr:staging_paddr ~r:true ~w:true ~x:false
  | Map_shared e ->
      Sm.map_shared sm ~caller:os ~eid:(eid_addr w e) ~vaddr:shared_vaddr
        ~src_paddr:staging_paddr ~len:page
  | Load_thread (e, t) ->
      Sm.load_thread sm ~caller:os ~eid:(eid_addr w e) ~tid:(tid_addr w t)
        ~entry_pc:(Int64.of_int evbase)
        ~entry_sp:(Int64.of_int (evbase + evsize))
  | Init e -> Sm.init_enclave sm ~caller:os ~eid:(eid_addr w e)
  | Delete e -> Sm.delete_enclave sm ~caller:os ~eid:(eid_addr w e)
  | Block_mem g ->
      group_op w g (fun rid ->
          Sm.block_resource sm ~caller:os Resource.Memory_resource ~rid)
  | Clean_mem g ->
      group_op w g (fun rid ->
          Sm.clean_resource sm ~caller:os Resource.Memory_resource ~rid)
  | Grant_mem (g, e) ->
      group_op w g (fun rid ->
          Sm.grant_resource sm ~caller:os Resource.Memory_resource ~rid
            ~to_:(Sm.To_enclave (eid_addr w e)))
  | Grant_mem_os g ->
      group_op w g (fun rid ->
          Sm.grant_resource sm ~caller:os Resource.Memory_resource ~rid
            ~to_:Sm.To_os)
  | Accept_mem (e, g) ->
      group_op w g (fun rid ->
          Sm.accept_resource sm ~caller:(enc e) Resource.Memory_resource ~rid)
  | Assign (t, e) ->
      Sm.assign_thread sm ~caller:os ~eid:(eid_addr w e) ~tid:(tid_addr w t)
  | Accept_thread (e, t) ->
      Sm.accept_thread sm ~caller:(enc e) ~tid:(tid_addr w t)
        ~entry_pc:(Int64.of_int evbase)
        ~entry_sp:(Int64.of_int (evbase + evsize))
        ()
  | Release_thread (e, t) ->
      Sm.release_thread sm ~caller:(enc e) ~tid:(tid_addr w t)
  | Unassign t -> Sm.unassign_thread sm ~caller:os ~tid:(tid_addr w t)
  | Delete_thread t -> Sm.delete_thread sm ~caller:os ~tid:(tid_addr w t)
  | Enter (e, t, c) ->
      Sm.enter_enclave sm ~caller:os ~eid:(eid_addr w e) ~tid:(tid_addr w t)
        ~core:c
  | Exit_enclave (e, c) -> Sm.exit_enclave sm ~caller:(enc e) ~core:c
  | Aex c -> (
      (* Not an API call: the hardware preempts a running enclave. Only
         enabled when an enclave thread occupies the core — posting an
         interrupt at an idle core would leave it queued as invisible
         state. The guard reads introspection only, so both backends
         agree on enabledness by construction. *)
      if c < 0 || c >= config_cores w then err_state "aex: no such core"
      else
        match running_tid_on w c with
        | None -> err_state "aex: no enclave thread is running on this core"
        | Some _ ->
            Hw.Machine.post_interrupt w.w_machine ~core:c Hw.Trap.Timer;
            Hw.Machine.step w.w_machine (Hw.Machine.core w.w_machine c);
            Ok ())
  | Read_aex (e, t) -> (
      match Sm.read_aex_state sm ~caller:(enc e) ~tid:(tid_addr w t) with
      | Ok _ -> Ok ()
      | Error e -> Error e)
  | Accept_mail (e, s) ->
      Sm.accept_mail sm ~caller:(enc e) ~sender:(mailbox_sender s)
  | Send_mail (s, e) ->
      Sm.send_mail sm ~caller:(caller_of s) ~recipient:(eid_addr w e)
        ~msg:mail_msg
  | Get_mail (e, s) -> (
      match Sm.get_mail sm ~caller:(enc e) ~sender:(mailbox_sender s) with
      | Ok _ -> Ok ()
      | Error e -> Error e)
  | Inject (Keystone_owner_map _) when w.w_backend <> Keystone -> Ok ()
  | Inject f -> (
      match f with
      | Corrupt_owner_map g | Keystone_owner_map g ->
          let ub = Sm.memory_unit_bytes sm in
          List.iter
            (fun rid ->
              let lo = rid * ub in
              ignore (w.w_pf.Pf.Platform.assign_range ~lo ~hi:(lo + ub) 77))
            (group_rids w g);
          Ok ()
      | Corrupt_lifecycle e ->
          if Sm.enclave_info sm ~eid:(eid_addr w e) = None then
            err_state "inject: no such enclave"
          else begin
            Sm.corrupt_enclave_lifecycle sm ~eid:(eid_addr w e);
            Ok ()
          end
      | Corrupt_thread (t, c) ->
          if Sm.thread_info sm ~tid:(tid_addr w t) = None then
            err_state "inject: no such thread"
          else begin
            Sm.corrupt_thread_phase sm ~tid:(tid_addr w t) ~core:c;
            Ok ()
          end
      | Corrupt_meta ->
          Sm.corrupt_metadata_slot sm;
          Ok ())

let verdict_tag = function
  | Ok () -> "ok"
  | Error (Api_error.Illegal_argument _) -> "illegal-argument"
  | Error Api_error.Unauthorized -> "unauthorized"
  | Error Api_error.Concurrent_call -> "concurrent-call"
  | Error (Api_error.Invalid_state _) -> "invalid-state"
  | Error (Api_error.Out_of_resources _) -> "out-of-resources"
  | Error (Api_error.Internal_fault _) -> "internal-fault"

let verdict_to_string = function
  | Ok () -> "ok"
  | Error e -> Api_error.to_string e

(* Did every world give one action the same verdict tag? *)
let same_tags verdicts =
  match List.map verdict_tag verdicts with
  | t :: ts -> List.for_all (String.equal t) ts
  | [] -> true

(* ------------------------------------------------------------------ *)
(* Canonical state encoding. Reads only public introspection; renders
   every name (eid, tid, domain, metadata address) as a symbol under a
   renaming [perm], then takes the minimum over all renamings as the
   canonical form. Deliberately excluded: cumulative telemetry/mailbox
   counters, thread entry registers and AEX dump contents (they never
   influence a verdict or an invariant), and unexplored resource
   units (constant by construction). *)

let perms2 = [ [| 0; 1 |]; [| 1; 0 |] ]

let encode w perm_e perm_t buf =
  let sm = w.w_sm in
  Buffer.clear buf;
  let add = Buffer.add_string buf in
  (* display index -> live enclave info, under the renaming *)
  let einfo =
    Array.init max_eids (fun i ->
        Sm.enclave_info sm ~eid:(eid_addr w perm_e.(i)))
  in
  (* The one index search behind every symbol: [prefix ^ i] for the
     first display index [i < n] that [hit]s, else [miss ()]. *)
  let sym prefix n hit miss =
    let rec find i =
      if i >= n then miss ()
      else if hit i then prefix ^ string_of_int i
      else find (i + 1)
    in
    find 0
  in
  let is_eid a i = eid_addr w perm_e.(i) = a in
  let is_tid a j = tid_addr w perm_t.(j) = a in
  let domain_sym d =
    if d = Hw.Trap.domain_untrusted then "os"
    else if d = Hw.Trap.domain_sm then "sm"
    else
      sym "e" max_eids
        (fun i ->
          match einfo.(i) with
          | Some info -> info.Sm.i_domain = d
          | None -> false)
        (fun () -> "d" ^ string_of_int d)
  in
  let eid_sym eid =
    sym "e" max_eids (is_eid eid) (fun () -> "x" ^ string_of_int eid)
  in
  let tid_sym tid =
    sym "t" max_tids (is_tid tid) (fun () -> "x" ^ string_of_int tid)
  in
  (* tracked unit groups: every rid's Fig. 2 state (per-rid so any
     intra-group skew shows up as a distinct state, not silence), plus
     the hardware-level owner the platform actually enforces — the two
     can disagree only through a fault, and a fault state that encoded
     like the clean one would dedup away before the checker saw it *)
  let ub = Sm.memory_unit_bytes sm in
  let units = (mem_bytes - Pf.Platform.sm_memory_bytes) / group_bytes in
  for g = 0 to min units 4 - 1 do
    add "u";
    add (string_of_int g);
    List.iter
      (fun rid ->
        (match Sm.resource_state sm Resource.Memory_resource ~rid with
        | Ok Resource.Available -> add ":A"
        | Ok (Resource.Owned d) -> add (":O." ^ domain_sym d)
        | Ok (Resource.Offered d) -> add (":F." ^ domain_sym d)
        | Ok (Resource.Blocked d) -> add (":B." ^ domain_sym d)
        | Error _ -> add ":?");
        add ("/" ^ domain_sym (w.w_pf.Pf.Platform.owner_at ~paddr:(rid * ub))))
      (group_rids w g);
    add ";"
  done;
  (* enclaves *)
  for i = 0 to max_eids - 1 do
    add "e";
    add (string_of_int i);
    (match einfo.(i) with
    | None -> add ":-"
    | Some info ->
        add (if info.Sm.i_initialized then ":I" else ":L");
        add (if info.Sm.i_has_measurement then "m" else "");
        add (if info.Sm.i_measuring then "c" else "");
        add (if info.Sm.i_locked then "k" else "");
        (match info.Sm.i_root_ppn with
        | None -> add ":r-"
        | Some ppn -> add (":r" ^ string_of_int ppn));
        add ":f";
        List.iter
          (fun ppn -> add ("." ^ string_of_int ppn))
          (List.sort compare info.Sm.i_free_pages);
        let eid = eid_addr w perm_e.(i) in
        add ":v";
        List.iter
          (fun (vpn, ppn) -> add (Printf.sprintf ".%d>%d" vpn ppn))
          (Sm.enclave_mappings sm ~eid);
        add ":t";
        List.iter
          (fun tid -> add ("." ^ tid_sym tid))
          (Sm.enclave_threads sm ~eid);
        add ":mb";
        (match Sm.mailbox_snapshot sm ~eid with
        | None -> ()
        | Some slots ->
            slots
            |> List.map (fun (sender, full) ->
                   (match sender with
                   | Mailbox.From_os -> "os"
                   | Mailbox.From_enclave eid -> eid_sym eid)
                   ^ if full then "!" else "?")
            |> List.sort compare
            |> List.iter (fun s -> add ("." ^ s))));
    add ";"
  done;
  (* threads *)
  for j = 0 to max_tids - 1 do
    add "t";
    add (string_of_int j);
    (match Sm.thread_info sm ~tid:(tid_addr w perm_t.(j)) with
    | None -> add ":-"
    | Some info ->
        (match info.Sm.i_owner with
        | None -> add ":o-"
        | Some eid -> add (":o" ^ eid_sym eid));
        (match info.Sm.i_offered with
        | None -> add ":f-"
        | Some eid -> add (":f" ^ eid_sym eid));
        (match info.Sm.i_phase with
        | `Available -> add ":A"
        | `Assigned -> add ":S"
        | `Running core -> add (":R" ^ string_of_int core));
        add (if info.Sm.i_has_aex then ":x" else ":");
        add (if info.Sm.i_thread_locked then "k" else ""));
    add ";"
  done;
  (* metadata slots, rendered symbolically then re-sorted so the
     renaming cannot reorder them *)
  add "s";
  Sm.metadata_slots sm
  |> List.map (fun (addr, len) ->
         let other () =
           sym "t" max_tids (is_tid addr) (fun () -> "a" ^ string_of_int addr)
         in
         Printf.sprintf "%s+%d" (sym "e" max_eids (is_eid addr) other) len)
  |> List.sort compare
  |> List.iter (fun s -> add ("." ^ s));
  add ";";
  (* cores *)
  for c = 0 to config_cores w - 1 do
    let core = Hw.Machine.core w.w_machine c in
    add "c";
    add (string_of_int c);
    add (":" ^ domain_sym core.Hw.Machine.domain);
    add (if core.Hw.Machine.halted then ":h" else ":r");
    add (match core.Hw.Machine.satp_root with None -> ":-" | Some _ -> ":p");
    add (if core.Hw.Machine.quarantined then ":q" else "");
    add ";"
  done;
  (* held locks would violate quiescence; include them so a leak is a
     distinct (and flagged) state rather than an invisible one *)
  add "l";
  List.iter (fun l -> add ("." ^ l)) (List.sort compare (Sm.held_locks sm))

(* The identity-renaming encoding: enough for equality checks against
   the same world (transaction check), avoids the digest cost. *)
let ident_encoding w buf =
  encode w [| 0; 1 |] [| 0; 1 |] buf;
  Buffer.contents buf

let canonical_key w buf =
  let best = ref None in
  List.iter
    (fun pe ->
      List.iter
        (fun pt ->
          encode w pe pt buf;
          let s = Buffer.contents buf in
          match !best with
          | Some b when b <= s -> ()
          | Some _ | None -> best := Some s)
        perms2)
    perms2;
  Digest.to_hex (Digest.string (Option.get !best))

(* ------------------------------------------------------------------ *)
(* Findings. *)

type finding_kind =
  | K_catalog of string * backend
  | K_divergence
  | K_transactional of backend

type finding = {
  f_kind : finding_kind;
  f_detail : string;
  f_action : action;
  f_prefix : action list;
  f_min : action list;
}

let finding_id f =
  match f.f_kind with
  | K_catalog (id, _) -> id
  | K_divergence -> "diff.verdict"
  | K_transactional _ -> "api.transactional"

let finding_path f = f.f_min @ [ f.f_action ]
let max_findings = 32

(* ------------------------------------------------------------------ *)
(* Replay plumbing shared by the explorer, the minimizer and the CLI. *)

(* The warm-start scenario. From raw boot, the only enabled actions are
   [Create] and [Block_mem]: everything of interest sits behind the same
   linear block/clean/grant/page-table ceremony, which would consume the
   entire depth budget at every exploration. The canonical scenario runs
   it once and leaves the machine at the edge of the dense region: one
   initialized enclave with a thread ready to enter, one enclave still
   loading, one memory group owned, one up for grabs. *)
let bringup =
  [
    Create 0;
    Block_mem 0;
    Clean_mem 0;
    Grant_mem (0, 0);
    Alloc_pt (0, 2);
    Alloc_pt (0, 1);
    Alloc_pt (0, 0);
    Load_page (0, 0);
    Load_thread (0, 0);
    Init 0;
    Create 1;
    Block_mem 1;
    Clean_mem 1;
    Grant_mem (1, 1);
    Alloc_pt (1, 2);
    Alloc_pt (1, 1);
    Alloc_pt (1, 0);
    Load_thread (1, 1);
  ]

let initial_path config = if config.warm then bringup else []

(* Build a fresh world on [backend] and replay the initial path into
   it, insisting the monitor accepts every bring-up step (a rejected one
   would skew every explored path from a state nobody asked for), then
   [path], whatever its verdicts. *)
let new_world config path backend =
  let w = make_world config backend in
  List.iter
    (fun a ->
      match apply w a with
      | Ok () -> ()
      | Error e ->
          invalid_arg
            (Printf.sprintf "Modelcheck: bring-up action %s rejected on %s: %s"
               (action_to_string a) (backend_name backend)
               (Api_error.to_string e)))
    (initial_path config);
  List.iter (fun a -> ignore (apply w a)) path;
  w

(* The worlds every run mode goes over: the configured backend's and,
   with [diff], the other backend's, each at [path]. *)
let worlds config path =
  List.map (new_world config path)
    (if config.diff then [ config.backend; other_backend config.backend ]
     else [ config.backend ])

let violations_of w =
  Checker.run_all ~events:(Tel.Sink.events w.w_sink) w.w_sm

(* Does the finding's defect reproduce when [prefix] replaces the
   original path to the pre-state? The final action is pinned; only
   the prefix is delta-debugged. *)
let holds config kind final prefix =
  match kind with
  | K_catalog (id, backend) ->
      let w = new_world config (prefix @ [ final ]) backend in
      List.exists (fun v -> v.Report.id = id) (violations_of w)
  | K_divergence ->
      (* found only with [diff] on, so the worlds are both backends *)
      let ws = worlds config [] in
      let agree a = same_tags (List.map (fun w -> apply w a) ws) in
      List.for_all agree prefix && not (agree final)
  | K_transactional backend ->
      let w = new_world config prefix backend in
      let buf = Buffer.create 1024 in
      let before = ident_encoding w buf in
      Result.is_error (apply w final) && before <> ident_encoding w buf

let minimize config f =
  let rec shrink prefix =
    let n = List.length prefix in
    let rec try_at i =
      if i >= n then prefix
      else
        let cand = List.filteri (fun j _ -> j <> i) prefix in
        if holds config f.f_kind f.f_action cand then shrink cand
        else try_at (i + 1)
    in
    try_at 0
  in
  { f with f_min = shrink f.f_prefix }

(* ------------------------------------------------------------------ *)
(* The action alphabet, in a fixed order (exploration is deterministic
   in the configuration alone). *)

let alphabet config =
  let es = List.init max_eids Fun.id in
  let ts = List.init max_tids Fun.id in
  let us = List.init config.units Fun.id in
  let cs = List.init config.cores Fun.id in
  let senders = S_os :: List.map (fun e -> S_enclave e) es in
  List.concat
    [
      List.map (fun e -> Create e) es;
      List.concat_map
        (fun e -> List.map (fun l -> Alloc_pt (e, l)) [ 2; 1; 0 ])
        es;
      List.concat_map
        (fun e -> List.map (fun i -> Load_page (e, i)) [ 0; 1; 2; 3 ])
        es;
      List.map (fun e -> Map_shared e) es;
      List.concat_map (fun e -> List.map (fun t -> Load_thread (e, t)) ts) es;
      List.map (fun e -> Init e) es;
      List.map (fun e -> Delete e) es;
      List.map (fun u -> Block_mem u) us;
      List.map (fun u -> Clean_mem u) us;
      List.concat_map (fun u -> List.map (fun e -> Grant_mem (u, e)) es) us;
      List.map (fun u -> Grant_mem_os u) us;
      List.concat_map (fun e -> List.map (fun u -> Accept_mem (e, u)) us) es;
      List.concat_map (fun t -> List.map (fun e -> Assign (t, e)) es) ts;
      List.concat_map (fun e -> List.map (fun t -> Accept_thread (e, t)) ts) es;
      List.concat_map
        (fun e -> List.map (fun t -> Release_thread (e, t)) ts)
        es;
      List.map (fun t -> Unassign t) ts;
      List.map (fun t -> Delete_thread t) ts;
      List.concat_map
        (fun e ->
          List.concat_map
            (fun t -> List.map (fun c -> Enter (e, t, c)) cs)
            ts)
        es;
      List.concat_map (fun e -> List.map (fun c -> Exit_enclave (e, c)) cs) es;
      List.map (fun c -> Aex c) cs;
      List.concat_map (fun e -> List.map (fun t -> Read_aex (e, t)) ts) es;
      List.concat_map
        (fun e -> List.map (fun s -> Accept_mail (e, s)) senders)
        es;
      List.concat_map
        (fun s -> List.map (fun e -> Send_mail (s, e)) es)
        senders;
      List.concat_map (fun e -> List.map (fun s -> Get_mail (e, s)) senders) es;
      (match config.inject with Some f -> [ Inject f ] | None -> []);
    ]

(* ------------------------------------------------------------------ *)
(* Exploration. *)

type summary = {
  s_backend : backend;
  s_depth : int;
  s_states : int;
  s_edges : int;
  s_dedup_hits : int;
  s_truncated : bool;
  s_state_digest : string;
  s_findings : finding list;
  s_findings_total : int;
}

let explore config =
  validate config;
  let acts = alphabet config in
  let buf = Buffer.create 2048 in
  let visited = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let states = ref 0 in
  let edges = ref 0 in
  let dedup_hits = ref 0 in
  let truncated = ref false in
  let digest = ref "" in
  let findings = ref [] in
  let findings_total = ref 0 in
  let record kind detail action prefix =
    incr findings_total;
    if List.length !findings < max_findings then
      findings :=
        {
          f_kind = kind;
          f_detail = detail;
          f_action = action;
          f_prefix = prefix;
          f_min = prefix;
        }
        :: !findings
  in
  let note_state key =
    Hashtbl.replace visited key ();
    incr states;
    digest := Digest.to_hex (Digest.string (!digest ^ key))
  in
  (* every world's catalog violations, pinned to [action] after
     [prefix]; with [diff] each names the backend it was seen on *)
  let check_catalog ws ~detail action prefix =
    List.iter
      (fun w ->
        let on = if config.diff then backend_name w.w_backend ^ ": " else "" in
        List.iter
          (fun v ->
            record (K_catalog (v.Report.id, w.w_backend)) (on ^ detail v)
              action prefix)
          (violations_of w))
      ws
  in
  let key ws =
    String.concat "|" (List.map (fun w -> canonical_key w buf) ws)
  in
  (* root; boot-state violations have no action to pin, so they are
     reported verbatim *)
  let root = worlds config [] in
  note_state (key root);
  check_catalog root (Create 0) []
    ~detail:(Format.asprintf "boot state: %a" Report.pp);
  Queue.add ([], 0) queue;
  while not (Queue.is_empty queue) do
    let path, d = Queue.pop queue in
    if d < config.depth && not !truncated then begin
      (* each world with its identity encoding before the edge *)
      let fresh () =
        List.map (fun w -> (w, ident_encoding w buf)) (worlds config path)
      in
      let ws = ref (fresh ()) in
      List.iter
        (fun a ->
          if not !truncated then begin
            incr edges;
            let vs = List.map (fun (w, _) -> apply w a) !ws in
            if not (same_tags vs) then begin
              let show (w, _) v =
                backend_name w.w_backend ^ "=" ^ verdict_to_string v
              in
              record K_divergence
                (Printf.sprintf "%s: %s" (action_to_string a)
                   (String.concat ", " (List.map2 show !ws vs)))
                a path;
              ws := fresh ()
            end
            else
              match List.hd vs with
              | Error _ ->
                  (* rejected everywhere: the transaction guarantee says
                     no observable state changed *)
                  let broken =
                    List.filter
                      (fun (w, before) -> ident_encoding w buf <> before)
                      !ws
                  in
                  List.iter
                    (fun (w, _) ->
                      record (K_transactional w.w_backend)
                        (Printf.sprintf "%s: rejected call mutated state"
                           (action_to_string a))
                        a path)
                    broken;
                  if broken <> [] then ws := fresh ()
              | Ok () ->
                  let k = key (List.map fst !ws) in
                  if Hashtbl.mem visited k then incr dedup_hits
                  else if !states >= config.max_states then truncated := true
                  else begin
                    note_state k;
                    check_catalog (List.map fst !ws) a path
                      ~detail:(Format.asprintf "%a" Report.pp);
                    if d + 1 < config.depth then
                      Queue.add (path @ [ a ], d + 1) queue
                  end;
                  ws := fresh ()
          end)
        acts
    end
  done;
  let findings = List.rev_map (minimize config) !findings in
  {
    s_backend = config.backend;
    s_depth = config.depth;
    s_states = !states;
    s_edges = !edges;
    s_dedup_hits = !dedup_hits;
    s_truncated = !truncated;
    s_state_digest = !digest;
    s_findings = List.rev findings;
    s_findings_total = !findings_total;
  }

(* ------------------------------------------------------------------ *)
(* Replay. *)

type replay_step = {
  r_action : action;
  r_verdict : string;
  r_verdict_other : string option;
}

let replay config path =
  validate config;
  let ws = worlds config [] in
  let step a =
    let vs = List.map (fun w -> verdict_to_string (apply w a)) ws in
    {
      r_action = a;
      r_verdict = List.hd vs;
      r_verdict_other = List.nth_opt vs 1;
    }
  in
  let steps = List.map step path in
  (steps, List.concat_map violations_of ws)

let replay_command config path =
  Printf.sprintf
    "sanctorum_demo modelcheck --backend %s --cores %d --units %d%s%s --replay \
     %s"
    (backend_name config.backend)
    config.cores config.units
    (if config.diff then " --diff" else "")
    (if config.warm then "" else " --cold")
    (path_to_string path)
