module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
module Crypto = Sanctorum_crypto

type backend = Sanctum_backend | Keystone_backend

type t = {
  platform : Pf.Platform.t;
  machine : Hw.Machine.t;
  sm : Sanctorum.Sm.t;
  os : Os.t;
  rng : Crypto.Drbg.t;
  seed : string;
}

let backend_name = function
  | Sanctum_backend -> "sanctum"
  | Keystone_backend -> "keystone"

let create ?(backend = Sanctum_backend) ?(cores = 4)
    ?(mem_bytes = 16 * 1024 * 1024) ?l2 ?pmp_entries ?(seed = "testbed") ?sink
    () =
  let base = Hw.Machine.default_config in
  let l2 = Option.value ~default:base.Hw.Machine.l2 l2 in
  let pmp_entries =
    Option.value ~default:base.Hw.Machine.pmp_entries pmp_entries
  in
  let machine =
    Hw.Machine.create { Hw.Machine.cores; mem_bytes; l2; pmp_entries }
  in
  let platform =
    match backend with
    | Sanctum_backend -> Pf.Sanctum.create machine
    | Keystone_backend -> Pf.Keystone.create machine
  in
  let root = Sanctorum.Boot.manufacturer_root ~seed in
  let identity =
    Sanctorum.Boot.perform ~root ~device_secret:("device-secret-" ^ seed)
      ~sm_binary:Sanctorum.Sm.binary_image
  in
  let sm =
    Sanctorum.Sm.boot ~platform ~identity
      ~signing_enclave_measurement:
        Sanctorum.Attestation.signing_expected_measurement
  in
  (* Attach before the OS model runs so even the first API calls land
     in the trace. *)
  (match sink with
  | Some s -> Sanctorum.Sm.set_sink sm s
  | None -> ());
  let os = Os.create sm in
  { platform; machine; sm; os; rng = Crypto.Drbg.create ~seed; seed }

let install_signing_enclave t =
  Os.install_enclave t.os Sanctorum.Attestation.signing_image

(* The loop is position-independent, so the variable-length [li]
   prologue cannot skew the branch offsets. *)
let counting_image ~evbase ~target =
  Sanctorum.Image.of_program ~evbase
    Hw.Isa.(
      li t0 (evbase + Hw.Phys_mem.page_size)
      @ [ Load (Ld, t1, t0, 0) ]
      @ li t2 target
      @ [
          Branch (Bge, t1, t2, 16);
          Op_imm (Add, t1, t1, 1);
          Store (Sd, t1, t0, 0);
          Jal (zero, -12);
          Op_imm (Add, a7, zero, Sanctorum.Sm.Ecall.exit_enclave);
          Ecall;
        ])

(* ------------------------------------------------------------------ *)
(* Fault injection for the analysis layer's negative tests: each
   helper breaks exactly one protection the monitor normally keeps, so
   tests can prove the corresponding checker invariant fires. *)

let page = Hw.Phys_mem.page_size

let corrupt_owner_map t ~rid =
  let unit_bytes = Sanctorum.Sm.memory_unit_bytes t.sm in
  let lo = rid * unit_bytes in
  ignore
    (t.platform.Pf.Platform.assign_range ~lo ~hi:(lo + unit_bytes) 77)

let leak_lock t ~eid = ignore (Sanctorum.Sm.try_lock_enclave t.sm ~eid)

let skip_flush t ~eid =
  (* Re-create what a missed shootdown leaves behind: core 0 (in
     untrusted context) keeps a translation and a private cache line
     for a frame the enclave's domain owns. *)
  match Sanctorum.Sm.enclave_info t.sm ~eid with
  | None -> ()
  | Some info -> (
      match t.platform.Pf.Platform.ranges_of_domain info.i_domain with
      | [] -> ()
      | (lo, _) :: _ ->
          let c = Hw.Machine.core t.machine 0 in
          ignore
            (Hw.Tlb.insert c.Hw.Machine.tlb ~vpn:(lo / page) ~ppn:(lo / page)
               ~perms:
                 (Hw.Page_table.perm_bits
                    { Hw.Page_table.r = true; w = false; x = false; u = true }));
          ignore (Hw.Cache.access_hit c.Hw.Machine.l1 ~paddr:lo))

(* Overwrite the level-0 PTE for [vpn] so it points at [ppn]. *)
let rewrite_leaf t ~root ~vpn ~ppn =
  let mem = Hw.Machine.mem t.machine in
  let rec leaf_table table level =
    if level = 0 then Some table
    else
      let idx = (vpn lsr (9 * level)) land 511 in
      let pte =
        Hw.Phys_mem.read_u64 mem (Hw.Phys_mem.page_base table + (idx * 8))
      in
      match Hw.Page_table.decode_pte pte with
      | Ok (child, _, false) -> leaf_table child (level - 1)
      | Ok _ | Error () -> None
  in
  match leaf_table root (Hw.Page_table.levels - 1) with
  | None -> ()
  | Some table ->
      let idx = vpn land 511 in
      Hw.Phys_mem.write_u64 mem
        (Hw.Phys_mem.page_base table + (idx * 8))
        (Hw.Page_table.encode_pte ~ppn
           ~perms:{ Hw.Page_table.r = true; w = true; x = false; u = true }
           ~valid:true)

let root_and_mappings t ~eid =
  ( Option.bind (Sanctorum.Sm.enclave_info t.sm ~eid) (fun i -> i.i_root_ppn),
    Sanctorum.Sm.enclave_mappings t.sm ~eid )

let corrupt_page_table t ~eid =
  match root_and_mappings t ~eid with
  | Some root, (vpn, _) :: _ ->
      (* point an evrange mapping at frame 0 — monitor memory *)
      rewrite_leaf t ~root ~vpn ~ppn:0
  | _ -> ()

let alias_page_table t ~eid =
  match root_and_mappings t ~eid with
  | Some root, (_, ppn1) :: (vpn2, _) :: _ ->
      rewrite_leaf t ~root ~vpn:vpn2 ~ppn:ppn1
  | _ -> ()

let corrupt_core_domain t ~core =
  let c = Hw.Machine.core t.machine core in
  c.Hw.Machine.domain <- 999
