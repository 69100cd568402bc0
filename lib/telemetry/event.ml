type api_outcome = Accepted | Rejected of string
type principal = Os | Enclave of int
type lock = Resource_lock | Enclave_lock of int | Thread_lock of int

let principal_name = function
  | Os -> "os"
  | Enclave eid -> Printf.sprintf "enclave:0x%x" eid

let lock_name = function
  | Resource_lock -> "resource"
  | Enclave_lock eid -> Printf.sprintf "enclave:0x%x" eid
  | Thread_lock tid -> Printf.sprintf "thread:0x%x" tid

type payload =
  | Trap_enter of { cause : string }
  | Trap_exit of { cause : string }
  | Sm_api of {
      api : string;
      caller : principal;
      outcome : api_outcome;
      latency : int;
    }
  | Enclave_created of { eid : int }
  | Enclave_initialized of { eid : int }
  | Enclave_entered of { eid : int; tid : int; target_core : int }
  | Enclave_exited of { eid : int; aex : bool }
  | Enclave_destroyed of { eid : int }
  | Region_granted of { kind : string; rid : int; owner : principal }
  | Region_freed of { kind : string; rid : int }
  | Domain_switch of { domain : int }
  | Tlb_flush of { reason : string }
  | Mailbox_sent of { sender : principal; recipient : int }
  | Mailbox_received of { recipient : int; sender : principal }
  | Dma_transfer of { write : bool; paddr : int; len : int; granted : bool }
  | Lock_acquired of { lock : lock }
  | Lock_released of { lock : lock }
  | Guarded_write of { lock : lock; field : string }
  | Fault_injected of { fault : string; detail : string }
  | Ecc_corrected of { paddr : int }
  | Machine_check of { paddr : int }
  | Core_quarantined of { core : int; reason : string }
  | Shootdown_retry of { target_core : int; attempt : int }

type t = { seq : int; core : int; cycles : int; payload : payload }

let label = function
  | Trap_enter { cause } | Trap_exit { cause } -> "trap:" ^ cause
  | Sm_api { api; _ } -> "sm:" ^ api
  | Enclave_created _ -> "enclave:create"
  | Enclave_initialized _ -> "enclave:init"
  | Enclave_entered _ -> "enclave:enter"
  | Enclave_exited { aex = true; _ } -> "enclave:aex"
  | Enclave_exited { aex = false; _ } -> "enclave:exit"
  | Enclave_destroyed _ -> "enclave:destroy"
  | Region_granted _ -> "region:grant"
  | Region_freed _ -> "region:free"
  | Domain_switch _ -> "hw:domain-switch"
  | Tlb_flush _ -> "hw:tlb-flush"
  | Mailbox_sent _ -> "mailbox:send"
  | Mailbox_received _ -> "mailbox:receive"
  | Dma_transfer { write = true; _ } -> "hw:dma-write"
  | Dma_transfer { write = false; _ } -> "hw:dma-read"
  | Lock_acquired _ -> "lock:acquire"
  | Lock_released _ -> "lock:release"
  | Guarded_write _ -> "lock:write"
  | Fault_injected _ -> "fault:inject"
  | Ecc_corrected _ -> "fault:ecc-corrected"
  | Machine_check _ -> "fault:machine-check"
  | Core_quarantined _ -> "recovery:quarantine"
  | Shootdown_retry _ -> "recovery:shootdown-retry"

let kind = function
  | Trap_enter _ -> 0
  | Trap_exit _ -> 1
  | Sm_api _ -> 2
  | Enclave_created _ -> 3
  | Enclave_initialized _ -> 4
  | Enclave_entered _ -> 5
  | Enclave_exited _ -> 6
  | Enclave_destroyed _ -> 7
  | Region_granted _ -> 8
  | Region_freed _ -> 9
  | Domain_switch _ -> 10
  | Tlb_flush _ -> 11
  | Mailbox_sent _ -> 12
  | Mailbox_received _ -> 13
  | Dma_transfer _ -> 14
  | Lock_acquired _ -> 15
  | Lock_released _ -> 16
  | Guarded_write _ -> 17
  | Fault_injected _ -> 18
  | Ecc_corrected _ -> 19
  | Machine_check _ -> 20
  | Core_quarantined _ -> 21
  | Shootdown_retry _ -> 22

let category p =
  let l = label p in
  match String.index_opt l ':' with
  | Some i -> String.sub l 0 i
  | None -> l

let phase = function
  | Trap_enter _ -> `Begin
  | Trap_exit _ -> `End
  | Sm_api { latency; _ } -> `Complete latency
  | Enclave_created _ | Enclave_initialized _ | Enclave_entered _
  | Enclave_exited _ | Enclave_destroyed _ | Region_granted _ | Region_freed _
  | Domain_switch _ | Tlb_flush _ | Mailbox_sent _ | Mailbox_received _
  | Dma_transfer _ | Lock_acquired _ | Lock_released _ | Guarded_write _
  | Fault_injected _ | Ecc_corrected _ | Machine_check _ | Core_quarantined _
  | Shootdown_retry _ ->
      `Instant

let args = function
  | Trap_enter { cause } | Trap_exit { cause } -> [ ("cause", cause) ]
  | Sm_api { api; caller; outcome; latency } ->
      [
        ("api", api);
        ("caller", principal_name caller);
        ( "outcome",
          match outcome with Accepted -> "accepted" | Rejected _ -> "rejected"
        );
        ("latency", string_of_int latency);
      ]
      @ (match outcome with Accepted -> [] | Rejected e -> [ ("error", e) ])
  | Enclave_created { eid } | Enclave_initialized { eid } ->
      [ ("eid", Printf.sprintf "0x%x" eid) ]
  | Enclave_entered { eid; tid; target_core } ->
      [
        ("eid", Printf.sprintf "0x%x" eid);
        ("tid", Printf.sprintf "0x%x" tid);
        ("core", string_of_int target_core);
      ]
  | Enclave_exited { eid; aex } ->
      [ ("eid", Printf.sprintf "0x%x" eid); ("aex", string_of_bool aex) ]
  | Enclave_destroyed { eid } -> [ ("eid", Printf.sprintf "0x%x" eid) ]
  | Region_granted { kind; rid; owner } ->
      [ ("kind", kind); ("rid", string_of_int rid); ("owner", principal_name owner) ]
  | Region_freed { kind; rid } ->
      [ ("kind", kind); ("rid", string_of_int rid) ]
  | Domain_switch { domain } -> [ ("domain", string_of_int domain) ]
  | Tlb_flush { reason } -> [ ("reason", reason) ]
  | Mailbox_sent { sender; recipient } ->
      [
        ("sender", principal_name sender);
        ("recipient", Printf.sprintf "0x%x" recipient);
      ]
  | Mailbox_received { recipient; sender } ->
      [
        ("recipient", Printf.sprintf "0x%x" recipient);
        ("sender", principal_name sender);
      ]
  | Dma_transfer { write; paddr; len; granted } ->
      [
        ("dir", if write then "write" else "read");
        ("paddr", Printf.sprintf "0x%x" paddr);
        ("len", string_of_int len);
        ("granted", string_of_bool granted);
      ]
  | Lock_acquired { lock } | Lock_released { lock } -> [ ("lock", lock_name lock) ]
  | Guarded_write { lock; field } -> [ ("lock", lock_name lock); ("field", field) ]
  | Fault_injected { fault; detail } ->
      [ ("fault", fault); ("detail", detail) ]
  | Ecc_corrected { paddr } -> [ ("paddr", Printf.sprintf "0x%x" paddr) ]
  | Machine_check { paddr } -> [ ("paddr", Printf.sprintf "0x%x" paddr) ]
  | Core_quarantined { core; reason } ->
      [ ("core", string_of_int core); ("reason", reason) ]
  | Shootdown_retry { target_core; attempt } ->
      [
        ("target_core", string_of_int target_core);
        ("attempt", string_of_int attempt);
      ]
