(** The Keystone backend (§VII-B): standard RISC-V hardware, isolation
    by physical memory protection (PMP). The monitor's memory is covered
    by a locked deny-all entry; a core's remaining entries encode its
    domain under the current ownership: allow the domain's ranges, deny
    every other enclave's ranges, and leave a lowest-priority allow-all
    so OS-shared memory stays reachable. The allows and denies never
    overlap, so their order decides only how fast a check finds its
    match; when the entries run out the allow-all is dropped and the
    core fails closed. Only the core's own isolation checks read those
    entries, so a check rewrites them when the core's domain or the
    owner map has moved since they were written: grants and switches
    write no PMP, and every check sees the layout an eager reprogram
    would have left. The rewrite is one [Pmp.load] of arrays built once
    per domain and owner-map version. The LLC is {e not} partitioned —
    Keystone's threat model excludes microarchitectural side channels,
    which experiment S1 makes observable. *)

val create : Sanctorum_hw.Machine.t -> Platform.t
