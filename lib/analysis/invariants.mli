(** The snapshot invariant checker.

    Cross-checks a quiescent monitor (between API calls) against the
    platform owner map and the simulated machine: DRAM-region ownership
    (Fig. 2 vs hardware), full Sv39 walks of every enclave's private
    page tables (§V-C), TLB/cache flush residue (§IV-B2), the
    enclave/thread state machines (Figs. 3–4), metadata-slot
    confinement (§V-B), core domain registers, and lock quiescence
    (§V-A). Read-only: never takes locks, emits telemetry, or mutates
    monitor or machine state (only the caller's {!memo}), so it is safe
    to run from {!Sanctorum.Sm.set_post_api_hook}.

    Invariant ids reported here: [own.exclusive], [own.sm-reserved],
    [pt.confined], [pt.no-alias], [tlb.no-stale], [cache.no-residue],
    [enclave.lifecycle], [thread.lifecycle], [core.domain],
    [meta.slots], [lock.quiescent]. *)

val ids : string list
(** Every invariant id this pass can report, in catalog order. The
    catalog-sync test asserts this list, {!Checker.catalog} and the
    DESIGN.md §4.1 table agree exactly. *)

type memo
(** The page-table walks of the last pass over one monitor, each kept
    as the list of what it read: the table frames with their
    {!Sanctorum_hw.Phys_mem.generation}s, the leaves, the cycles, the
    level-0 pointers and the entries naming a frame beyond DRAM. A walk
    is replayed while its root is the same and none of its frames'
    generations has moved, since the walk would then read the same
    thing again; the checks that read other state (the owner map,
    evrange, aliases across enclaves) run against the current state on
    every pass. Verdicts are never kept. A memo is a value its owner
    keeps (the workload engine keeps one per engine), never shared
    state, so engines in parallel domains each hold their own. *)

val memo : unit -> memo
(** A memo that has walked nothing yet. *)

val replays : memo -> int
(** Walks this memo has replayed instead of re-reading, over all its
    passes. *)

val check : memo -> Sanctorum.Sm.t -> Report.violation list
(** [check memo sm] runs the pass over [sm], walking afresh each
    enclave whose recorded walk cannot be replayed and forgetting the
    enclaves no longer alive. The findings are the ones a fresh memo
    reports, in the same order. A memo follows one monitor: used on
    another machine's memory it starts over. *)
