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
(** What the last passes over one monitor read, kept so that a pass
    redoes only the work whose inputs moved. It holds:

    - the page-table walks, each as the list of what it read: the table
      frames with their {!Sanctorum_hw.Phys_mem.generation}s, the
      leaves, the cycles, the level-0 pointers and the entries naming a
      frame beyond DRAM. A walk is replayed while its root is the same
      and none of its frames' generations has moved, since the walk
      would then read the same thing again;
    - the resource-table and owner-map versions
      ({!Sanctorum.Sm.resource_version},
      {!Sanctorum_platform.Platform.owner_version}) of the last
      ownership check that found nothing: the check reads nothing else
      that moves, so while both stand it is skipped;
    - the owner-map version of the last replay that found nothing: when
      every walk replays and none is forgotten, the replay's other
      inputs (each enclave's domain and evrange, the aliases across
      enclaves) are the last pass's too, so while the owner map also
      stands the replay is skipped.

    A skipped check reports what it reported last, nothing, and every
    other check runs against the current state on every pass, so
    findings are never kept. A memo is a value its owner keeps (the
    workload engine keeps one per engine), never shared state, so
    engines in parallel domains each hold their own. *)

val memo : unit -> memo
(** A memo that has walked nothing yet. *)

val replays : memo -> int
(** Walks this memo has replayed instead of re-reading, over all its
    passes. *)

val skips : memo -> int * int
(** [(ownership, replay)]: the passes, over the memo's life, that
    skipped the ownership check and the page-table replay. *)

val check : memo -> Sanctorum.Sm.t -> Report.violation list
(** [check memo sm] runs the pass over [sm], walking afresh each
    enclave whose recorded walk cannot be replayed and forgetting the
    enclaves no longer alive. The findings are the ones a fresh memo
    reports, in the same order. A memo follows one monitor: handed
    another, it starts over. The shared L2's monitor-memory residue
    scan runs only once a fill has tagged a line below monitor memory
    ({!Sanctorum_hw.Cache.lowest_fill}). *)
