let catalog =
  [
    ( "own.exclusive",
      "resource state machine, owner map and isolation hardware agree on \
       every allocation unit (Fig. 2, §IV-B)" );
    ( "own.sm-reserved",
      "the monitor's own memory is owned by the monitor on every view \
       (§V-B)" );
    ( "pt.confined",
      "every frame reachable from an enclave's page tables stays inside its \
       domain or shared untrusted memory (§V-C, Sanctum walk invariant)" );
    ( "pt.no-alias",
      "no physical frame is mapped twice inside evrange, within or across \
       enclaves (§VI-A)" );
    ( "tlb.no-stale",
      "no valid TLB entry survives a domain transition or region clean \
       (§IV-B2, §VII-A shootdown)" );
    ( "cache.no-residue",
      "no private cache line outlives its domain; the shared LLC never tags \
       monitor memory (§IV-B2)" );
    ( "enclave.lifecycle",
      "enclave state, measurement context and page-table root move in \
       lockstep (Fig. 3)" );
    ( "thread.lifecycle",
      "threads run only in initialized enclaves, one per core, with the \
       core's domain in agreement (Fig. 4)" );
    ( "core.domain",
      "every core's domain register names a live domain and carries that \
       domain's translation root" );
    ( "core.quarantine",
      "a quarantined core is fenced: halted, timer disarmed, no pending \
       interrupts — it can never execute again" );
    ( "meta.slots",
      "metadata slots stay inside the monitor's metadata window and never \
       overlap (§V-B)" );
    ( "lock.quiescent",
      "no fine-grained lock is held between API transactions (§V-A)" );
    ( "lock.leak",
      "trace: every acquired lock is released before its API call returns \
       (§V-A)" );
    ( "lock.guard",
      "trace: guarded monitor fields are only written under their lock \
       (§V-A)" );
    ( "lock.order",
      "trace: lock classes are acquired in a consistent global order \
       (resource < enclave < thread)" );
    ("order.create", "trace: an enclave id is never created twice (Fig. 3)");
    ( "order.init",
      "trace: init happens exactly once, after create (Fig. 3)" );
    ("order.enter", "trace: no enter before init (Fig. 3)");
    ("order.exit", "trace: every exit matches an outstanding enter (Fig. 1)");
    ( "order.destroy",
      "trace: no destroy while a thread is still inside (Fig. 3)" );
    ( "order.grant",
      "trace: no region is granted twice without an intervening free \
       (Fig. 2)" );
    ( "order.aex-resume",
      "trace: AEX state is only read after an asynchronous exit (§V-C)" );
    ( "order.mailbox",
      "trace: every mailbox receive matches a prior send (Fig. 5)" );
  ]

let snapshot sm = Invariants.check (Invariants.memo ()) sm

let trace events = Lockcheck.check events @ Orderlint.check events

let run_all ?(events = []) sm = snapshot sm @ trace events
