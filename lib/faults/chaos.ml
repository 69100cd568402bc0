module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
module Sm = Sanctorum.Sm
module An = Sanctorum_analysis
module Tel = Sanctorum_telemetry
open Sanctorum_os

type report = {
  backend : string;
  seed : int64;
  spec : Spec.t;
  rounds : int;
  completed : int;
  failed_closed : int;
  incidents : string list;
  stats : Injector.stats;
  ecc_corrected : int;
  words_retired : int;
  quarantined_cores : int;
  findings : An.Report.violation list;
  fail_open : string list;
}

let evbase = 0x10000
let target = 300

let live_core machine =
  let cores = Hw.Machine.cores machine in
  let rec go i =
    if i >= Array.length cores then None
    else if cores.(i).Hw.Machine.quarantined then go (i + 1)
    else Some i
  in
  go 0

(* Drive one installed enclave to completion: run it again after every
   AEX and every lost timer tick (Fuel_exhausted without an AEX), give
   up after [budget] scheduling decisions. *)
let drive os ~eid ~tid ~core =
  let fuel = 5000 and quantum = 200 in
  let rec go budget =
    if budget = 0 then `Gave_up
    else
      match Os.run_enclave os ~eid ~tid ~core ~fuel ~quantum () with
      | Ok Os.Exited -> `Exited
      | Ok (Os.Preempted | Os.Fuel_exhausted) -> go (budget - 1)
      | Ok (Os.Faulted c) -> `Faulted c
      | Ok Os.Killed -> `Killed
      | Error e -> `Denied e
  in
  go 100

let run ?(backend = Testbed.Sanctum_backend) ?(rounds = 5) ?horizon ?sink
    ~seed ~spec () =
  let horizon = Option.value horizon ~default:(1500 * rounds) in
  (* the trace passes read the run's own events, so a run always
     records them *)
  let sink = match sink with Some s -> s | None -> Tel.Sink.create () in
  let tb =
    Testbed.create ~backend ~seed:(Printf.sprintf "chaos-%Ld" seed) ~sink ()
  in
  let machine = tb.Testbed.machine in
  let mem = Hw.Machine.mem machine in
  let inj = Injector.create ~horizon ~machine ~seed ~spec () in
  Injector.arm inj;
  let completed = ref 0 and failed_closed = ref 0 in
  let incidents = ref [] and fail_open = ref [] in
  let closed msg =
    incr failed_closed;
    incidents := msg :: !incidents
  in
  (* One run-long lock-discipline pass and one orderliness pass step
     over each round's new events, from the first seq they have not
     read. The ring is never cleared, so a caller's sink still holds
     the whole trace; an event it overwrote before the passes read it
     is counted as lost. *)
  let locks = An.Lockcheck.create () and lint = An.Orderlint.create () in
  let stepped = ref 0 and lost = ref 0 in
  let step_trace () =
    Tel.Sink.iter ~from:!stepped
      (fun ~seq ~core ~cycles:_ payload ->
        lost := !lost + (seq - !stepped);
        An.Lockcheck.step locks ~seq payload;
        An.Orderlint.step lint ~seq ~core payload;
        stepped := seq + 1)
      sink
  in
  let image = Testbed.counting_image ~evbase ~target in
  for round = 1 to rounds do
    let pre = Printf.sprintf "round %d: " round in
    (match live_core machine with
    | None -> closed (pre ^ "no live cores left")
    | Some core -> (
        match Os.install_enclave tb.Testbed.os image with
        | exception exn ->
            fail_open := (pre ^ "install raised " ^ Printexc.to_string exn)
                         :: !fail_open
        | Error e ->
            closed (pre ^ "install denied: " ^ Sanctorum.Api_error.to_string e)
        | Ok inst -> (
            let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
            let counter_paddr =
              let vpn = (evbase + Hw.Phys_mem.page_size) / Hw.Phys_mem.page_size in
              Option.map Hw.Phys_mem.page_base
                (List.assoc_opt vpn (Sm.enclave_mappings tb.Testbed.sm ~eid))
            in
            (match drive tb.Testbed.os ~eid ~tid ~core with
            | exception exn ->
                fail_open := (pre ^ "run raised " ^ Printexc.to_string exn)
                             :: !fail_open
            | `Exited -> (
                match counter_paddr with
                | None ->
                    fail_open := (pre ^ "exited but the counter page was never \
                                         mapped") :: !fail_open
                | Some paddr -> (
                    (* the verifying read goes through ECC, like any
                       post-hoc DMA or inspection would *)
                    match Hw.Phys_mem.scrub mem ~pos:paddr ~len:8 with
                    | `Uncorrectable _ ->
                        closed (pre ^ "result word uncorrectable; discarded")
                    | `Clean | `Corrected _ ->
                        let v = Hw.Phys_mem.read_u64 mem paddr in
                        if v = Int64.of_int target then incr completed
                        else
                          fail_open :=
                            Printf.sprintf
                              "%sexited with wrong result %Ld (expected %d)"
                              pre v target
                            :: !fail_open))
            | `Faulted c ->
                closed
                  (pre ^ Format.asprintf "faulted (%a)" Hw.Trap.pp_cause c)
            | `Killed -> closed (pre ^ "core quarantined mid-run")
            | `Denied e ->
                closed (pre ^ "denied: " ^ Sanctorum.Api_error.to_string e)
            | `Gave_up -> closed (pre ^ "scheduling budget exhausted"));
            match Os.reclaim_enclave tb.Testbed.os ~eid with
            | exception exn ->
                fail_open := (pre ^ "reclaim raised " ^ Printexc.to_string exn)
                             :: !fail_open
            | Ok () -> ()
            | Error e ->
                incidents :=
                  (pre ^ "reclaim denied: " ^ Sanctorum.Api_error.to_string e)
                  :: !incidents)));
    step_trace ()
  done;
  Injector.disarm inj;
  (* A misfired DMA the machine let through must have landed in plain
     untrusted memory; anything else is a hole in the isolation. *)
  List.iter
    (fun paddr ->
      let owner = tb.Testbed.platform.Pf.Platform.owner_at ~paddr in
      if owner <> Hw.Trap.domain_untrusted then
        fail_open :=
          Printf.sprintf "DMA misfire granted into domain %d memory at 0x%x"
            owner paddr
          :: !fail_open)
    (Injector.dma_grants inj);
  (* Recovery completes with one patrol pass; after it the monitor's
     state must be indistinguishable from a healthy machine's. *)
  let _, retired = Sm.patrol_scrub tb.Testbed.sm in
  ignore retired;
  step_trace ();
  let lost_events =
    if !lost = 0 then []
    else
      [ An.Report.v "trace.lost" ~subject:"trace"
          (Printf.sprintf "%d events overwritten before the passes read them"
             !lost) ]
  in
  let findings =
    An.Checker.snapshot tb.Testbed.sm @ An.Lockcheck.finish locks
    @ An.Orderlint.findings lint @ lost_events
  in
  let quarantined =
    Array.fold_left
      (fun acc c -> if c.Hw.Machine.quarantined then acc + 1 else acc)
      0 (Hw.Machine.cores machine)
  in
  {
    backend = Testbed.backend_name backend;
    seed;
    spec;
    rounds;
    completed = !completed;
    failed_closed = !failed_closed;
    incidents = List.rev !incidents;
    stats = Injector.stats inj;
    ecc_corrected = Hw.Phys_mem.corrected_count mem;
    words_retired = Hw.Phys_mem.uncorrectable_count mem;
    quarantined_cores = quarantined;
    findings;
    fail_open = List.rev !fail_open;
  }

let ok r = r.fail_open = [] && r.findings = []

let pp fmt r =
  Format.fprintf fmt "chaos %s seed=%Ld faults=%a@." r.backend r.seed Spec.pp
    r.spec;
  Format.fprintf fmt
    "  rounds: %d (%d completed, %d failed closed)@."
    r.rounds r.completed r.failed_closed;
  Format.fprintf fmt
    "  injected: %d (%d pending), irqs dropped %d, IPIs dropped %d, DMA %d \
     granted / %d denied@."
    r.stats.Injector.injected r.stats.Injector.pending
    r.stats.Injector.irqs_dropped r.stats.Injector.ipis_dropped
    r.stats.Injector.dma_granted r.stats.Injector.dma_denied;
  Format.fprintf fmt
    "  recovery: %d ECC corrections, %d words retired, %d cores quarantined@."
    r.ecc_corrected r.words_retired r.quarantined_cores;
  List.iter (fun i -> Format.fprintf fmt "  closed: %s@." i) r.incidents;
  List.iter (fun e -> Format.fprintf fmt "  FAIL-OPEN: %s@." e) r.fail_open;
  List.iter
    (fun v -> Format.fprintf fmt "  FINDING: %a@." An.Report.pp v)
    r.findings;
  Format.fprintf fmt "  verdict: %s@."
    (if ok r then "fail-closed (ok)" else "FAIL-OPEN or unrecovered")
