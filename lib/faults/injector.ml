module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry

(* The PR-3 fault engine carried its own splitmix64; it now lives in
   lib/util, shared with the workload and fleet engines. The stream is
   unchanged (known-answer-tested), so recorded fault schedules still
   replay. *)
module Rng = Sanctorum_util.Splitmix

type action =
  | Flip of { paddr : int; bit : int }
  | Flip2 of { paddr : int; bit_a : int; bit_b : int }
  | Drop_irq
  | Spurious of Hw.Trap.interrupt
  | Drop_ipis of int
  | Dma of { paddr : int; data : string }
  | Core_check

type scheduled = { at : int; action : action; mutable fired : bool }

type t = {
  machine : Hw.Machine.t;
  schedule : scheduled array;  (* sorted by cycle, generation order ties *)
  mutable next : int;
  mutable now : int;
  mutable irq_drops : int;  (* armed, not yet consumed *)
  mutable ipi_drops : int;
  mutable injected : int;
  mutable irqs_dropped : int;
  mutable ipis_dropped : int;
  mutable dma_results : (int * bool) list;  (* (paddr, granted) *)
}

let describe = function
  | Flip { paddr; bit } -> Printf.sprintf "bitflip 0x%x bit %d" paddr bit
  | Flip2 { paddr; bit_a; bit_b } ->
      Printf.sprintf "bitflip2 0x%x bits %d,%d" paddr bit_a bit_b
  | Drop_irq -> "irq-drop"
  | Spurious irq ->
      Printf.sprintf "spurious-irq %s"
        (Hw.Trap.cause_label (Hw.Trap.Interrupt irq))
  | Drop_ipis n -> Printf.sprintf "ipi-drop x%d" n
  | Dma { paddr; _ } -> Printf.sprintf "dma 0x%x" paddr
  | Core_check -> "mce"

(* One schedule entry per fault the spec asks for, with every random
   choice drawn from the seeded stream in a fixed generation order, so
   the schedule is a pure function of (seed, spec, machine geometry). *)
let plan rng ~mem_size ~spec =
  let word () = Rng.int rng ~bound:(mem_size / 8) * 8 in
  let gen cls =
    match (cls : Spec.fault_class) with
    | Spec.Bit_flip -> Flip { paddr = word (); bit = Rng.int rng ~bound:64 }
    | Spec.Double_bit_flip ->
        let bit_a = Rng.int rng ~bound:64 in
        let bit_b = (bit_a + 1 + Rng.int rng ~bound:63) mod 64 in
        Flip2 { paddr = word (); bit_a; bit_b }
    | Spec.Irq_drop -> Drop_irq
    | Spec.Spurious_irq ->
        Spurious
          (Rng.pick rng
             [ Hw.Trap.Timer; Hw.Trap.Software; Hw.Trap.External 7 ])
    | Spec.Ipi_drop ->
        (* 1-2 lost deliveries force retries; losing a full round of
           [shootdown_max_attempts] kills the target instead *)
        Drop_ipis (1 + Rng.int rng ~bound:Hw.Machine.shootdown_max_attempts)
    | Spec.Dma_misfire ->
        let data = String.init 8 (fun _ -> Char.chr (Rng.int rng ~bound:256)) in
        Dma { paddr = word (); data }
    | Spec.Core_check -> Core_check
  in
  let entries =
    List.concat_map
      (fun { Spec.cls; count } ->
        List.init count (fun _ ->
            let at = Rng.int rng ~bound:max_int in
            (at, gen cls)))
      spec
  in
  entries

let create ?(horizon = 4000) ~machine ~seed ~spec () =
  if horizon <= 0 then invalid_arg "Injector.create: horizon must be positive";
  let rng = Rng.create ~seed in
  let mem_size = Hw.Phys_mem.size (Hw.Machine.mem machine) in
  let entries =
    plan rng ~mem_size ~spec
    |> List.map (fun (raw, action) ->
           { at = raw mod horizon; action; fired = false })
  in
  let schedule = Array.of_list entries in
  Array.stable_sort (fun a b -> compare a.at b.at) schedule;
  {
    machine;
    schedule;
    next = 0;
    now = 0;
    irq_drops = 0;
    ipi_drops = 0;
    injected = 0;
    irqs_dropped = 0;
    ipis_dropped = 0;
    dma_results = [];
  }

let emit t action =
  let sink = Hw.Machine.sink t.machine in
  if Tel.Sink.enabled sink then begin
    Tel.Sink.incr_counter sink "faults.injected";
    let fault =
      match action with
      | Flip _ -> "bitflip"
      | Flip2 _ -> "bitflip2"
      | Drop_irq -> "irq-drop"
      | Spurious _ -> "spurious-irq"
      | Drop_ipis _ -> "ipi-drop"
      | Dma _ -> "dma"
      | Core_check -> "mce"
    in
    Tel.Sink.emit sink ~core:(-1) ~cycles:t.now
      (Tel.Event.Fault_injected { fault; detail = describe action })
  end

(* [core] is the core whose tick made the entry due: core-targeted
   faults hit it precisely because it is demonstrably live. *)
let fire t ~core action =
  t.injected <- t.injected + 1;
  emit t action;
  match action with
  | Flip { paddr; bit } ->
      Hw.Phys_mem.inject_bit_flip (Hw.Machine.mem t.machine) ~paddr ~bit
  | Flip2 { paddr; bit_a; bit_b } ->
      let mem = Hw.Machine.mem t.machine in
      Hw.Phys_mem.inject_bit_flip mem ~paddr ~bit:bit_a;
      Hw.Phys_mem.inject_bit_flip mem ~paddr ~bit:bit_b
  | Drop_irq -> t.irq_drops <- t.irq_drops + 1
  | Spurious irq -> Hw.Machine.post_interrupt t.machine ~core irq
  | Drop_ipis n -> t.ipi_drops <- t.ipi_drops + n
  | Dma { paddr; data } ->
      let granted =
        match Hw.Machine.dma_write t.machine ~paddr data with
        | Ok () -> true
        | Error _ -> false
      in
      t.dma_results <- (paddr, granted) :: t.dma_results
  | Core_check -> Hw.Machine.raise_machine_check t.machine ~core ~paddr:(-1)

let tick t ~core ~cycles =
  if cycles > t.now then t.now <- cycles;
  while
    t.next < Array.length t.schedule && t.schedule.(t.next).at <= t.now
  do
    let entry = t.schedule.(t.next) in
    t.next <- t.next + 1;
    if not entry.fired then begin
      entry.fired <- true;
      fire t ~core entry.action
    end
  done

let irq_gate t ~core:_ ~irq:_ =
  if t.irq_drops > 0 then begin
    t.irq_drops <- t.irq_drops - 1;
    t.irqs_dropped <- t.irqs_dropped + 1;
    false
  end
  else true

let drop_shootdown_ipi t ~target_core:_ ~attempt:_ =
  if t.ipi_drops > 0 then begin
    t.ipi_drops <- t.ipi_drops - 1;
    t.ipis_dropped <- t.ipis_dropped + 1;
    true
  end
  else false

let arm t =
  Hw.Machine.set_fault_hooks t.machine
    (Some
       {
         Hw.Machine.tick = (fun ~core ~cycles -> tick t ~core ~cycles);
         irq_gate = (fun ~core ~irq -> irq_gate t ~core ~irq);
         drop_shootdown_ipi =
           (fun ~target_core ~attempt -> drop_shootdown_ipi t ~target_core ~attempt);
       })

let disarm t = Hw.Machine.set_fault_hooks t.machine None

let schedule t =
  Array.to_list (Array.map (fun e -> (e.at, describe e.action)) t.schedule)

type stats = {
  injected : int;
  pending : int;
  irqs_dropped : int;
  ipis_dropped : int;
  dma_granted : int;
  dma_denied : int;
}

let stats t =
  let dma_granted, dma_denied =
    List.fold_left
      (fun (g, d) (_, granted) -> if granted then (g + 1, d) else (g, d + 1))
      (0, 0) t.dma_results
  in
  {
    injected = t.injected;
    pending = Array.length t.schedule - t.next;
    irqs_dropped = t.irqs_dropped;
    ipis_dropped = t.ipis_dropped;
    dma_granted;
    dma_denied;
  }

let dma_grants t =
  List.filter_map
    (fun (paddr, granted) -> if granted then Some paddr else None)
    t.dma_results
