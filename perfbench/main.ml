(* perfbench: the scenario benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Runs repetitions of one workload, checks every repetition's outputs,
   and prints the metrics, last line one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   --trace 0 gives the end-to-end metrics from untraced repetitions;
   --trace 1 alternates untraced and traced repetitions and gives the
   per-layer metrics, computed from the traced ones, and writes their
   spans to perfbench/out/. *)

module Sc = Perfbench.Scenarios
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Catalog = Perfbench.Catalog
module Calib = Perfbench.Calib

let default_seed = 1

let usage () =
  prerr_endline
    "usage: main.exe --workload (compute|ipc|churn|attest|fleet) [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

(* Peak resident memory (MB) of the process so far. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
              match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
              | Some kb -> Some (float_of_int kb /. 1024.)
              | None -> scan ())
        in
        scan ())
  with Sys_error _ -> None

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %s %s\n" n (json_number v) u) metrics;
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* Each repetition is bracketed by calibration marks (see [Calib]). The
   peak memory is read after the first: later repetitions inherit what
   the runtime keeps from earlier ones (fleet domains' heaps above all),
   so only the first shows what one scenario costs a fresh process. *)
let run_reps (w : Sc.workload) ~seed ~reps ~traced =
  List.init reps (fun i ->
      Gc.compact ();
      Calib.mark ~samples:4 ();
      Spans.enabled := traced i;
      let r =
        try w.Sc.run ~rep_index:i ~seed
        with e ->
          {
            Sc.setup = None;
            work = [];
            ops = 0;
            rounds = [||];
            total = (0L, 0.);
            signature = "";
            problems = [ "exception: " ^ Printexc.to_string e ];
            layers = Sc.no_layers;
          }
      in
      Spans.enabled := false;
      let rss = if i = 0 then peak_rss_mb () else None in
      Calib.mark ~samples:4 ();
      (traced i, rss, r))

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 15
  and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "perfbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.Sc.name = !workload) Sc.workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let reps =
    max w.Sc.min_reps
      (int_of_float (Float.ceil (float_of_int !seconds /. w.Sc.nominal_s)))
  in
  let reps = if traced then 2 * ((reps + 1) / 2) else reps in
  Printf.printf "perfbench workload=%s seed=%d reps=%d trace=%d\n%!" w.Sc.name
    !seed reps !trace;
  let results =
    run_reps w ~seed:!seed ~reps ~traced:(fun i -> traced && i mod 2 = 1)
  in
  Calib.freeze ();
  let all = List.map (fun (_, _, r) -> r) results in
  let signature = (List.hd all).Sc.signature in
  let same_signature = List.for_all (fun r -> r.Sc.signature = signature) all in
  let clean r = r.Sc.problems = [] && same_signature in
  List.iteri
    (fun i (t, rss, r) ->
      let setup = Option.fold ~none:0. ~some:snd r.Sc.setup in
      let work = List.fold_left (fun a (_, s) -> a +. s) 0. r.Sc.work in
      Printf.printf
        "rep %d%s: setup %.4f s, work %.4f s, %d ops, total %.4f s, host speed %.3f%s\n" i
        (if t then " (traced)" else "")
        setup work r.Sc.ops (snd r.Sc.total) (Calib.speed r.Sc.total)
        (Option.fold ~none:"" ~some:(Printf.sprintf ", peak %.1f MB") rss);
      List.iter (Printf.printf "rep %d: %s\n" i) r.Sc.problems;
      if r.Sc.signature <> signature then
        Printf.printf "rep %d: simulated signature differs from rep 0:\n%s\n" i
          r.Sc.signature)
    results;
  Printf.printf "signature %s\n"
    (String.sub
       (Sanctorum_util.Hex.encode (Sanctorum_crypto.Sha3.sha3_256 signature))
       0 16);
  (* Every operation of a repetition that ran dirty counts as failed. *)
  let attempted = List.fold_left (fun a r -> a + max 1 r.Sc.ops) 0 all in
  let failed =
    List.fold_left (fun a r -> if clean r then a else a + max 1 r.Sc.ops) 0 all
  in
  let correct = ref (failed = 0) in
  let pick traced' =
    List.filter_map (fun (t, _, r) -> if t = traced' then Some r else None) results
  in
  let metrics =
    if not traced then begin
      let rounds = Array.concat (List.map (fun r -> Sc.scaled r.Sc.rounds) all) in
      let pct p =
        match Stats.percentile ~p rounds with
        | Ok (v, n) ->
            Printf.printf "round latency p%g over %d samples\n" (100. *. p) n;
            Sc.ms v
        | Error msg ->
            Printf.printf "%s\n" msg;
            correct := false;
            0.
      in
      let setups = Array.of_list (List.filter_map (fun r -> Option.map Calib.scale r.Sc.setup) all) in
      let rates =
        Array.of_list
          (List.map (fun r -> Stats.ratio (float_of_int r.Sc.ops) (Sc.scaled_sum r.Sc.work)) all)
      in
      let p50 = pct 0.5 in
      let tail = pct w.Sc.tail in
      [
        ("ops_per_s", Stats.median rates, "1/s");
        ("round_ms_p50", p50, "ms");
        ("round_ms_tail", tail, "ms");
        ( "peak_rss_mb",
          Option.value ~default:0. (List.find_map (fun (_, rss, _) -> rss) results),
          "MB" );
        ("setup_s", Stats.median setups, "s");
      ]
    end
    else begin
      let traced_reps = pick true and plain_reps = pick false in
      let median_of f l = Stats.median (Array.of_list (List.map f l)) in
      (* Tracing overhead on the timed work, which every repetition
         repeats identically (set-ups are timed in the first few only). *)
      let work r = Sc.scaled_sum r.Sc.work in
      let overhead = Stats.ratio (median_of work traced_reps) (median_of work plain_reps) -. 1. in
      let layers =
        List.map
          (fun r -> ("bench.host_speed", Calib.speed r.Sc.total) :: r.Sc.layers ())
          traced_reps
      in
      (* A layer a workload does not exercise reads 0. *)
      let layer name =
        if name = "bench.trace_overhead" then overhead
        else Stats.median (Array.of_list (List.filter_map (List.assoc_opt name) layers))
      in
      let gap = layer "bench.phase_gap" in
      if Float.abs gap > Sc.phase_tolerance then begin
        Printf.printf "traced phases leave %.2f%% of the total uncovered\n" (100. *. gap);
        correct := false
      end;
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" w.Sc.name !seed in
      (try
         Spans.write path (Spans.all ());
         Printf.printf "spans written to %s\n" path
       with Sys_error msg -> Printf.printf "spans not written: %s\n" msg);
      List.map
        (fun m -> (m.Catalog.l_name, layer m.Catalog.l_name, m.Catalog.l_unit))
        Catalog.per_layer
    end
  in
  print_result ~correct:!correct ~attempted ~failed metrics
