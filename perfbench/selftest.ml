(* Self-tests of the benchmark itself: its percentile rule, that a
   traced repetition's phases account for its measured total, and that
   its metric names are well-formed, mapped and listed in BENCHMARK.json
   (the path given as the first argument). *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let percentile_rule () =
  let ramp n = Array.init n (fun i -> float_of_int (n - i)) in
  check "p99 of 1000 samples" (Stats.percentile ~p:0.99 (ramp 1000) = Ok (990., 1000));
  check "p99 of 999 samples is refused"
    (Result.is_error (Stats.percentile ~p:0.99 (ramp 999)));
  check "p50 of 20 samples" (Stats.percentile ~p:0.5 (ramp 20) = Ok (10., 20));
  check "p50 of 19 samples is refused"
    (Result.is_error (Stats.percentile ~p:0.5 (ramp 19)));
  check "p75 of 40 samples" (Stats.percentile ~p:0.75 (ramp 40) = Ok (30., 40));
  check "median of an even count" (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5)

(* A short traced repetition of each kind: the spans of its calls must
   sum to its measured total. *)
let phases_sum () =
  Spans.enabled := true;
  let compute = Scenarios.engine_rep ~rounds:64 Sanctorum_workload.Workload.Compute ~seed:1 in
  let attest = Scenarios.attest_rep ~clients:16 ~seed:1 () in
  let fleet = Scenarios.fleet_rep ~seed:1 () in
  let reps = [ ("compute", compute); ("attest", attest); ("fleet", fleet) ] in
  Spans.enabled := false;
  Calib.freeze ();
  List.iter
    (fun (name, r) ->
      check (name ^ " ran clean") (r.Scenarios.problems = []);
      match List.assoc_opt "bench.phase_gap" (r.Scenarios.layers ()) with
      | None -> check (name ^ " reports its phase gap") false
      | Some gap ->
          check
            (Printf.sprintf "%s phases cover the total (gap %.4f)" name gap)
            (Float.abs gap <= Scenarios.phase_tolerance))
    reps;
  (* The same sum, spelled out for the engine repetition; the window
     also holds the calibration marks between its rounds. *)
  let spans = Spans.all () in
  let root = List.find (fun s -> s.Spans.name = "rep") spans in
  let phase name =
    List.find (fun s -> s.Spans.parent = root.Spans.id && s.Spans.name = name) spans
  in
  let window = phase "window" in
  let seconds name = Array.map snd (Spans.samples ~parent:window ~name spans) in
  let steps = seconds "Engine.step" in
  let every = Sanctorum_workload.Workload.(default.check_every) in
  let plain = ref 0. and ck = ref 0. in
  Array.iteri
    (fun i d -> if (i + 1) mod every = 0 then ck := !ck +. d else plain := !plain +. d)
    steps;
  let setup = Spans.duration (phase "setup")
  and calibration = Stats.sum (seconds "calibrate")
  and teardown = Spans.duration (phase "teardown")
  and total = Spans.duration root in
  check "compute: 64 step spans" (Array.length steps = 64);
  check "compute: setup + plain + checkpoint + calibration + teardown = total"
    (Float.abs (setup +. !plain +. !ck +. calibration +. teardown -. total)
    <= Scenarios.phase_tolerance *. total)

let names () =
  let e2e = List.map (fun m -> m.Catalog.e_name) Catalog.end_to_end in
  let layers = List.map (fun m -> m.Catalog.l_name) Catalog.per_layer in
  let all = Catalog.workloads @ e2e @ layers in
  List.iter (fun n -> check ("well-formed name " ^ n) (Catalog.valid_name n)) all;
  check "names are unique"
    (List.length (List.sort_uniq compare all) = List.length all);
  check "setup_s is an end-to-end metric" (List.mem "setup_s" e2e);
  List.iter
    (fun m ->
      let metric, wls = m.Catalog.moves in
      check (m.Catalog.l_name ^ " moves an end-to-end metric") (List.mem metric e2e);
      check (m.Catalog.l_name ^ " names workloads")
        (wls <> [] && List.for_all (fun w -> List.mem w Catalog.workloads) wls))
    Catalog.per_layer;
  check "every workload is defined"
    (List.map (fun w -> w.Scenarios.name) Scenarios.workloads = Catalog.workloads)

(* Every ["name": "..."] value in the manifest, in order. *)
let manifest_names path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let key = "\"name\": \"" in
  let rec scan from acc =
    match String.index_from_opt s from '"' with
    | None -> List.rev acc
    | Some i ->
        if i + String.length key <= String.length s
           && String.sub s i (String.length key) = key
        then
          let start = i + String.length key in
          let stop = String.index_from s start '"' in
          scan (stop + 1) (String.sub s start (stop - start) :: acc)
        else scan (i + 1) acc
  in
  scan 0 []

let manifest path =
  let listed = List.sort compare (manifest_names path) in
  let ours =
    List.sort compare
      (Catalog.workloads
      @ List.map (fun m -> m.Catalog.e_name) Catalog.end_to_end
      @ List.map (fun m -> m.Catalog.l_name) Catalog.per_layer)
  in
  check "BENCHMARK.json lists exactly the catalog's names" (listed = ours)

let () =
  percentile_rule ();
  names ();
  if Array.length Sys.argv > 1 then manifest Sys.argv.(1);
  phases_sum ();
  if !failures > 0 then begin
    Printf.printf "%d self-test failures\n" !failures;
    exit 1
  end;
  print_endline "perfbench self-tests passed"
