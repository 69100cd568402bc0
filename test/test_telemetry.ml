(* The telemetry subsystem: ring-buffer discipline, metrics-registry
   contracts, exporter well-formedness, and the Guardian-style check
   that one enclave run emits its lifecycle events in order. *)
module Hw = Sanctorum_hw
module S = Sanctorum.Sm
module Tel = Sanctorum_telemetry
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let test_ring_wraparound () =
  let r = Tel.Ring.create ~capacity:4 in
  for i = 0 to 9 do
    Tel.Ring.push r i
  done;
  check_int "length" 4 (Tel.Ring.length r);
  check_int "pushed" 10 (Tel.Ring.pushed r);
  check_int "dropped" 6 (Tel.Ring.dropped r);
  Alcotest.(check (list int)) "surviving window, oldest first" [ 6; 7; 8; 9 ]
    (Tel.Ring.to_list r);
  Tel.Ring.clear r;
  check_int "cleared" 0 (Tel.Ring.length r);
  check_int "accounting reset" 0 (Tel.Ring.dropped r);
  (* a wrapped ring reused after a clear holds only what follows it *)
  Tel.Ring.push r 10;
  Tel.Ring.push r 11;
  Alcotest.(check (list int)) "refilled after clear" [ 10; 11 ]
    (Tel.Ring.to_list r);
  for i = 12 to 14 do
    Tel.Ring.push r i
  done;
  Alcotest.(check (list int)) "wraps again after clear" [ 11; 12; 13; 14 ]
    (Tel.Ring.to_list r);
  check_int "dropped since clear" 1 (Tel.Ring.dropped r)

let test_ring_partial () =
  let r = Tel.Ring.create ~capacity:8 in
  Tel.Ring.push r "a";
  Tel.Ring.push r "b";
  Alcotest.(check (list string)) "no wrap" [ "a"; "b" ] (Tel.Ring.to_list r);
  check_int "nothing dropped" 0 (Tel.Ring.dropped r);
  (* clearing a partly filled ring, then refilling it less far *)
  Tel.Ring.clear r;
  check_int "cleared" 0 (Tel.Ring.length r);
  Tel.Ring.push r "c";
  Alcotest.(check (list string)) "refilled after clear" [ "c" ]
    (Tel.Ring.to_list r);
  for i = 0 to 8 do
    Tel.Ring.push r (string_of_int i)
  done;
  Alcotest.(check (list string))
    "wraps after clear"
    [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8" ]
    (Tel.Ring.to_list r);
  check_int "dropped since clear" 2 (Tel.Ring.dropped r)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_registry () =
  let m = Tel.Metrics.create () in
  let c1 = Tel.Metrics.counter m "hw.tlb.hits" in
  let c2 = Tel.Metrics.counter m "hw.tlb.hits" in
  Tel.Metrics.incr c1;
  Tel.Metrics.add c2 2;
  (* same name -> same instrument *)
  check_int "shared counter" 3 (Tel.Metrics.value c1);
  (* registering the same name as the other kind is a program error *)
  check_bool "kind conflict raises" true
    (match Tel.Metrics.histogram m "hw.tlb.hits" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "reverse conflict raises" true
    (let _ = Tel.Metrics.histogram m "sm.api.latency" in
     match Tel.Metrics.counter m "sm.api.latency" with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_int "registry size" 2 (List.length (Tel.Metrics.to_list m));
  Tel.Metrics.reset m;
  check_int "reset zeroes" 0 (Tel.Metrics.value c1)

let test_histogram_summary () =
  let m = Tel.Metrics.create () in
  let h = Tel.Metrics.histogram m "sm.api.latency" in
  List.iter (Tel.Metrics.observe h) [ 1; 2; 3; 10 ];
  let s = Tel.Metrics.summary h in
  check_int "count" 4 s.Tel.Metrics.count;
  check_int "sum" 16 s.Tel.Metrics.sum;
  check_int "min" 1 s.Tel.Metrics.min;
  check_int "max" 10 s.Tel.Metrics.max;
  Alcotest.(check (float 0.001)) "mean" 4.0 s.Tel.Metrics.mean

(* The log-linear buckets must keep nearby latency modes apart: a
   distribution with distinct p50/p90/p99 populations must report
   three distinct percentiles (each within the documented 25% bucket
   error), not one saturated bucket upper for all three. *)
let test_percentile_resolution () =
  let m = Tel.Metrics.create () in
  let h = Tel.Metrics.histogram m "latency.resolution" in
  for _ = 1 to 80 do Tel.Metrics.observe h 520 done;
  for _ = 1 to 15 do Tel.Metrics.observe h 700 done;
  for _ = 1 to 5 do Tel.Metrics.observe h 1000 done;
  let p50 = Tel.Metrics.percentile h 0.50 in
  let p90 = Tel.Metrics.percentile h 0.90 in
  let p99 = Tel.Metrics.percentile h 0.99 in
  check_int "p50 bucket" 639 p50;
  check_int "p90 bucket" 767 p90;
  check_int "p99 clamps to max" 1000 p99;
  check_bool "p50 < p90 < p99" true (p50 < p90 && p90 < p99);
  (* each upper bound stays within the advertised 25% of the mode *)
  List.iter
    (fun (p, v) ->
      check_bool
        (Printf.sprintf "p=%d within 25%% of %d" p v)
        true
        (p >= v && float_of_int p <= 1.25 *. float_of_int v))
    [ (p50, 520); (p90, 700); (p99, 1000) ];
  (* merge preserves the shape: fold a second histogram in and the
     percentiles of the union come out of the merged buckets *)
  let m2 = Tel.Metrics.create () in
  let h2 = Tel.Metrics.histogram m2 "latency.resolution" in
  for _ = 1 to 100 do Tel.Metrics.observe h2 520 done;
  Tel.Metrics.merge ~into:h2 h;
  check_int "merged count" 200 (Tel.Metrics.summary h2).Tel.Metrics.count;
  check_int "merged p50" 639 (Tel.Metrics.percentile h2 0.50);
  check_int "merged p99" 1000 (Tel.Metrics.percentile h2 0.99);
  (* the fleet folds per-shard [net.retransmit.delay] histograms the
     same way. Exponential backoff makes the modes geometrically
     spaced — base*2^k plus jitter — which is exactly the shape the
     log-linear buckets are supposed to keep apart through a merge:
     the percentiles of the union must still resolve distinct backoff
     generations, not collapse into one saturated bucket. *)
  let shard_a = Tel.Metrics.create () and shard_b = Tel.Metrics.create () in
  let ra = Tel.Metrics.histogram shard_a "net.retransmit.delay" in
  let rb = Tel.Metrics.histogram shard_b "net.retransmit.delay" in
  (* shard a retried early generations; shard b's peer was deaf longer *)
  for _ = 1 to 16 do Tel.Metrics.observe ra 24 done;
  for _ = 1 to 4 do Tel.Metrics.observe ra 48 done;
  List.iter (Tel.Metrics.observe rb) [ 96; 97; 99; 101; 192; 193; 195; 390 ];
  Tel.Metrics.merge ~into:ra rb;
  let s = Tel.Metrics.summary ra in
  check_int "retransmit union count" 28 s.Tel.Metrics.count;
  check_int "slowest retry survives the merge" 390 s.Tel.Metrics.max;
  let rp50 = Tel.Metrics.percentile ra 0.50 in
  let rp90 = Tel.Metrics.percentile ra 0.90 in
  let rp99 = Tel.Metrics.percentile ra 0.99 in
  check_bool "backoff generations stay distinct" true
    (rp50 < rp90 && rp90 < rp99);
  check_bool "p50 in the first backoff generations" true
    (rp50 >= 24 && rp50 <= 64);
  check_int "p99 clamps to the slowest retry" 390 rp99

(* ------------------------------------------------------------------ *)
(* A traced end-to-end run shared by the remaining tests. *)

let traced_run () =
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~metrics () in
  let tb = Testbed.create ~sink () in
  let image =
    Sanctorum.Image.of_program ~evbase:0x10000
      Hw.Isa.[ Op_imm (Add, a7, zero, S.Ecall.exit_enclave); Ecall ]
  in
  (match Os.install_enclave tb.Testbed.os image with
  | Ok inst ->
      (match
         Os.run_enclave tb.Testbed.os ~eid:inst.Os.eid
           ~tid:(List.hd inst.Os.tids) ~core:0 ~fuel:1000 ()
       with
      | Ok Os.Exited -> ()
      | _ -> Alcotest.fail "enclave did not exit")
  | Error e -> Alcotest.failf "install: %s" (Sanctorum.Api_error.to_string e));
  (tb, sink, metrics)

(* ------------------------------------------------------------------ *)
(* Chrome trace export: structural well-formedness via our own parser. *)

let test_chrome_trace_wellformed () =
  let _tb, sink, metrics = traced_run () in
  let events = Tel.Sink.events sink in
  check_bool "events recorded" true (events <> []);
  let json =
    match Tel.Json.parse (Tel.Export.chrome_trace ~metrics events) with
    | Ok j -> j
    | Error m -> Alcotest.failf "trace does not parse: %s" m
  in
  let trace_events =
    match Option.bind (Tel.Json.member "traceEvents" json) Tel.Json.to_list_opt
    with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let name_of e =
    match Option.bind (Tel.Json.member "name" e) Tel.Json.to_string_opt with
    | Some n -> n
    | None -> Alcotest.fail "event without a name"
  in
  List.iter
    (fun e ->
      let _ = name_of e in
      check_bool "has ph" true (Tel.Json.member "ph" e <> None);
      check_bool "has pid" true (Tel.Json.member "pid" e <> None);
      (* metadata records carry no timestamp; everything else must *)
      match Option.bind (Tel.Json.member "ph" e) Tel.Json.to_string_opt with
      | Some "M" -> ()
      | _ ->
          check_bool "has ts" true
            (Option.bind (Tel.Json.member "ts" e) Tel.Json.to_int_opt <> None))
    trace_events;
  let names = List.map name_of trace_events in
  let has prefix =
    List.exists
      (fun n ->
        String.length n >= String.length prefix
        && String.sub n 0 (String.length prefix) = prefix)
      names
  in
  check_bool "trap events present" true (has "trap:");
  check_bool "SM API events present" true (has "sm:");
  check_bool "lifecycle events present" true (has "enclave:");
  (* metric totals ride along *)
  check_bool "otherData attached" true (Tel.Json.member "otherData" json <> None)

let test_jsonl_export () =
  let _tb, sink, _metrics = traced_run () in
  let lines =
    Tel.Export.jsonl (Tel.Sink.events sink)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" (List.length (Tel.Sink.events sink))
    (List.length lines);
  List.iter
    (fun line ->
      match Tel.Json.parse line with
      | Ok j -> check_bool "has cycles" true (Tel.Json.member "cycles" j <> None)
      | Error m -> Alcotest.failf "bad jsonl line: %s" m)
    lines

(* A NaN or infinite float prints as null, so the output always parses;
   a finite one prints exactly. *)
let test_json_floats () =
  List.iter
    (fun f ->
      let s = Tel.Json.to_string (Tel.Json.Float f) in
      Alcotest.(check string) "prints null" "null" s;
      check_bool "parses back to Null" true
        (Tel.Json.parse s = Ok Tel.Json.Null))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let x = 0.1 +. 0.2 in
  check_bool "finite float round-trips" true
    (Tel.Json.parse (Tel.Json.to_string (Tel.Json.Float x))
    = Ok (Tel.Json.Float x))

(* ------------------------------------------------------------------ *)
(* Orderliness: one create -> enter -> exit run must emit exactly that
   lifecycle sequence, in emission order, with the right eid. *)

let test_lifecycle_event_order () =
  let _tb, sink, metrics = traced_run () in
  let events = Tel.Sink.events sink in
  (* seq is globally increasing *)
  let rec ordered = function
    | (a : Tel.Event.t) :: (b :: _ as rest) ->
        a.Tel.Event.seq < b.Tel.Event.seq && ordered rest
    | [ _ ] | [] -> true
  in
  check_bool "sequence numbers increase" true (ordered events);
  let lifecycle =
    List.filter_map
      (fun (e : Tel.Event.t) ->
        match e.Tel.Event.payload with
        | Tel.Event.Enclave_created { eid } -> Some (`Created eid)
        | Tel.Event.Enclave_entered { eid; _ } -> Some (`Entered eid)
        | Tel.Event.Enclave_exited { eid; aex } -> Some (`Exited (eid, aex))
        | _ -> None)
      events
  in
  (match lifecycle with
  | [ `Created e1; `Entered e2; `Exited (e3, aex) ] ->
      check_bool "same enclave throughout" true (e1 = e2 && e2 = e3);
      check_bool "voluntary exit, not AEX" false aex
  | _ -> Alcotest.failf "unexpected lifecycle shape (%d events)"
           (List.length lifecycle));
  (* the counters saw the same story *)
  let value n =
    match Tel.Metrics.find metrics n with
    | Some (Tel.Metrics.Counter c) -> Tel.Metrics.value c
    | _ -> 0
  in
  check_int "one create call" 1 (value "sm.api.calls.create_enclave");
  check_int "one enter call" 1 (value "sm.api.calls.enter_enclave");
  check_bool "instructions retired" true (value "hw.instret" > 0)

(* ------------------------------------------------------------------ *)
(* Audit log: rejections are recorded with their reason. *)

let test_audit_rejections () =
  let tb, sink, _metrics = traced_run () in
  (* the OS is not an enclave: this call must be refused and audited *)
  (match S.exit_enclave tb.Testbed.sm ~caller:S.Os ~core:0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "OS exit_enclave unexpectedly accepted");
  let entries = Tel.Audit.of_events (Tel.Sink.events sink) in
  check_bool "decisions recorded" true (entries <> []);
  check_bool "no rejection before the bad call" true
    (List.for_all
       (fun e -> e.Tel.Audit.api <> "exit_enclave" || e.Tel.Audit.caller <> "os")
       (Tel.Audit.accepted entries));
  match
    List.filter
      (fun e -> e.Tel.Audit.api = "exit_enclave" && e.Tel.Audit.caller = "os")
      (Tel.Audit.rejected entries)
  with
  | [ e ] ->
      check_bool "carries the reason" true
        (match e.Tel.Audit.decision with
        | Tel.Audit.Rejected reason -> reason <> ""
        | Tel.Audit.Accepted -> false)
  | l -> Alcotest.failf "expected one rejected entry, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* The null sink records nothing and registers nothing. *)

let test_null_sink () =
  let tb = Testbed.create () in
  check_bool "null sink attached by default" false
    (Tel.Sink.enabled (S.sink tb.Testbed.sm));
  check_int "no events" 0 (List.length (Tel.Sink.events (S.sink tb.Testbed.sm)))

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "ring: wraparound keeps newest window" `Quick
        test_ring_wraparound;
      Alcotest.test_case "ring: partial fill" `Quick test_ring_partial;
      Alcotest.test_case "metrics: get-or-create and kind conflicts" `Quick
        test_metrics_registry;
      Alcotest.test_case "metrics: histogram summary" `Quick
        test_histogram_summary;
      Alcotest.test_case "metrics: percentile resolution and merge" `Quick
        test_percentile_resolution;
      Alcotest.test_case "export: chrome trace is well-formed" `Quick
        test_chrome_trace_wellformed;
      Alcotest.test_case "export: jsonl round-trips" `Quick test_jsonl_export;
      Alcotest.test_case "json: non-finite floats print as null" `Quick
        test_json_floats;
      Alcotest.test_case "events: lifecycle order for one run" `Quick
        test_lifecycle_event_order;
      Alcotest.test_case "audit: rejections carry their reason" `Quick
        test_audit_rejections;
      Alcotest.test_case "sink: null by default" `Quick test_null_sink;
    ] )
