(* Summary statistics for the benchmark's host-time samples. *)

(* A percentile is only reported when at least this many samples lie
   beyond it: a p99 needs 1000 samples, a median 20. *)
let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of [xs] at [p] in (0, 1): the smallest sample
   with at least [p] of the samples at or below it. Returns the value and
   the sample count, or an error when fewer than [min_beyond] samples lie
   above the chosen rank. *)
let percentile ~p xs =
  let n = Array.length xs in
  if p <= 0. || p >= 1. then Error (Printf.sprintf "percentile %g outside (0, 1)" p)
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    let rank = max 1 rank in
    if n - rank < min_beyond then
      Error
        (Printf.sprintf "p%g needs %d samples beyond it; %d samples leave %d"
           (100. *. p) min_beyond n (max 0 (n - rank)))
    else Ok ((sorted xs).(rank - 1), n)

(* Ordinary median, for the handful of per-repetition values. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let sum xs = Array.fold_left ( +. ) 0. xs

(* [a / b], and 0 when there is nothing to divide by. *)
let ratio a b = if b = 0. then 0. else a /. b
