(* Host speed calibration. The hosts this benchmark runs on are shared:
   their speed drifts by up to 2x over seconds as neighbours come and go,
   which swamps the differences between two commits. The benchmark
   therefore runs a fixed kernel, sharing no code with the system under
   test, between repetitions and between short stretches of work inside
   them, and keeps a timeline of how long the kernel took. Each host time
   is scaled by [reference_s / kernel time around it]: it reads as the
   time on a host that runs the kernel in [reference_s].

   The kernel has three parts, each close to a kind of work the system
   does: allocating small short-lived blocks and calling closures (the
   simulator's inner loop), streaming through memory (page loads, cleans
   and copies) and register arithmetic (hashing). Its time is the
   geometric mean of the three. Each part alone tracked the engine's
   host time across the host's swings to a 5-7% coefficient of variation
   (20% unscaled); the mean of the three tracked both the compute and
   the churn mix to 4%. The allocated blocks die young and the minor heap
   is emptied before a mark, so the system's own heap does not change the
   kernel's speed. *)

let table_size = 1 lsl 16

let table =
  let t = Array.make table_size 0 in
  let x = ref 0x9e3779b9 in
  for i = 0 to table_size - 1 do
    x := (!x * 1103515245) + 12345;
    t.(i) <- (!x lsr 7) land (table_size - 1)
  done;
  t

let allocate () =
  let acc = ref 0 in
  for i = 1 to 30_000 do
    let l =
      [
        (i, Array.unsafe_get table (i land (table_size - 1)));
        (i + 1, i lxor 5);
        (i + 2, !acc land 0xff);
      ]
    in
    acc := List.fold_left (fun a (x, y) -> a + (x * y)) !acc l
  done;
  ignore (Sys.opaque_identity !acc)

let src = Bytes.create (1 lsl 20)
let dst = Bytes.create (1 lsl 20)

let stream () =
  for k = 0 to 1 do
    Bytes.fill src 0 (Bytes.length src) (Char.chr k);
    Bytes.blit src 0 dst 0 (Bytes.length src)
  done;
  ignore (Sys.opaque_identity dst)

let lanes = Array.make 25 0

let arith () =
  for r = 1 to 8000 do
    for i = 0 to 24 do
      let x = Array.unsafe_get lanes i lxor Array.unsafe_get lanes ((i + 5) mod 25) in
      Array.unsafe_set lanes i ((x lsl 7) lor (x lsr 57) + r)
    done
  done;
  ignore (Sys.opaque_identity lanes)

let time f =
  let t0 = Spans.now () in
  f ();
  Spans.seconds t0 (Spans.now ())

(* Geometric mean of the three parts' times (s). *)
let kernel_time () =
  Float.exp ((log (time allocate) +. log (time stream) +. log (time arith)) /. 3.)

(* Kernel time (s) on an undisturbed 2-core Xeon host at 2.1 GHz. *)
let reference_s = 0.0004

(* (time ns, kernel s), newest first. *)
let marks = ref []

(* Time the kernel [samples] times and add the median to the timeline.
   Inside a traced repetition this is a "calibrate" span, so the phases
   still account for the repetition's whole time. *)
let mark ?(samples = 2) () =
  Spans.call "calibrate" (fun () ->
      Gc.minor ();
      let ks = Array.init samples (fun _ -> kernel_time ()) in
      marks := (Spans.now (), Stats.median ks) :: !marks)

let timeline = ref [||]

(* Freeze the marks made so far for [scale]. *)
let freeze () =
  timeline := Array.of_list (List.rev !marks)

(* Index of the first mark at or after [t]. *)
let first_after t =
  let tl = !timeline in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Int64.compare (fst tl.(mid)) t < 0 then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length tl)

(* Mean kernel time over [t0, t1]: the marks inside it and the nearest
   one on either side. *)
let kernel_over t0 t1 =
  let tl = !timeline in
  let n = Array.length tl in
  if n = 0 then reference_s
  else
    let lo = max 0 (first_after t0 - 1) and hi = min (n - 1) (first_after t1) in
    Stats.mean (Array.map snd (Array.sub tl lo (hi - lo + 1)))

(* [s] host seconds that started at [t0], scaled to the reference speed. *)
let scale (t0, s) =
  let t1 = Int64.add t0 (Int64.of_float (s *. 1e9)) in
  s *. reference_s /. kernel_over t0 t1

(* Host speed over [t0, t0 + s] against the reference (1 = reference). *)
let speed (t0, s) = Stats.ratio (scale (t0, s)) s
