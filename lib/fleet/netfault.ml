module Rng = Sanctorum_util.Splitmix

type fault_class = Drop | Dup | Corrupt | Delay | Reorder | Part

type spec = {
  counts : (fault_class * int) list;
  windows : (int * int) list;
  placed : (int * int) list;
}

let empty = { counts = []; windows = []; placed = [] }

let is_empty spec =
  spec.windows = [] && spec.placed = []
  && List.for_all (fun (_, n) -> n <= 0) spec.counts

let without_partitions spec =
  {
    counts = List.filter (fun (cls, _) -> cls <> Part) spec.counts;
    windows = [];
    placed = [];
  }

let class_name = function
  | Drop -> "drop"
  | Dup -> "dup"
  | Corrupt -> "corrupt"
  | Delay -> "delay"
  | Reorder -> "reorder"
  | Part -> "part"

let class_of_name = function
  | "drop" -> Some Drop
  | "dup" -> Some Dup
  | "corrupt" -> Some Corrupt
  | "delay" -> Some Delay
  | "reorder" -> Some Reorder
  | "part" -> Some Part
  | _ -> None

let all_preset =
  {
    counts =
      [
        (Drop, 3);
        (Dup, 2);
        (Corrupt, 2);
        (Delay, 2);
        (Reorder, 1);
        (Part, 1);
      ];
    windows = [];
    placed = [];
  }

let parse s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok empty
  else if s = "all" then Ok all_preset
  else
    let terms = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok acc
      | t :: rest -> (
          let t = String.trim t in
          match String.index_opt t '@' with
          | Some i -> (
              let cls = String.sub t 0 i in
              let win = String.sub t (i + 1) (String.length t - i - 1) in
              if cls <> "part" then
                Error (Printf.sprintf "only part takes a window: %S" t)
              else
                match String.split_on_char '+' win with
                | [ a; b ] -> (
                    (* [gN] opens at the placement of generation N *)
                    let gen = String.starts_with ~prefix:"g" a in
                    let a =
                      if gen then String.sub a 1 (String.length a - 1) else a
                    in
                    match (int_of_string_opt a, int_of_string_opt b) with
                    | Some n, Some len when gen && n >= 1 && len > 0 ->
                        go { acc with placed = acc.placed @ [ (n, len) ] } rest
                    | Some n, Some len when (not gen) && n >= 0 && len > 0 ->
                        go { acc with windows = acc.windows @ [ (n, len) ] }
                          rest
                    | _ -> Error (Printf.sprintf "bad partition window: %S" t))
                | _ ->
                    Error
                      (Printf.sprintf "expected part@START+LEN, got %S" t))
          | None -> (
              let name, count =
                match String.index_opt t ':' with
                | None -> (t, Some 1)
                | Some i ->
                    ( String.sub t 0 i,
                      int_of_string_opt
                        (String.sub t (i + 1) (String.length t - i - 1)) )
              in
              match (class_of_name name, count) with
              | Some cls, Some n when n >= 0 ->
                  go { acc with counts = acc.counts @ [ (cls, n) ] } rest
              | Some _, _ -> Error (Printf.sprintf "bad count in %S" t)
              | None, _ ->
                  Error (Printf.sprintf "unknown fault class %S" name)))
    in
    go empty terms

let to_string spec =
  if is_empty spec then "none"
  else
    String.concat ","
      (List.map
         (fun (cls, n) -> Printf.sprintf "%s:%d" (class_name cls) n)
         (List.filter (fun (_, n) -> n > 0) spec.counts)
      @ List.map
          (fun (start, len) -> Printf.sprintf "part@%d+%d" start len)
          spec.windows
      @ List.map
          (fun (gen, len) -> Printf.sprintf "part@g%d+%d" gen len)
          spec.placed)

(* ------------------------------------------------------------------ *)

type action = A_drop | A_dup | A_corrupt | A_delay of int | A_reorder of int

type 'a link = {
  chan : 'a Channel.t;
  clock : unit -> int;
  corrupt_fn : 'a -> 'a;
  rng : Rng.t;  (* consumed only by reorder release permutations *)
  sched : (int, action) Hashtbl.t;  (* send index -> action (first wins) *)
  mutable windows : (int * int) list;
  placed : (int * int) list;  (* (generation, len) windows not yet open *)
  mutable sent : int;
  mutable holds : (int * int * 'a) list;  (* (release_at, order, msg) *)
  mutable hold_order : int;
  mutable shuffle : (int * 'a list) option;  (* (slots left, collected rev) *)
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable delayed : int;
  mutable reordered : int;
  mutable partition_dropped : int;
}

(* Every random choice in a fixed generation order: iterate the spec's
   classes as listed, drawing (index, parameters) per instance — the
   schedule is a pure function of (seed, spec, horizon). *)
let plan rng ~horizon (spec : spec) =
  let sched = Hashtbl.create 16 in
  let windows = ref spec.windows in
  List.iter
    (fun (cls, count) ->
      for _ = 1 to count do
        let at = Rng.int rng ~bound:horizon in
        match cls with
        | Drop -> if not (Hashtbl.mem sched at) then Hashtbl.add sched at A_drop
        | Dup -> if not (Hashtbl.mem sched at) then Hashtbl.add sched at A_dup
        | Corrupt ->
            if not (Hashtbl.mem sched at) then Hashtbl.add sched at A_corrupt
        | Delay ->
            let d = 1 + Rng.int rng ~bound:4 in
            if not (Hashtbl.mem sched at) then Hashtbl.add sched at (A_delay d)
        | Reorder ->
            let depth = 2 + Rng.int rng ~bound:3 in
            if not (Hashtbl.mem sched at) then
              Hashtbl.add sched at (A_reorder depth)
        | Part ->
            (* windows live on the clock, not the send index: a
               partition must end even if the victim stops sending *)
            let start = Rng.int rng ~bound:(horizon * 8) in
            let len = 32 + Rng.int rng ~bound:480 in
            windows := !windows @ [ (start, len) ]
      done)
    spec.counts;
  (sched, !windows)

let create ~chan ~seed ~spec ~horizon ~clock ~corrupt () =
  if horizon < 1 then invalid_arg "Netfault.create: horizon must be >= 1";
  let rng = Rng.create ~seed in
  let sched, windows = plan rng ~horizon spec in
  {
    chan;
    clock;
    corrupt_fn = corrupt;
    rng;
    sched;
    windows;
    placed = spec.placed;
    sent = 0;
    holds = [];
    hold_order = 0;
    shuffle = None;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
    delayed = 0;
    reordered = 0;
    partition_dropped = 0;
  }

let note_placement t ~gen =
  List.iter
    (fun (g, len) ->
      if g = gen then t.windows <- t.windows @ [ (t.clock (), len) ])
    t.placed

let deliver t m =
  t.delivered <- t.delivered + 1;
  Channel.send t.chan m

let partitioned t =
  let now = t.clock () in
  List.exists (fun (start, len) -> now >= start && now < start + len) t.windows

(* Fisher–Yates over the collected messages, drawn from the link's own
   stream — the permutation is part of the replayable schedule. *)
let release_shuffle t msgs =
  let a = Array.of_list msgs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int t.rng ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.iter (fun m -> deliver t m) a

let release_due t =
  let due, rest =
    List.partition (fun (at, _, _) -> at <= t.sent) t.holds
  in
  t.holds <- rest;
  List.iter
    (fun (_, _, m) -> deliver t m)
    (List.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) due)

let send t m =
  let i = t.sent in
  t.sent <- i + 1;
  (match t.shuffle with
  | Some (left, acc) ->
      (* while the shuffle buffer is filling it consumes every send,
         superseding whatever else the schedule put at these indices *)
      let acc = m :: acc in
      if left <= 1 then begin
        t.shuffle <- None;
        t.reordered <- t.reordered + 1;
        release_shuffle t (List.rev acc)
      end
      else t.shuffle <- Some (left - 1, acc)
  | None ->
      if partitioned t then
        t.partition_dropped <- t.partition_dropped + 1
      else begin
        match Hashtbl.find_opt t.sched i with
        | Some A_drop -> t.dropped <- t.dropped + 1
        | Some A_dup ->
            t.duplicated <- t.duplicated + 1;
            deliver t m;
            deliver t m
        | Some A_corrupt ->
            t.corrupted <- t.corrupted + 1;
            deliver t (t.corrupt_fn m)
        | Some (A_delay d) ->
            t.delayed <- t.delayed + 1;
            let order = t.hold_order in
            t.hold_order <- order + 1;
            t.holds <- (i + d, order, m) :: t.holds
        | Some (A_reorder depth) -> t.shuffle <- Some (depth - 1, [ m ])
        | None -> deliver t m
      end);
  release_due t

let flush t =
  (match t.shuffle with
  | None -> ()
  | Some (_, acc) ->
      t.shuffle <- None;
      t.reordered <- t.reordered + 1;
      release_shuffle t (List.rev acc));
  let held =
    List.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) t.holds
  in
  t.holds <- [];
  List.iter (fun (_, _, m) -> deliver t m) held

let send_oob t m =
  flush t;
  Channel.send t.chan m

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  delayed : int;
  reordered : int;
  partition_dropped : int;
}

let stats (t : 'a link) =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
    corrupted = t.corrupted;
    delayed = t.delayed;
    reordered = t.reordered;
    partition_dropped = t.partition_dropped;
  }
