(* The lock-discipline pass as it was before it held its locks in an
   array stack: the held locks a list, newest first, consed on each
   take and rebuilt on each release, and the order check a transitive
   closure over a table of class names. [check] is the reference for
   [Sanctorum_analysis.Lockcheck.check]: the same findings, in the same
   order. *)
module Event = Sanctorum_telemetry.Event
module Report = Sanctorum_analysis.Report

let class_index = function
  | Event.Resource_lock -> 0
  | Event.Enclave_lock _ -> 1
  | Event.Thread_lock _ -> 2

let class_names = [| "resource"; "enclave"; "thread" |]

let same_lock (a : Event.lock) (b : Event.lock) =
  match (a, b) with
  | Resource_lock, Resource_lock -> true
  | Enclave_lock x, Enclave_lock y | Thread_lock x, Thread_lock y -> x = y
  | _ -> false

let check events =
  let held = ref [] and seen = ref 0 and out = ref [] in
  let edges = Hashtbl.create 8 in
  let flag id ~subject detail = out := Report.v id ~subject detail :: !out in
  let holds lock = List.exists (fun (l, _) -> same_lock l lock) !held in
  let rec without lock = function
    | [] -> []
    | ((l, _) as h) :: rest ->
        if same_lock l lock then rest else h :: without lock rest
  in
  let leak_all detail =
    List.iter
      (fun (lock, acquired) ->
        flag "lock.leak" ~subject:(Event.lock_name lock) (detail acquired))
      !held;
    held := []
  in
  List.iter
    (fun (e : Event.t) ->
      let seq = e.seq in
      match e.payload with
      | Event.Lock_acquired { lock } ->
          if holds lock then
            flag "lock.leak" ~subject:(Event.lock_name lock)
              (Printf.sprintf "re-acquired while already held (event #%d)" seq)
          else begin
            let inner = class_index lock in
            List.iter
              (fun (outer, _) ->
                let oc = class_index outer in
                let bit = 1 lsl ((3 * oc) + inner) in
                if !seen land bit = 0 then begin
                  seen := !seen lor bit;
                  Hashtbl.replace edges
                    (class_names.(oc), class_names.(inner))
                    (outer, lock, seq)
                end)
              !held;
            held := (lock, seq) :: !held
          end
      | Event.Lock_released { lock } ->
          if holds lock then held := without lock !held
          else
            flag "lock.leak" ~subject:(Event.lock_name lock)
              (Printf.sprintf "released but never acquired (event #%d)" seq)
      | Event.Guarded_write { lock; field } ->
          if not (holds lock) then
            flag "lock.guard" ~subject:(Event.lock_name lock)
              (Printf.sprintf
                 "field [%s] written without holding the lock (event #%d)"
                 field seq)
      | Event.Sm_api { api; _ } ->
          leak_all (fun acquired ->
              Printf.sprintf
                "acquired at event #%d still held when [%s] returned (event \
                 #%d)"
                acquired api seq)
      | _ -> ())
    events;
  leak_all
    (Printf.sprintf "acquired at event #%d still held at the end of the trace");
  let classes =
    Hashtbl.fold (fun (a, b) _ acc -> a :: b :: acc) edges []
    |> List.sort_uniq compare
  in
  let reach = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace reach (c, c) ()) classes;
  Hashtbl.iter (fun e _ -> Hashtbl.replace reach e ()) edges;
  List.iter
    (fun k ->
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              if Hashtbl.mem reach (i, k) && Hashtbl.mem reach (k, j) then
                Hashtbl.replace reach (i, j) ())
            classes)
        classes)
    classes;
  Hashtbl.iter
    (fun (a, b) (outer, inner, seq) ->
      if a <> b && Hashtbl.mem reach (b, a) then
        flag "lock.order" ~subject:(Printf.sprintf "%s -> %s" a b)
          (Printf.sprintf
             "acquired %s while holding %s (event #%d), inverting the \
              established %s -> %s order"
             (Event.lock_name inner) (Event.lock_name outer) seq b a))
    edges;
  List.rev !out
