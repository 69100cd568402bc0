module Rng = Sanctorum_util.Splitmix

type t = Round_robin | Least_loaded | Affinity

let name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Affinity -> "affinity"

let of_string = function
  | "round-robin" -> Ok Round_robin
  | "least-loaded" -> Ok Least_loaded
  | "affinity" -> Ok Affinity
  | s ->
      Error
        (Printf.sprintf
           "unknown policy %S (expected round-robin|least-loaded|affinity)" s)

let all = [ Round_robin; Least_loaded; Affinity ]

type state = {
  policy : t;
  nodes : int;
  seed : int64;
  assigned : int array;
  mutable cursor : int;  (* round-robin position *)
}

let create policy ~nodes ~seed =
  if nodes < 1 then invalid_arg "Policy.create: nodes must be >= 1";
  { policy; nodes; seed; assigned = Array.make nodes 0; cursor = 0 }

(* The job's sticky home: one splitmix draw keyed by (seed, jid), so
   the mapping is scattered but replayable. *)
let home st ~jid =
  let r =
    Rng.create ~seed:(Int64.logxor st.seed (Int64.of_int ((jid * 2) + 1)))
  in
  Rng.int r ~bound:st.nodes

let place st ~jid ~eligible =
  match eligible with
  | [] -> None
  | _ ->
      let chosen =
        match st.policy with
        | Round_robin ->
            (* advance the cursor to the next eligible node *)
            let rec probe tries =
              let c = st.cursor mod st.nodes in
              st.cursor <- st.cursor + 1;
              if List.mem c eligible then c
              else if tries >= st.nodes then List.hd eligible
              else probe (tries + 1)
            in
            probe 0
        | Least_loaded ->
            List.fold_left
              (fun best n ->
                if st.assigned.(n) < st.assigned.(best) then n else best)
              (List.hd eligible) eligible
        | Affinity ->
            let h = home st ~jid in
            let rec probe i =
              if i >= st.nodes then List.hd eligible
              else
                let c = (h + i) mod st.nodes in
                if List.mem c eligible then c else probe (i + 1)
            in
            probe 0
      in
      st.assigned.(chosen) <- st.assigned.(chosen) + 1;
      Some chosen

let load st n = st.assigned.(n)
