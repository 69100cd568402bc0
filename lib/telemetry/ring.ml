type 'a t = {
  buf : 'a option array;
  capacity : int;
  mutable pushed : int; (* total ever pushed; write cursor = pushed mod capacity *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity None; capacity; pushed = 0 }

let push t x =
  t.buf.(t.pushed mod t.capacity) <- Some x;
  t.pushed <- t.pushed + 1

let length t = min t.pushed t.capacity
let pushed t = t.pushed
let dropped t = t.pushed - length t

let iter f t =
  let n = length t in
  let first = t.pushed - n in
  for i = first to t.pushed - 1 do
    match t.buf.(i mod t.capacity) with Some x -> f x | None -> ()
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

(* Slots at [length t] and beyond were never written since the last
   clear, so only the slots in use need dropping. *)
let clear t =
  Array.fill t.buf 0 (length t) None;
  t.pushed <- 0
