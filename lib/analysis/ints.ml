(* The multiply spreads the bits the keys carry (eids are 2 KiB-aligned
   slot addresses) into the low bits that pick a bucket. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x9E3779B9) lsr 16
end)
