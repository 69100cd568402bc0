(* Little-endian arrays of 26-bit limbs. 26 bits is chosen so that a
   limb product plus carries fits comfortably in OCaml's 63-bit native
   int (26 + 26 + safety margin). The empty array is zero; all values
   are normalized (no high zero limb). *)

let base_bits = 26
let base = 1 lsl base_bits
let mask = base - 1

type t = int array

let zero : t = [||]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v =
    if v = 0 then [] else (v land mask) :: limbs (v lsr base_bits)
  in
  Array.of_list (limbs v)

let one = of_int 1
let is_zero a = Array.length a = 0

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
    ((n - 1) * base_bits) + width top
  end

let test_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let acc = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- acc land mask;
        carry := acc lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let acc = r.(!k) + !carry in
        r.(!k) <- acc land mask;
        carry := acc lsr base_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left a n =
  if is_zero a || n = 0 then a
  else begin
    let limb_shift = n / base_bits and bit_shift = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr base_bits)
    done;
    normalize r
  end

let shift_right a n =
  if is_zero a || n = 0 then a
  else begin
    let limb_shift = n / base_bits and bit_shift = n mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let len = la - limb_shift in
      let r = Array.make len 0 in
      for i = 0 to len - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else a.(i + limb_shift + 1) lsl (base_bits - bit_shift)
        in
        r.(i) <- (lo lor hi) land mask
      done;
      normalize r
    end
  end

(* Short division by a single limb. *)
let divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, of_int !r)

(* Knuth TAOCP vol. 2, algorithm D. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else begin
    let shift =
      let rec top_width v = if v = 0 then 0 else 1 + top_width (v lsr 1) in
      base_bits - top_width b.(Array.length b - 1)
    in
    let u0 = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u0 - n in
    (* u gets one extra high limb for the multiply-subtract step. *)
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vnext = v.(n - 2) in
    for j = m downto 0 do
      let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (top / vtop) and rhat = ref (top mod vtop) in
      let adjust = ref true in
      while !adjust do
        if
          !qhat >= base
          || !qhat * vnext > (!rhat lsl base_bits) lor u.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then adjust := false
        end
        else adjust := false
      done;
      (* multiply and subtract *)
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) in
        let t = u.(i + j) - !borrow - (p land mask) in
        u.(i + j) <- t land mask;
        borrow := (p lsr base_bits) - (t asr base_bits)
      done;
      let t = u.(j + n) - !borrow in
      u.(j + n) <- t land mask;
      if t < 0 then begin
        (* qhat was one too large: add v back once. *)
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- s land mask;
          carry := s lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land mask
      end;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let rem a b = snd (divmod a b)

let mod_add a b ~m =
  let s = add a b in
  if compare s m >= 0 then sub s m else s

let mod_mul a b ~m = rem (mul a b) m

let of_bytes_be s =
  let n = String.length s in
  let nbits = 8 * n in
  let nlimbs = (nbits + base_bits - 1) / base_bits in
  let r = Array.make (max nlimbs 1) 0 in
  for i = 0 to n - 1 do
    let byte = Char.code s.[n - 1 - i] in
    let bit = 8 * i in
    let limb = bit / base_bits and off = bit mod base_bits in
    r.(limb) <- r.(limb) lor ((byte lsl off) land mask);
    if off > base_bits - 8 && limb + 1 < Array.length r then
      r.(limb + 1) <- r.(limb + 1) lor (byte lsr (base_bits - off))
  done;
  normalize r

let to_bytes_be ~len a =
  if bit_length a > 8 * len then
    invalid_arg "Bignum.to_bytes_be: value too large for requested width";
  String.init len (fun i ->
      let bit = 8 * (len - 1 - i) in
      let limb = bit / base_bits and off = bit mod base_bits in
      let lo = if limb < Array.length a then a.(limb) lsr off else 0 in
      let hi =
        if off > base_bits - 8 && limb + 1 < Array.length a then
          a.(limb + 1) lsl (base_bits - off)
        else 0
      in
      Char.chr ((lo lor hi) land 0xff))

let of_bytes_le s =
  of_bytes_be (String.init (String.length s) (fun i ->
      s.[String.length s - 1 - i]))

let to_bytes_le ~len a =
  let be = to_bytes_be ~len a in
  String.init len (fun i -> be.[len - 1 - i])

let to_hex a =
  if is_zero a then "0"
  else begin
    let len = (bit_length a + 7) / 8 in
    let s = Sanctorum_util.Hex.encode (to_bytes_be ~len a) in
    (* strip at most one leading zero nibble *)
    if String.length s > 1 && s.[0] = '0' then
      String.sub s 1 (String.length s - 1)
    else s
  end

let of_decimal s =
  if s = "" then invalid_arg "Bignum.of_decimal: empty";
  let ten = of_int 10 in
  String.fold_left
    (fun acc c ->
      match c with
      | '0' .. '9' -> add (mul acc ten) (of_int (Char.code c - Char.code '0'))
      | _ -> invalid_arg "Bignum.of_decimal: non-digit")
    zero s
