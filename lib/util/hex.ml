let hex_digit n = "0123456789abcdef".[n]

let encode s =
  let b = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set b (2 * i) (hex_digit (v lsr 4));
      Bytes.set b ((2 * i) + 1) (hex_digit (v land 0xf)))
    s;
  Bytes.unsafe_to_string b

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: non-hex character"

let decode h =
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((nibble h.[2 * i] lsl 4) lor nibble h.[(2 * i) + 1]))
