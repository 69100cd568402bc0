(* Keccak-f[1600] sponge. The state is 25 64-bit lanes held as 200
   little-endian bytes; [rate] bytes are absorbed/squeezed per permutation
   call. Round constants and rotation offsets (spelled out in [keccak_f])
   are the FIPS 202 standard tables (same as tiny_sha3). *)

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL;
     0x8000000080008000L; 0x000000000000808BL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008AL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
     0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800AL; 0x800000008000000AL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

(* Lane [i] is lane (x, y) = (i mod 5, i / 5) of FIPS 202, tiny_sha3's
   st[i]. Each round is written out lane by lane so that every lane,
   column parity and rho/pi output is an int64 local, which the native
   compiler keeps unboxed; in an int64 array every lane write allocates.
   The rho/pi step is b(y, 2x + 3y) = rotl (a(x, y) xor d(x)) r(x, y), so
   the b bindings spell out the pi permutation and rotation table. *)
let keccak_f s =
  let open Int64 in
  let a0 = ref (Bytes.get_int64_le s 0) in
  let a1 = ref (Bytes.get_int64_le s 8) in
  let a2 = ref (Bytes.get_int64_le s 16) in
  let a3 = ref (Bytes.get_int64_le s 24) in
  let a4 = ref (Bytes.get_int64_le s 32) in
  let a5 = ref (Bytes.get_int64_le s 40) in
  let a6 = ref (Bytes.get_int64_le s 48) in
  let a7 = ref (Bytes.get_int64_le s 56) in
  let a8 = ref (Bytes.get_int64_le s 64) in
  let a9 = ref (Bytes.get_int64_le s 72) in
  let a10 = ref (Bytes.get_int64_le s 80) in
  let a11 = ref (Bytes.get_int64_le s 88) in
  let a12 = ref (Bytes.get_int64_le s 96) in
  let a13 = ref (Bytes.get_int64_le s 104) in
  let a14 = ref (Bytes.get_int64_le s 112) in
  let a15 = ref (Bytes.get_int64_le s 120) in
  let a16 = ref (Bytes.get_int64_le s 128) in
  let a17 = ref (Bytes.get_int64_le s 136) in
  let a18 = ref (Bytes.get_int64_le s 144) in
  let a19 = ref (Bytes.get_int64_le s 152) in
  let a20 = ref (Bytes.get_int64_le s 160) in
  let a21 = ref (Bytes.get_int64_le s 168) in
  let a22 = ref (Bytes.get_int64_le s 176) in
  let a23 = ref (Bytes.get_int64_le s 184) in
  let a24 = ref (Bytes.get_int64_le s 192) in
  for round = 0 to 23 do
    (* theta *)
    let c0 = logxor !a0 (logxor !a5 (logxor !a10 (logxor !a15 !a20))) in
    let c1 = logxor !a1 (logxor !a6 (logxor !a11 (logxor !a16 !a21))) in
    let c2 = logxor !a2 (logxor !a7 (logxor !a12 (logxor !a17 !a22))) in
    let c3 = logxor !a3 (logxor !a8 (logxor !a13 (logxor !a18 !a23))) in
    let c4 = logxor !a4 (logxor !a9 (logxor !a14 (logxor !a19 !a24))) in
    let d0 = logxor c4 (rotl c1 1) in
    let d1 = logxor c0 (rotl c2 1) in
    let d2 = logxor c1 (rotl c3 1) in
    let d3 = logxor c2 (rotl c4 1) in
    let d4 = logxor c3 (rotl c0 1) in
    (* rho + pi *)
    let b0 = logxor !a0 d0 in
    let b1 = rotl (logxor !a6 d1) 44 in
    let b2 = rotl (logxor !a12 d2) 43 in
    let b3 = rotl (logxor !a18 d3) 21 in
    let b4 = rotl (logxor !a24 d4) 14 in
    let b5 = rotl (logxor !a3 d3) 28 in
    let b6 = rotl (logxor !a9 d4) 20 in
    let b7 = rotl (logxor !a10 d0) 3 in
    let b8 = rotl (logxor !a16 d1) 45 in
    let b9 = rotl (logxor !a22 d2) 61 in
    let b10 = rotl (logxor !a1 d1) 1 in
    let b11 = rotl (logxor !a7 d2) 6 in
    let b12 = rotl (logxor !a13 d3) 25 in
    let b13 = rotl (logxor !a19 d4) 8 in
    let b14 = rotl (logxor !a20 d0) 18 in
    let b15 = rotl (logxor !a4 d4) 27 in
    let b16 = rotl (logxor !a5 d0) 36 in
    let b17 = rotl (logxor !a11 d1) 10 in
    let b18 = rotl (logxor !a17 d2) 15 in
    let b19 = rotl (logxor !a23 d3) 56 in
    let b20 = rotl (logxor !a2 d2) 62 in
    let b21 = rotl (logxor !a8 d3) 55 in
    let b22 = rotl (logxor !a14 d4) 39 in
    let b23 = rotl (logxor !a15 d0) 41 in
    let b24 = rotl (logxor !a21 d1) 2 in
    (* chi, with iota on lane 0 *)
    a0 := logxor (logxor b0 (logand (lognot b1) b2)) round_constants.(round);
    a1 := logxor b1 (logand (lognot b2) b3);
    a2 := logxor b2 (logand (lognot b3) b4);
    a3 := logxor b3 (logand (lognot b4) b0);
    a4 := logxor b4 (logand (lognot b0) b1);
    a5 := logxor b5 (logand (lognot b6) b7);
    a6 := logxor b6 (logand (lognot b7) b8);
    a7 := logxor b7 (logand (lognot b8) b9);
    a8 := logxor b8 (logand (lognot b9) b5);
    a9 := logxor b9 (logand (lognot b5) b6);
    a10 := logxor b10 (logand (lognot b11) b12);
    a11 := logxor b11 (logand (lognot b12) b13);
    a12 := logxor b12 (logand (lognot b13) b14);
    a13 := logxor b13 (logand (lognot b14) b10);
    a14 := logxor b14 (logand (lognot b10) b11);
    a15 := logxor b15 (logand (lognot b16) b17);
    a16 := logxor b16 (logand (lognot b17) b18);
    a17 := logxor b17 (logand (lognot b18) b19);
    a18 := logxor b18 (logand (lognot b19) b15);
    a19 := logxor b19 (logand (lognot b15) b16);
    a20 := logxor b20 (logand (lognot b21) b22);
    a21 := logxor b21 (logand (lognot b22) b23);
    a22 := logxor b22 (logand (lognot b23) b24);
    a23 := logxor b23 (logand (lognot b24) b20);
    a24 := logxor b24 (logand (lognot b20) b21)
  done;
  Bytes.set_int64_le s 0 !a0;
  Bytes.set_int64_le s 8 !a1;
  Bytes.set_int64_le s 16 !a2;
  Bytes.set_int64_le s 24 !a3;
  Bytes.set_int64_le s 32 !a4;
  Bytes.set_int64_le s 40 !a5;
  Bytes.set_int64_le s 48 !a6;
  Bytes.set_int64_le s 56 !a7;
  Bytes.set_int64_le s 64 !a8;
  Bytes.set_int64_le s 72 !a9;
  Bytes.set_int64_le s 80 !a10;
  Bytes.set_int64_le s 88 !a11;
  Bytes.set_int64_le s 96 !a12;
  Bytes.set_int64_le s 104 !a13;
  Bytes.set_int64_le s 112 !a14;
  Bytes.set_int64_le s 120 !a15;
  Bytes.set_int64_le s 128 !a16;
  Bytes.set_int64_le s 136 !a17;
  Bytes.set_int64_le s 144 !a18;
  Bytes.set_int64_le s 152 !a19;
  Bytes.set_int64_le s 160 !a20;
  Bytes.set_int64_le s 168 !a21;
  Bytes.set_int64_le s 176 !a22;
  Bytes.set_int64_le s 184 !a23;
  Bytes.set_int64_le s 192 !a24

type variant = Sha3 of int (* digest length *) | Shake

type t = {
  state : Bytes.t; (* 200 bytes: 25 little-endian lanes *)
  rate : int; (* bytes absorbed per block *)
  variant : variant;
  mutable pos : int; (* byte offset within the current block *)
  mutable finalized : bool;
}

let create ~rate ~variant =
  { state = Bytes.make 200 '\000'; rate; variant; pos = 0; finalized = false }

let init_sha3_256 () = create ~rate:136 ~variant:(Sha3 32)
let init_sha3_512 () = create ~rate:72 ~variant:(Sha3 64)
let init_shake128 () = create ~rate:168 ~variant:Shake
let init_shake256 () = create ~rate:136 ~variant:Shake

let xor_byte_into_state st idx byte =
  Bytes.set_uint8 st idx (Bytes.get_uint8 st idx lxor byte)

let[@inline] xor_lane_into_state st idx lane =
  Bytes.set_int64_le st idx (Int64.logxor (Bytes.get_int64_le st idx) lane)

let absorb_byte t byte =
  xor_byte_into_state t.state t.pos byte;
  t.pos <- t.pos + 1;
  if t.pos = t.rate then begin
    keccak_f t.state;
    t.pos <- 0
  end

(* Absorbing dominates the measurement hot path, so whole 64-bit lanes
   are XORed in at once whenever the sponge position is lane-aligned
   (every supported rate is a multiple of 8, so alignment persists).
   Stray leading/trailing bytes fall back to the byte-at-a-time path. *)
let absorb t data =
  if t.finalized then invalid_arg "Sha3.absorb: context already finalized";
  let n = String.length data in
  let i = ref 0 in
  while !i < n && t.pos land 7 <> 0 do
    absorb_byte t (Char.code (String.unsafe_get data !i));
    incr i
  done;
  while n - !i >= 8 do
    xor_lane_into_state t.state t.pos (String.get_int64_le data !i);
    t.pos <- t.pos + 8;
    i := !i + 8;
    if t.pos = t.rate then begin
      keccak_f t.state;
      t.pos <- 0
    end
  done;
  while !i < n do
    absorb_byte t (Char.code (String.unsafe_get data !i));
    incr i
  done

let finalize t ~len =
  if t.finalized then invalid_arg "Sha3.finalize: context already finalized";
  (match t.variant with
  | Sha3 d ->
      if len <> d then
        invalid_arg
          (Printf.sprintf "Sha3.finalize: SHA3 digest is %d bytes, not %d" d
             len)
  | Shake -> if len <= 0 then invalid_arg "Sha3.finalize: len must be > 0");
  t.finalized <- true;
  let domain = match t.variant with Sha3 _ -> 0x06 | Shake -> 0x1f in
  xor_byte_into_state t.state t.pos domain;
  xor_byte_into_state t.state (t.rate - 1) 0x80;
  keccak_f t.state;
  let out = Bytes.create len in
  let off = ref 0 in
  while !off < len do
    let n = min t.rate (len - !off) in
    Bytes.blit t.state 0 out !off n;
    off := !off + n;
    if !off < len then keccak_f t.state
  done;
  Bytes.unsafe_to_string out

let one_shot init len data =
  let t = init () in
  absorb t data;
  finalize t ~len

let sha3_256 data = one_shot init_sha3_256 32 data
let sha3_512 data = one_shot init_sha3_512 64 data
let shake128 ~len data = one_shot init_shake128 len data
let shake256 ~len data = one_shot init_shake256 len data
