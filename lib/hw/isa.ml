type reg = int
type branch_op = Beq | Bne | Blt | Bge | Bltu | Bgeu
type load_op = Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu
type store_op = Sb | Sh | Sw | Sd
type alu_op = Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And

type t =
  | Lui of reg * int
  | Auipc of reg * int
  | Jal of reg * int
  | Jalr of reg * reg * int
  | Branch of branch_op * reg * reg * int
  | Load of load_op * reg * reg * int
  | Store of store_op * reg * reg * int
  | Op_imm of alu_op * reg * reg * int
  | Op of alu_op * reg * reg * reg
  | Mul of reg * reg * reg
  | Csr_read_cycle of reg
  | Ecall
  | Ebreak
  | Fence

(* opcodes *)
let op_lui = 0b0110111
let op_auipc = 0b0010111
let op_jal = 0b1101111
let op_jalr = 0b1100111
let op_branch = 0b1100011
let op_load = 0b0000011
let op_store = 0b0100011
let op_imm = 0b0010011
let op_op = 0b0110011
let op_system = 0b1110011
let op_fence = 0b0001111
let csr_cycle = 0xc00

let branch_funct3 = function
  | Beq -> 0b000
  | Bne -> 0b001
  | Blt -> 0b100
  | Bge -> 0b101
  | Bltu -> 0b110
  | Bgeu -> 0b111

let load_funct3 = function
  | Lb -> 0b000
  | Lh -> 0b001
  | Lw -> 0b010
  | Ld -> 0b011
  | Lbu -> 0b100
  | Lhu -> 0b101
  | Lwu -> 0b110

let store_funct3 = function
  | Sb -> 0b000
  | Sh -> 0b001
  | Sw -> 0b010
  | Sd -> 0b011

let alu_funct3 = function
  | Add | Sub -> 0b000
  | Sll -> 0b001
  | Slt -> 0b010
  | Sltu -> 0b011
  | Xor -> 0b100
  | Srl | Sra -> 0b101
  | Or -> 0b110
  | And -> 0b111

let alu_funct7 = function Sub | Sra -> 0b0100000 | _ -> 0b0000000

let check_reg r name =
  if r < 0 || r > 31 then invalid_arg ("Isa.encode: bad register for " ^ name)

let check_imm12 imm name =
  if imm < -2048 || imm > 2047 then
    invalid_arg
      (Printf.sprintf "Isa.encode: %s immediate %d out of range" name imm)

let i_type ~opcode ~funct3 ~rd ~rs1 ~imm =
  (imm land 0xfff) lsl 20
  lor (rs1 lsl 15) lor (funct3 lsl 12) lor (rd lsl 7) lor opcode

let r_type ~opcode ~funct3 ~funct7 ~rd ~rs1 ~rs2 =
  (funct7 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor (rd lsl 7) lor opcode

let s_type ~opcode ~funct3 ~rs1 ~rs2 ~imm =
  let imm = imm land 0xfff in
  ((imm lsr 5) lsl 25)
  lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor ((imm land 0x1f) lsl 7)
  lor opcode

let b_type ~opcode ~funct3 ~rs1 ~rs2 ~imm =
  let imm = imm land 0x1fff in
  ((imm lsr 12) lsl 31)
  lor (((imm lsr 5) land 0x3f) lsl 25)
  lor (rs2 lsl 20) lor (rs1 lsl 15) lor (funct3 lsl 12)
  lor (((imm lsr 1) land 0xf) lsl 8)
  lor (((imm lsr 11) land 1) lsl 7)
  lor opcode

let u_type ~opcode ~rd ~imm =
  ((imm land 0xfffff) lsl 12) lor (rd lsl 7) lor opcode

let j_type ~opcode ~rd ~imm =
  let imm = imm land 0x1fffff in
  ((imm lsr 20) lsl 31)
  lor (((imm lsr 1) land 0x3ff) lsl 21)
  lor (((imm lsr 11) land 1) lsl 20)
  lor (((imm lsr 12) land 0xff) lsl 12)
  lor (rd lsl 7) lor opcode

let encode instr =
  let word =
    match instr with
    | Lui (rd, imm) ->
        check_reg rd "lui";
        u_type ~opcode:op_lui ~rd ~imm
    | Auipc (rd, imm) ->
        check_reg rd "auipc";
        u_type ~opcode:op_auipc ~rd ~imm
    | Jal (rd, imm) ->
        check_reg rd "jal";
        if imm < -(1 lsl 20) || imm >= 1 lsl 20 || imm land 1 <> 0 then
          invalid_arg "Isa.encode: jal offset out of range";
        j_type ~opcode:op_jal ~rd ~imm
    | Jalr (rd, rs1, imm) ->
        check_reg rd "jalr";
        check_reg rs1 "jalr";
        check_imm12 imm "jalr";
        i_type ~opcode:op_jalr ~funct3:0 ~rd ~rs1 ~imm
    | Branch (op, rs1, rs2, imm) ->
        check_reg rs1 "branch";
        check_reg rs2 "branch";
        if imm < -4096 || imm > 4094 || imm land 1 <> 0 then
          invalid_arg "Isa.encode: branch offset out of range";
        b_type ~opcode:op_branch ~funct3:(branch_funct3 op) ~rs1 ~rs2 ~imm
    | Load (op, rd, rs1, imm) ->
        check_reg rd "load";
        check_reg rs1 "load";
        check_imm12 imm "load";
        i_type ~opcode:op_load ~funct3:(load_funct3 op) ~rd ~rs1 ~imm
    | Store (op, rs2, rs1, imm) ->
        check_reg rs2 "store";
        check_reg rs1 "store";
        check_imm12 imm "store";
        s_type ~opcode:op_store ~funct3:(store_funct3 op) ~rs1 ~rs2 ~imm
    | Op_imm (op, rd, rs1, imm) ->
        check_reg rd "op-imm";
        check_reg rs1 "op-imm";
        (match op with
        | Sll | Srl | Sra ->
            if imm < 0 || imm > 63 then
              invalid_arg "Isa.encode: shift amount out of range";
            ()
        | Sub -> invalid_arg "Isa.encode: subi does not exist"
        | Add | Slt | Sltu | Xor | Or | And -> check_imm12 imm "op-imm");
        let imm =
          match op with
          | Srl -> imm
          | Sra -> imm lor (0b010000 lsl 6)
          | _ -> imm
        in
        i_type ~opcode:op_imm ~funct3:(alu_funct3 op) ~rd ~rs1 ~imm
    | Op (op, rd, rs1, rs2) ->
        check_reg rd "op";
        check_reg rs1 "op";
        check_reg rs2 "op";
        r_type ~opcode:op_op ~funct3:(alu_funct3 op) ~funct7:(alu_funct7 op)
          ~rd ~rs1 ~rs2
    | Mul (rd, rs1, rs2) ->
        check_reg rd "mul";
        r_type ~opcode:op_op ~funct3:0 ~funct7:1 ~rd ~rs1 ~rs2
    | Csr_read_cycle rd ->
        check_reg rd "rdcycle";
        i_type ~opcode:op_system ~funct3:0b010 ~rd ~rs1:0 ~imm:csr_cycle
    | Ecall -> i_type ~opcode:op_system ~funct3:0 ~rd:0 ~rs1:0 ~imm:0
    | Ebreak -> i_type ~opcode:op_system ~funct3:0 ~rd:0 ~rs1:0 ~imm:1
    | Fence -> i_type ~opcode:op_fence ~funct3:0 ~rd:0 ~rs1:0 ~imm:0
  in
  Int32.of_int word

let decode word =
  let w = Int32.to_int word land 0xffffffff in
  let opcode = w land 0x7f in
  let rd = (w lsr 7) land 0x1f in
  let funct3 = (w lsr 12) land 0x7 in
  let rs1 = (w lsr 15) land 0x1f in
  let rs2 = (w lsr 20) land 0x1f in
  let funct7 = (w lsr 25) land 0x7f in
  let imm_i = Sanctorum_util.Bits.sign_extend (w lsr 20) ~width:12 in
  let imm_s =
    Sanctorum_util.Bits.sign_extend (((w lsr 25) lsl 5) lor rd) ~width:12
  in
  let imm_b =
    Sanctorum_util.Bits.sign_extend
      (((w lsr 31) lsl 12)
      lor (((w lsr 7) land 1) lsl 11)
      lor (((w lsr 25) land 0x3f) lsl 5)
      lor (((w lsr 8) land 0xf) lsl 1))
      ~width:13
  in
  let imm_u = Sanctorum_util.Bits.sign_extend (w lsr 12) ~width:20 in
  let imm_j =
    Sanctorum_util.Bits.sign_extend
      (((w lsr 31) lsl 20)
      lor (((w lsr 12) land 0xff) lsl 12)
      lor (((w lsr 20) land 1) lsl 11)
      lor (((w lsr 21) land 0x3ff) lsl 1))
      ~width:21
  in
  if opcode = op_lui then Some (Lui (rd, imm_u))
  else if opcode = op_auipc then Some (Auipc (rd, imm_u))
  else if opcode = op_jal then Some (Jal (rd, imm_j))
  else if opcode = op_jalr && funct3 = 0 then Some (Jalr (rd, rs1, imm_i))
  else if opcode = op_branch then begin
    let op =
      match funct3 with
      | 0b000 -> Some Beq
      | 0b001 -> Some Bne
      | 0b100 -> Some Blt
      | 0b101 -> Some Bge
      | 0b110 -> Some Bltu
      | 0b111 -> Some Bgeu
      | _ -> None
    in
    Option.map (fun op -> Branch (op, rs1, rs2, imm_b)) op
  end
  else if opcode = op_load then begin
    let op =
      match funct3 with
      | 0b000 -> Some Lb
      | 0b001 -> Some Lh
      | 0b010 -> Some Lw
      | 0b011 -> Some Ld
      | 0b100 -> Some Lbu
      | 0b101 -> Some Lhu
      | 0b110 -> Some Lwu
      | _ -> None
    in
    Option.map (fun op -> Load (op, rd, rs1, imm_i)) op
  end
  else if opcode = op_store then begin
    let op =
      match funct3 with
      | 0b000 -> Some Sb
      | 0b001 -> Some Sh
      | 0b010 -> Some Sw
      | 0b011 -> Some Sd
      | _ -> None
    in
    Option.map (fun op -> Store (op, rs2, rs1, imm_s)) op
  end
  else if opcode = op_imm then begin
    match funct3 with
    | 0b000 -> Some (Op_imm (Add, rd, rs1, imm_i))
    | 0b010 -> Some (Op_imm (Slt, rd, rs1, imm_i))
    | 0b011 -> Some (Op_imm (Sltu, rd, rs1, imm_i))
    | 0b100 -> Some (Op_imm (Xor, rd, rs1, imm_i))
    | 0b110 -> Some (Op_imm (Or, rd, rs1, imm_i))
    | 0b111 -> Some (Op_imm (And, rd, rs1, imm_i))
    | 0b001 -> Some (Op_imm (Sll, rd, rs1, (w lsr 20) land 0x3f))
    | 0b101 ->
        let shamt = (w lsr 20) land 0x3f in
        if (w lsr 26) land 0x3f = 0b010000 then
          Some (Op_imm (Sra, rd, rs1, shamt))
        else if (w lsr 26) land 0x3f = 0 then
          Some (Op_imm (Srl, rd, rs1, shamt))
        else None
    | _ -> None
  end
  else if opcode = op_op then begin
    if funct7 = 1 && funct3 = 0 then Some (Mul (rd, rs1, rs2))
    else begin
      let op =
        match (funct3, funct7) with
        | 0b000, 0b0000000 -> Some Add
        | 0b000, 0b0100000 -> Some Sub
        | 0b001, 0b0000000 -> Some Sll
        | 0b010, 0b0000000 -> Some Slt
        | 0b011, 0b0000000 -> Some Sltu
        | 0b100, 0b0000000 -> Some Xor
        | 0b101, 0b0000000 -> Some Srl
        | 0b101, 0b0100000 -> Some Sra
        | 0b110, 0b0000000 -> Some Or
        | 0b111, 0b0000000 -> Some And
        | _ -> None
      in
      Option.map (fun op -> Op (op, rd, rs1, rs2)) op
    end
  end
  else if opcode = op_system then begin
    if funct3 = 0 && rs1 = 0 && rd = 0 then
      match (w lsr 20) land 0xfff with
      | 0 -> Some Ecall
      | 1 -> Some Ebreak
      | _ -> None
    else if funct3 = 0b010 && rs1 = 0 && (w lsr 20) land 0xfff = csr_cycle then
      Some (Csr_read_cycle rd)
    else None
  end
  else if opcode = op_fence then Some Fence
  else None

let encode_program instrs =
  let buf = Buffer.create (4 * List.length instrs) in
  List.iter
    (fun i ->
      let w = encode i in
      Buffer.add_char buf (Char.chr (Int32.to_int w land 0xff));
      Buffer.add_char buf
        (Char.chr (Int32.to_int (Int32.shift_right_logical w 8) land 0xff));
      Buffer.add_char buf
        (Char.chr (Int32.to_int (Int32.shift_right_logical w 16) land 0xff));
      Buffer.add_char buf
        (Char.chr (Int32.to_int (Int32.shift_right_logical w 24) land 0xff)))
    instrs;
  Buffer.contents buf

let zero = 0
let ra = 1
let sp = 2
let gp = 3
let tp = 4
let t0 = 5
let t1 = 6
let t2 = 7
let s0 = 8
let s1 = 9
let a0 = 10
let a1 = 11
let a2 = 12
let a3 = 13
let a4 = 14
let a5 = 15
let a6 = 16
let a7 = 17
let t3 = 28
let t4 = 29
let t5 = 30
let t6 = 31

let nop = Op_imm (Add, 0, 0, 0)

let li rd imm =
  if imm >= -2048 && imm <= 2047 then [ Op_imm (Add, rd, zero, imm) ]
  else begin
    let hi = (imm + 0x800) asr 12 in
    let lo = imm - (hi lsl 12) in
    if lo = 0 then [ Lui (rd, hi) ]
    else [ Lui (rd, hi); Op_imm (Add, rd, rd, lo) ]
  end

let mv rd rs = Op_imm (Add, rd, rs, 0)
let j off = Jal (zero, off)
