(** An RV64I-subset instruction set: variant representation, binary
    encoder (assembler) and decoder (interpreter front-end).

    Enclave binaries must live in measured memory pages, so programs
    are genuinely encoded to 32-bit RISC-V words, loaded into simulated
    physical memory, and decoded again at execution time. The subset is
    the integer base ISA plus [mul], [ecall]/[ebreak], and a read-only
    cycle CSR (needed by the cache-timing adversary). *)

type reg = int
(** Register index 0..31; x0 is hardwired to zero. *)

type branch_op = Beq | Bne | Blt | Bge | Bltu | Bgeu
type load_op = Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu
type store_op = Sb | Sh | Sw | Sd
type alu_op = Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And

type t =
  | Lui of reg * int  (** rd, imm (upper 20 bits, signed) *)
  | Auipc of reg * int
  | Jal of reg * int  (** rd, byte offset *)
  | Jalr of reg * reg * int  (** rd, rs1, imm *)
  | Branch of branch_op * reg * reg * int  (** rs1, rs2, byte offset *)
  | Load of load_op * reg * reg * int  (** rd, rs1, imm *)
  | Store of store_op * reg * reg * int  (** rs2, rs1, imm *)
  | Op_imm of alu_op * reg * reg * int  (** op, rd, rs1, imm *)
  | Op of alu_op * reg * reg * reg  (** op, rd, rs1, rs2 *)
  | Mul of reg * reg * reg
  | Csr_read_cycle of reg  (** rdcycle rd *)
  | Ecall
  | Ebreak
  | Fence

val encode : t -> int32
val decode : int32 -> t option
(** [None] for any word outside the implemented subset. *)

val encode_program : t list -> string
(** Little-endian 32-bit words, ready to be loaded into memory. *)

(** ABI register names. *)

val zero : reg
val ra : reg
val sp : reg
val gp : reg
val tp : reg
val t0 : reg
val t1 : reg
val t2 : reg
val s0 : reg
val s1 : reg
val a0 : reg
val a1 : reg
val a2 : reg
val a3 : reg
val a4 : reg
val a5 : reg
val a6 : reg
val a7 : reg
val t3 : reg
val t4 : reg
val t5 : reg
val t6 : reg

(** Convenience pseudo-instructions for writing test programs. *)

val nop : t
val li : reg -> int -> t list
(** Load a (small, <= 32-bit) immediate; expands to lui+addi or addi. *)

val mv : reg -> reg -> t
val j : int -> t
(** Unconditional jump by byte offset. *)
