type access = Read | Write | Execute

type exception_cause =
  | Illegal_instruction of int32
  | Instruction_address_misaligned of int64
  | Misaligned of access * int64
  | Access_fault of access * int64
  | Page_fault of access * int64
  | Ecall_user
  | Breakpoint
  | Machine_check of int

type interrupt = Timer | Software | External of int
type cause = Exception of exception_cause | Interrupt of interrupt
type domain = int

let domain_sm = 0
let domain_untrusted = 1

let pp_access ppf a =
  Format.pp_print_string ppf
    (match a with Read -> "read" | Write -> "write" | Execute -> "execute")

let access_index = function Read -> 0 | Write -> 1 | Execute -> 2

let cause_index = function
  | Exception (Illegal_instruction _) -> 0
  | Exception (Instruction_address_misaligned _) -> 1
  | Exception (Misaligned (a, _)) -> 2 + access_index a
  | Exception (Access_fault (a, _)) -> 5 + access_index a
  | Exception (Page_fault (a, _)) -> 8 + access_index a
  | Exception Ecall_user -> 11
  | Exception Breakpoint -> 12
  | Exception (Machine_check _) -> 13
  | Interrupt Timer -> 14
  | Interrupt Software -> 15
  | Interrupt (External _) -> 16

(* indexed by [cause_index] *)
let labels =
  let accesses kind = List.map (( ^ ) kind) [ "-read"; "-write"; "-execute" ] in
  Array.of_list
    (List.concat
       [
         [ "illegal-instruction"; "instr-misaligned" ];
         accesses "misaligned";
         accesses "access-fault";
         accesses "page-fault";
         [ "ecall"; "breakpoint"; "machine-check" ];
         [ "irq-timer"; "irq-software"; "irq-external" ];
       ])

let cause_count = Array.length labels
let cause_label c = labels.(cause_index c)

let pp_cause ppf = function
  | Exception (Illegal_instruction w) ->
      Format.fprintf ppf "illegal instruction %08lx" w
  | Exception (Instruction_address_misaligned addr) ->
      Format.fprintf ppf "instruction address misaligned at 0x%Lx" addr
  | Exception (Misaligned (a, addr)) ->
      Format.fprintf ppf "misaligned %a at 0x%Lx" pp_access a addr
  | Exception (Access_fault (a, addr)) ->
      Format.fprintf ppf "access fault (%a) at 0x%Lx" pp_access a addr
  | Exception (Page_fault (a, addr)) ->
      Format.fprintf ppf "page fault (%a) at 0x%Lx" pp_access a addr
  | Exception Ecall_user -> Format.pp_print_string ppf "ecall from U-mode"
  | Exception Breakpoint -> Format.pp_print_string ppf "breakpoint"
  | Exception (Machine_check paddr) ->
      if paddr < 0 then Format.pp_print_string ppf "machine check"
      else Format.fprintf ppf "machine check at 0x%x" paddr
  | Interrupt Timer -> Format.pp_print_string ppf "timer interrupt"
  | Interrupt Software -> Format.pp_print_string ppf "software interrupt"
  | Interrupt (External n) -> Format.fprintf ppf "external interrupt %d" n
