(* Experiment T1 (paper §VII-A): regenerate the TCB size table for this
   reproduction, with the same exclusions the paper applies — the paper
   counts 5785 LOC total, of which 1011 LOC is the platform-independent
   monitor core once cryptography, libc-equivalents and boot plumbing
   are excluded. *)

(* Lines of code in one OCaml source: lines holding anything but
   whitespace outside comments. Comments nest, and string and char
   literals are read as OCaml's lexer reads them, in code and inside
   comments alike, so a quoted "(*" or '"' opens nothing. *)
let count_source s =
  let n = String.length s in
  let lines = ref 0 and code = ref false in
  let end_line () =
    if !code then incr lines;
    code := false
  in
  let blank c = c = ' ' || c = '\t' || c = '\r' in
  (* The index after the string literal whose body starts at [i]. *)
  let rec skip_string ~in_code i =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\n' ->
          end_line ();
          skip_string ~in_code (i + 1)
      | c ->
          if in_code && not (blank c) then code := true;
          (* an escape skips the next char, but an escaped newline
             still ends its line *)
          let escape = c = '\\' && i + 1 < n && s.[i + 1] <> '\n' in
          skip_string ~in_code (i + if escape then 2 else 1)
  in
  (* The index after the char literal opening at [i], or [i + 1] when
     the quote opens none (a type variable or a primed name). *)
  let char_end i =
    if i + 3 < n && s.[i + 1] = '\\' then
      match String.index_from_opt s (i + 3) '\'' with
      | Some j -> j + 1
      | None -> i + 1
    else if i + 2 < n && s.[i + 2] = '\'' && s.[i + 1] <> '\n' then i + 3
    else i + 1
  in
  let rec go i depth =
    if i >= n then end_line ()
    else
      let c = s.[i] and next = if i + 1 < n then s.[i + 1] else ' ' in
      if c = '\n' then begin
        end_line ();
        go (i + 1) depth
      end
      else if c = '(' && next = '*' then go (i + 2) (depth + 1)
      else if depth > 0 && c = '*' && next = ')' then go (i + 2) (depth - 1)
      else begin
        if depth = 0 && not (blank c) then code := true;
        if c = '"' then go (skip_string ~in_code:(depth = 0) (i + 1)) depth
        else if c = '\'' then go (char_end i) depth
        else go (i + 1) depth
      end
  in
  go 0 0;
  !lines

let count_file path =
  count_source (In_channel.with_open_bin path In_channel.input_all)

(* The sources of [dir] whose module [keep] accepts. *)
let count_dir ?(keep = fun _ -> true) dir =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc f ->
          if (Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
             && keep (Filename.remove_extension f)
          then acc + count_file (Filename.concat dir f)
          else acc)
        0 entries
  | exception Sys_error _ -> 0

(* lib/core also holds the remote verifier, the client side of the
   attestation protocol and the signing enclave's program
   (attestation), and the OS loader's image builder (image): in the
   paper these run in an enclave, on the host or off the machine. Every
   other lib/core module is monitor. *)
let outside_monitor = [ "attestation"; "image" ]

let () =
  let root =
    (* Run from the repo root or from _build; find lib/ upward. A dune
       build tree has its own lib/ copies, so never settle inside
       _build — counts must come from the checked-in sources. *)
    let under_build d =
      List.exists (( = ) "_build") (String.split_on_char '/' d)
    in
    let rec find d =
      if (not (under_build d)) && Sys.file_exists (Filename.concat d "lib/core")
      then d
      else begin
        let parent = Filename.dirname d in
        if parent = d then failwith "cannot locate repo root" else find parent
      end
    in
    find (Sys.getcwd ())
  in
  let dir ?keep name = count_dir ?keep (Filename.concat root name) in
  let outside m = List.mem m outside_monitor in
  let core = dir "lib/core" ~keep:(fun m -> not (outside m)) in
  let attestation = dir "lib/core" ~keep:outside in
  let crypto = dir "lib/crypto" in
  let platform = dir "lib/platform" in
  let rows =
    [
      ("monitor core (lib/core)", core, "1011 (C99)");
      ("attestation + images (lib/core)", attestation, "(outside TCB)");
      ("cryptography (lib/crypto)", crypto, "(excluded)");
      ("platform backends (lib/platform)", platform, "(platform)");
      ("hardware model (lib/hw)", dir "lib/hw", "(is hardware)");
      ("util (lib/util)", dir "lib/util", "(libc equiv)");
      ("untrusted OS model (lib/os)", dir "lib/os", "(untrusted)");
      ("workload engine (lib/workload)", dir "lib/workload", "(untrusted)");
      ("fleet (lib/fleet)", dir "lib/fleet", "(untrusted)");
      ("adversary models (lib/attack)", dir "lib/attack", "(untrusted)");
      ("telemetry (lib/telemetry)", dir "lib/telemetry", "(tooling)");
      ("invariant checker (lib/analysis)", dir "lib/analysis", "(tooling)");
      ("fault injection (lib/faults)", dir "lib/faults", "(tooling)");
    ]
  in
  let row name loc paper = Printf.printf "%-34s %8d %14s\n" name loc paper in
  Printf.printf "T1: trusted code base size (cf. paper §VII-A)\n";
  Printf.printf "%-34s %8s %14s\n" "component" "LOC" "paper analogue";
  List.iter (fun (name, loc, paper) -> row name loc paper) rows;
  row "total" (List.fold_left (fun acc (_, loc, _) -> acc + loc) 0 rows) "5785";
  Printf.printf
    "\nLOC: lines with code outside comments, .ml and .mli.\n\
     monitor core = lib/core without %s.\n\
     TCB in this model = monitor core + crypto + platform glue = %d LOC\n"
    (String.concat ", " outside_monitor)
    (core + crypto + platform);
  Printf.printf
    "paper: 5785 LOC total (5264 C + 521 asm); 1011 LOC platform-independent\n"
