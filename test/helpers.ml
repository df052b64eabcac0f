(** Shared helpers for the test suite: compile and run MiniJS snippets under
    the interpreter or baseline engines, and fetch globals by name. *)

open Nomap_interp

let compile src = Nomap_bytecode.Compile.compile_source src

(** The pinned fuzz corpus: [dune runtest] runs in the test directory,
    [dune exec] from the repo root. *)
let corpus_dir = if Sys.file_exists "fuzz_corpus" then "fuzz_corpus" else "test/fuzz_corpus"

let global_value inst name =
  let prog = inst.Instance.prog in
  let idx = ref (-1) in
  Array.iteri (fun i n -> if n = name then idx := i) prog.Nomap_bytecode.Opcode.globals;
  if !idx < 0 then Alcotest.failf "no global %s" name;
  inst.Instance.globals.(!idx)

(** Run [src] to completion in the given tier; returns (instance, charged
    instruction count, profile). *)
let run_program ?(mode = Interp.Interp_tier) ?(fuel = 50_000_000) ?(seed = 42) src =
  let prog = compile src in
  let inst = Instance.create ~seed ~fuel prog in
  let count = ref 0 in
  let profile =
    match mode with
    | Interp.Baseline_tier -> Some (Nomap_profile.Feedback.create prog)
    | Interp.Interp_tier | Interp.Native_tier -> None
  in
  let rec env =
    {
      Interp.instance = inst;
      mode;
      profile;
      charge = (fun n -> count := !count + n);
      call = (fun ~fid ~this ~args -> Interp.call_function env ~fid ~this ~args);
    }
  in
  let (_ : Nomap_runtime.Value.t) =
    Interp.call_function env ~fid:prog.Nomap_bytecode.Opcode.main_fid ~this:Nomap_runtime.Value.Undef
      ~args:[]
  in
  (inst, !count, profile)

(** Fail [label] if it used more than half of a test file's fuel [budget],
    so a heavier case asks for a larger budget instead of running out
    mid-run.  Budgets are a few times each file's measured heaviest use, so
    a miscompiled loop that never exits runs out within seconds. *)
let check_fuel_left ~budget label left =
  let used = budget - left in
  if 2 * used > budget then
    Alcotest.failf "%s: used %d of the %d fuel budget; raise [fuel_budget]" label used budget

let check_fuel ~budget label inst = check_fuel_left ~budget label inst.Instance.fuel

(** Run [src] and return the JS string rendering of global [result]. *)
let run_result ?mode ?fuel ?seed src =
  let inst, _, _ = run_program ?mode ?fuel ?seed src in
  Nomap_runtime.Value.to_js_string (global_value inst "result")
