(** nomap-run: execute a MiniJS file on the simulated VM.

    The downstream-user tool: run any .js file under any architecture
    ([Config.all], listed by [--help]) and any tier cap, and get execution
    statistics, bytecode disassembly, or optimized-LIR dumps with their
    register layout and edge plan.

    Examples:
      nomap_run prog.js
      nomap_run --arch NoMap --stats prog.js
      nomap_run --arch Base --dump-lir hot_function prog.js
      nomap_run --tier Baseline --disasm prog.js *)

module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Engine = Nomap_machine.Engine
module Value = Nomap_runtime.Value

open Cmdliner

let arch_of_string s =
  List.find_opt (fun a -> String.lowercase_ascii (Config.name a) = String.lowercase_ascii s)
    Config.all

let tier_of_string = function
  | "interpreter" | "interp" -> Some Vm.Cap_interp
  | "baseline" -> Some Vm.Cap_baseline
  | "dfg" -> Some Vm.Cap_dfg
  | "ftl" -> Some Vm.Cap_ftl
  | _ -> None

let run file arch_name tier_name engine_name show_stats disasm dump_lir iterations =
  let arch =
    match arch_of_string arch_name with
    | Some a -> a
    | None ->
      Printf.eprintf "unknown architecture %S (expected one of: %s)\n" arch_name
        (String.concat ", " (List.map Config.name Config.all));
      exit 2
  in
  let tier =
    match tier_of_string (String.lowercase_ascii tier_name) with
    | Some t -> t
    | None ->
      Printf.eprintf "unknown tier %S (interpreter|baseline|dfg|ftl)\n" tier_name;
      exit 2
  in
  let engine =
    match Engine.of_string (String.lowercase_ascii engine_name) with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown engine %S (%s)\n" engine_name
        (String.concat "|" (List.map Engine.name Engine.all));
      exit 2
  in
  let source =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let prog =
    try Nomap_bytecode.Compile.compile_source ~name:file source with
    | Failure msg | Nomap_bytecode.Compile.Error msg ->
      prerr_endline msg;
      exit 1
  in
  if disasm then print_endline (Nomap_bytecode.Disasm.program_to_string prog);
  let vm =
    Vm.create ~fuel:4_000_000_000 ~engine ~config:(Config.create arch) ~tier_cap:tier prog
  in
  (try
     ignore (Vm.run_main vm);
     (* If the program defines benchmark(), drive it like the harness does. *)
     (match Nomap_bytecode.Opcode.func_by_name prog "benchmark" with
     | Some _ ->
       let result = ref Value.Undef in
       for _ = 1 to iterations do
         result := Vm.call_function vm "benchmark" []
       done;
       Printf.printf "benchmark() = %s\n" (Value.to_js_string !result)
     | None -> ());
     match Vm.global vm "result" with
     | Some v when v <> Value.Undef -> Printf.printf "result = %s\n" (Value.to_js_string v)
     | _ -> ()
   with
  | Nomap_interp.Interp.Runtime_error msg ->
    Printf.eprintf "runtime error: %s\n" msg;
    exit 1
  | Nomap_interp.Instance.Out_of_fuel ->
    prerr_endline "execution exceeded the simulation budget";
    exit 1);
  (match dump_lir with
  | Some name -> (
    match Nomap_bytecode.Opcode.func_by_name prog name with
    | None -> Printf.eprintf "no function %s\n" name
    | Some f -> (
      match Vm.ftl_code vm f.Nomap_bytecode.Opcode.fid with
      | Some c ->
        let d = Nomap_machine.Machine.decoded c in
        print_endline (Nomap_lir.Printer.func_to_string c.Nomap_tiers.Specialize.lir);
        print_string (Nomap_lir.Decode.layout_to_string d.Nomap_lir.Decode.layout);
        print_string (Nomap_machine.Threaded.edge_plan_to_string d)
      | None ->
        Printf.eprintf "%s never reached the FTL tier (call it more, or raise --iterations)\n"
          name))
  | None -> ());
  if show_stats then begin
    let c = Vm.counters vm in
    Printf.printf "--- simulated execution statistics (%s, tier cap %s) ---\n" (Config.name arch)
      (Vm.cap_name tier);
    Printf.printf "instructions: %d\n" (Counters.total_instrs c);
    List.iter
      (fun cat ->
        Printf.printf "  %-8s %12d\n" (Counters.category_name cat)
          c.Counters.instrs.(Counters.category_index cat))
      Counters.categories;
    Printf.printf "cycles: %.0f (in transactions: %.0f)\n" (Counters.cycles c) (Counters.tx_cycles c);
    Printf.printf "checks executed: %d" (Counters.total_checks c);
    List.iter
      (fun k ->
        Printf.printf "  %s=%d" (Nomap_lir.Lir.check_kind_name k)
          c.Counters.checks.(Counters.check_index k))
      Counters.check_kinds;
    print_newline ();
    Printf.printf "ftl calls: %d   dfg calls: %d   deopts: %d\n" c.Counters.ftl_calls
      c.Counters.dfg_calls c.Counters.deopts;
    Printf.printf "tx commits: %d   tx aborts: %d   demotions: %d\n" c.Counters.tx_commits
      c.Counters.tx_aborts (Vm.tx_demotions vm);
    if c.Counters.tx_samples > 0 then
      Printf.printf "tx write footprint: avg %.2f KB, max %.2f KB, max set ways %d\n"
        (Counters.tx_write_kb_sum c /. float_of_int c.Counters.tx_samples)
        (Counters.tx_write_kb_max c) c.Counters.tx_assoc_max
  end

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.js")

let arch =
  let doc =
    Printf.sprintf "Architecture: %s." (String.concat ", " (List.map Config.name Config.all))
  in
  Arg.(value & opt string "Base" & info [ "arch"; "a" ] ~docv:"ARCH" ~doc)

let tier =
  Arg.(value & opt string "ftl" & info [ "tier"; "t" ] ~docv:"TIER"
    ~doc:"Highest tier: interpreter, baseline, dfg, ftl.")

let engine =
  Arg.(value & opt string (Engine.name Engine.default) & info [ "engine"; "e" ] ~docv:"ENGINE"
    ~doc:"Engine mode for optimized tiers: threaded (fused superinstructions, the \
      default) or decoded (the exact mode: every instruction charged on its own, the \
      reference the fused mode is checked against).  Simulated metrics are identical; only \
      host wall-clock differs.")

let stats = Arg.(value & flag & info [ "stats"; "s" ] ~doc:"Print execution statistics.")
let disasm = Arg.(value & flag & info [ "disasm" ] ~doc:"Print bytecode disassembly.")

let dump_lir =
  Arg.(value & opt (some string) None & info [ "dump-lir" ] ~docv:"FUNC"
    ~doc:"Dump the optimized FTL LIR of a function after the run, then its register \
      layout: the size of the int and boxed register files and each value's \
      representation and slot; then its edge plan: one line per CFG edge with \
      its phi copy counts (int, boxed, boxing) and whether it is staged.")

let iterations =
  Arg.(value & opt int 40 & info [ "iterations"; "n" ] ~docv:"N"
    ~doc:"How many times to call benchmark(), if the program defines one.")

let cmd =
  let doc = "Run a MiniJS program on the NoMap simulated JavaScript VM" in
  Cmd.v (Cmd.info "nomap_run" ~doc)
    Term.(const run $ file $ arch $ tier $ engine $ stats $ disasm $ dump_lir $ iterations)

let () = exit (Cmd.eval cmd)
