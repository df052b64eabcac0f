(** Measurement primitives: warm a benchmark to steady state under a given
    configuration, measure, and verify the checksum against the reference
    interpreter.

    Every function here is *uncached* and self-contained — one call builds
    one VM (or interpreter instance), runs the protocol, and returns the
    steady-state metrics.  Because the shape universe, heap, and counters
    are all per-VM values, each call is independent of every other, which
    is what lets [Scheduler] execute measurements on parallel domains.
    Memoization (the old [Runner.cache]) lives in [Scheduler]'s
    mutex-guarded store; experiment drivers should go through that. *)

module Registry = Nomap_workloads.Registry
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Timing = Nomap_machine.Timing
module Value = Nomap_runtime.Value
module Interp = Nomap_interp.Interp
module Instance = Nomap_interp.Instance

(** Fuel for every VM and interpreter the harness builds: about 4x the
    heaviest run's use (245,927,813 ops, over [experiments.exe all], the
    test suite and perfbench's cell-base), so a miscompile that keeps a
    loop from exiting fails in seconds, not minutes. *)
let fuel_budget = 1_000_000_000

let default_warmup = 35
let default_measure = 10

(** Execution engine for every VM the harness builds.  Process-global
    rather than a memo-key dimension on purpose: the engines are
    metric-identical (the fuzz oracle pins result, heap checksum and the
    full counter table across the engine axis), so a measurement cached
    under one engine is valid under the other — only wall-clock differs,
    and the harness never caches wall-clock. *)
let engine = ref Nomap_machine.Engine.default

type measurement = {
  bench : Registry.benchmark;
  label : string;
  counters : Counters.t;  (** steady-state metrics over the measured calls *)
  checksum : string;
  deopts_total : int;  (** including warmup (for the §III-A2 statistic) *)
  ftl_calls_total : int;
  tx_demotions : int;
}

(** §III-A2 deoptimization statistics for one benchmark. *)
type deopt_stats = {
  d_ftl_calls : int;
  d_deopts : int;
  d_late : int;  (** deopts after iteration 50 *)
}

exception Checksum_mismatch of string * string * string

let check bench label got =
  let expected = Registry.reference_result bench in
  if got <> expected then
    raise (Checksum_mismatch (bench.Registry.id ^ "/" ^ label, expected, got))

(* Shared warm/measure protocol over a full VM. *)
let steady_vm ~warmup ~measure ~label bench vm =
  ignore (Vm.run_main vm);
  for _ = 1 to warmup do
    ignore (Vm.call_function vm "benchmark" [])
  done;
  let before = Vm.begin_measurement vm in
  let result = ref Value.Undef in
  for _ = 1 to measure do
    result := Vm.call_function vm "benchmark" []
  done;
  let counters = Counters.diff ~now:(Vm.counters vm) ~before in
  let checksum = Value.to_js_string !result in
  check bench label checksum;
  {
    bench;
    label;
    counters;
    checksum;
    deopts_total = (Vm.counters vm).Counters.deopts;
    ftl_calls_total = (Vm.counters vm).Counters.ftl_calls;
    tx_demotions = Vm.tx_demotions vm;
  }

(** Run [bench] under architecture [arch] at full tier; returns steady-state
    metrics. *)
let measure_arch ?(warmup = default_warmup) ?(measure = default_measure) ~arch bench =
  let label = Config.name arch in
  let prog = Registry.compile bench in
  let vm =
    Vm.create ~fuel:fuel_budget ~engine:!engine ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl prog
  in
  steady_vm ~warmup ~measure ~label bench vm

(** Run [bench] under [arch] with selected optimizer passes disabled
    (ablation studies). *)
let measure_ablation ?(warmup = default_warmup) ?(measure = default_measure) ~arch ~knobs
    ~label bench =
  let prog = Registry.compile bench in
  let vm =
    Vm.create ~fuel:fuel_budget ~engine:!engine ~opt_knobs:knobs ~config:(Config.create arch)
      ~tier_cap:Vm.Cap_ftl prog
  in
  let m = steady_vm ~warmup ~measure ~label:(Config.name arch ^ "/" ^ label) bench vm in
  { m with label }

(** Run [bench] with a tier cap (Table I), Base architecture. *)
let measure_cap ?(warmup = default_warmup) ?(measure = default_measure) ~cap bench =
  let label = "cap:" ^ Vm.cap_name cap in
  let prog = Registry.compile bench in
  let vm =
    Vm.create ~fuel:fuel_budget ~engine:!engine ~config:(Config.create Config.Base) ~tier_cap:cap prog
  in
  steady_vm ~warmup ~measure ~label bench vm

(** Run [bench] to full tier and keep calling for [iterations] iterations,
    recording the deopt counter at iteration 50 (paper §III-A2: deopts are a
    startup phenomenon, not a steady-state one). *)
let measure_deopt ~iterations bench =
  let prog = Registry.compile bench in
  let vm =
    Vm.create ~fuel:fuel_budget ~engine:!engine ~config:(Config.create Config.Base) ~tier_cap:Vm.Cap_ftl
      prog
  in
  ignore (Vm.run_main vm);
  let deopts_at_50 = ref 0 in
  for i = 1 to iterations do
    ignore (Vm.call_function vm "benchmark" []);
    if i = 50 then deopts_at_50 := (Vm.counters vm).Counters.deopts
  done;
  {
    d_ftl_calls = (Vm.counters vm).Counters.ftl_calls;
    d_deopts = (Vm.counters vm).Counters.deopts;
    d_late = (Vm.counters vm).Counters.deopts - !deopts_at_50;
  }

(* ------------------------------------------------------------------ *)
(* Figure 1 language stand-ins *)

type language = Lang_c | Lang_js | Lang_python | Lang_php | Lang_ruby

let language_name = function
  | Lang_c -> "C"
  | Lang_js -> "JavaScript"
  | Lang_python -> "Python"
  | Lang_php -> "PHP"
  | Lang_ruby -> "Ruby"

let default_lang_warmup = 5
let default_lang_measure = 3

(* Bytecode-engine based languages (C = native cost model, Python =
   bytecode interpreter with boxed values and no inline caches). *)
let run_bytecode_lang ~mode ~cpi ~label bench ~warmup ~measure =
  let prog = Registry.compile bench in
  let inst = Instance.create ~fuel:fuel_budget prog in
  let count = ref 0 in
  let rec env =
    {
      Interp.instance = inst;
      mode;
      profile = None;
      charge = (fun n -> count := !count + n);
      call = (fun ~fid ~this ~args -> Interp.call_function env ~fid ~this ~args);
    }
  in
  ignore
    (Interp.call_function env ~fid:prog.Nomap_bytecode.Opcode.main_fid ~this:Value.Undef
       ~args:[]);
  let bench_fid =
    match Nomap_bytecode.Opcode.func_by_name prog "benchmark" with
    | Some f -> f.Nomap_bytecode.Opcode.fid
    | None -> invalid_arg "no benchmark()"
  in
  for _ = 1 to warmup do
    ignore (Interp.call_function env ~fid:bench_fid ~this:Value.Undef ~args:[])
  done;
  let before = !count in
  let result = ref Value.Undef in
  for _ = 1 to measure do
    result := Interp.call_function env ~fid:bench_fid ~this:Value.Undef ~args:[]
  done;
  let instrs = !count - before in
  let counters = Counters.create () in
  Counters.add_instrs counters Counters.No_ftl instrs;
  Counters.add_cycles counters ~in_tx:false (instrs * cpi);
  let checksum = Value.to_js_string !result in
  check bench label checksum;
  {
    bench;
    label;
    counters;
    checksum;
    deopts_total = 0;
    ftl_calls_total = 0;
    tx_demotions = 0;
  }

let run_ast_lang ~flavour ~label bench ~warmup ~measure =
  let ast =
    Nomap_jsir.Parser.parse_program_exn ~name:bench.Registry.name bench.Registry.source
  in
  let count = ref 0 in
  let env =
    Nomap_interp.Ast_interp.create ~fuel:fuel_budget ~flavour
      ~charge:(fun n -> count := !count + n)
      ast
  in
  Nomap_interp.Ast_interp.run_program env ast;
  for _ = 1 to warmup do
    ignore (Nomap_interp.Ast_interp.call env "benchmark" [])
  done;
  let before = !count in
  let result = ref Value.Undef in
  for _ = 1 to measure do
    result := Nomap_interp.Ast_interp.call env "benchmark" []
  done;
  let instrs = !count - before in
  let counters = Counters.create () in
  Counters.add_instrs counters Counters.No_ftl instrs;
  Counters.add_cycles counters ~in_tx:false (instrs * Timing.cpi_runtime);
  let checksum = Value.to_js_string !result in
  check bench label checksum;
  {
    bench;
    label;
    counters;
    checksum;
    deopts_total = 0;
    ftl_calls_total = 0;
    tx_demotions = 0;
  }

(** Note: [Lang_js] deliberately ignores [warmup]/[measure] and runs the
    full [measure_arch] protocol — the shortened protocol the
    interpreter-only languages use (5+3 calls) would never push
    [benchmark] past the FTL tier-up threshold, so Figure 1's "JS" bar
    would measure the Baseline tier.  [Scheduler.Key.lang] normalizes the
    JS key to the Base-architecture key of Figures 3/8-11 so the store
    shares the run, which is exactly what we want. *)
let measure_language ?(warmup = default_lang_warmup) ?(measure = default_lang_measure) ~lang
    bench =
  match lang with
  | Lang_c ->
    run_bytecode_lang ~mode:Interp.Native_tier ~cpi:Timing.cpi_ftl ~label:"C" bench ~warmup
      ~measure
  | Lang_js -> measure_arch ~arch:Config.Base bench
  | Lang_python ->
    run_bytecode_lang ~mode:Interp.Interp_tier ~cpi:Timing.cpi_runtime ~label:"Python" bench
      ~warmup ~measure
  | Lang_php ->
    run_ast_lang ~flavour:Nomap_interp.Ast_interp.Php_like ~label:"PHP" bench ~warmup ~measure
  | Lang_ruby ->
    run_ast_lang ~flavour:Nomap_interp.Ast_interp.Ruby_like ~label:"Ruby" bench ~warmup
      ~measure
