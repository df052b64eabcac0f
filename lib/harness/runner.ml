(** Measurement primitives: warm a benchmark to steady state under a given
    configuration, measure, and verify the checksum against the reference
    interpreter.

    Every function here is *uncached* and self-contained — one call builds
    one VM (or interpreter instance), runs the protocol, and returns the
    steady-state metrics.  Because the shape universe, heap, and counters
    are all per-VM values, each call is independent of every other, which
    is what lets [Scheduler] execute measurements on parallel domains.
    Memoization lives in [Scheduler]'s store; experiment drivers should go
    through that. *)

module Registry = Nomap_workloads.Registry
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Timing = Nomap_machine.Timing
module Value = Nomap_runtime.Value
module Interp = Nomap_interp.Interp
module Instance = Nomap_interp.Instance
module Ast_interp = Nomap_interp.Ast_interp

(** Fuel for every VM and interpreter the harness builds: about 4x the
    heaviest run's use (245,927,813 ops, over [experiments.exe all], the
    test suite and perfbench's cell-base), so a miscompile that keeps a
    loop from exiting fails in seconds, not minutes. *)
let fuel_budget = 1_000_000_000

(** The protocol, as constants: a VM run makes [default_warmup] calls of
    [benchmark()] and then measures [default_measure]; the interpreter
    languages of Figure 1 make 5 + 3; the deopt statistics make
    [deopt_iterations] calls. *)
let default_warmup = 35

let default_measure = 10
let lang_warmup = 5
let lang_measure = 3
let deopt_iterations = 300

(** Execution engine for every VM the harness builds.  Process-global
    rather than a memo-key dimension on purpose: the engines are
    metric-identical (the fuzz oracle pins result, heap checksum and the
    full counter table across the engine axis), so a measurement cached
    under one engine is valid under the other — only wall-clock differs,
    and the harness never caches wall-clock. *)
let engine = ref Nomap_machine.Engine.default

type measurement = {
  counters : Counters.t;  (** steady-state metrics over the measured calls *)
  checksum : string;
  deopts_total : int;  (** including warmup (for the §III-A2 statistic) *)
}

(** §III-A2 deoptimization statistics for one benchmark. *)
type deopt_stats = {
  d_ftl_calls : int;
  d_deopts : int;
  d_late : int;  (** deopts after iteration 50 *)
}

exception Checksum_mismatch of string * string * string

(* The one warm-up/measure loop.  [call] runs benchmark() once; [window]
   opens the measured window and returns the function that closes it into
   the window's counters. *)
let steady ~label ~warmup ~measure ~call ~window bench =
  for _ = 1 to warmup do
    ignore (call ())
  done;
  let close = window () in
  let result = ref Value.Undef in
  for _ = 1 to measure do
    result := call ()
  done;
  let counters = close () in
  let checksum = Value.to_js_string !result in
  let expected = Registry.reference_result bench in
  if checksum <> expected then
    raise (Checksum_mismatch (bench.Registry.id ^ "/" ^ label, expected, checksum));
  (counters, checksum)

(* A VM for [bench] that has run its top level. *)
let start_vm ~arch ~cap ~knobs bench =
  let vm =
    Vm.create ~fuel:fuel_budget ~engine:!engine ~opt_knobs:knobs ~config:(Config.create arch)
      ~tier_cap:cap (Registry.compile bench)
  in
  ignore (Vm.run_main vm);
  vm

(** Run [bench] on a VM under [arch], tier cap [cap] and optimizer passes
    [knobs]; returns steady-state metrics.  Every VM measurement of the
    sweep is this function: Figures 3 and 8–11 and Table IV at the full
    tier, Table I at each cap, the ablation with passes switched off. *)
let measure_vm ~arch ~cap ~knobs bench =
  let vm = start_vm ~arch ~cap ~knobs bench in
  let window () =
    let before = Vm.begin_measurement vm in
    fun () -> Counters.diff ~now:(Vm.counters vm) ~before
  in
  let counters, checksum =
    steady ~label:(Config.name arch) ~warmup:default_warmup ~measure:default_measure
      ~call:(fun () -> Vm.call_function vm "benchmark" [])
      ~window bench
  in
  { counters; checksum; deopts_total = (Vm.counters vm).Counters.deopts }

(** Run [bench] under architecture [arch] at full tier with every pass on. *)
let measure_arch ~arch bench =
  measure_vm ~arch ~cap:Vm.Cap_ftl ~knobs:Nomap_opt.Pipeline.all_on bench

(** Run [bench] to full tier and keep calling for [deopt_iterations]
    iterations, recording the deopt counter at iteration 50 (paper §III-A2:
    deopts are a startup phenomenon, not a steady-state one). *)
let measure_deopt bench =
  let vm =
    start_vm ~arch:Config.Base ~cap:Vm.Cap_ftl ~knobs:Nomap_opt.Pipeline.all_on bench
  in
  let deopts_at_50 = ref 0 in
  for i = 1 to deopt_iterations do
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

(* Bytecode-engine based languages (C = native cost model, Python =
   bytecode interpreter with boxed values and no inline caches): run the
   top level, return the benchmark() call. *)
let bytecode_lang ~mode ~charge bench =
  let prog = Registry.compile bench in
  let inst = Instance.create ~fuel:fuel_budget prog in
  let rec env =
    {
      Interp.instance = inst;
      mode;
      profile = None;
      charge;
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
  fun () -> Interp.call_function env ~fid:bench_fid ~this:Value.Undef ~args:[]

let ast_lang ~flavour ~charge bench =
  let ast = Nomap_jsir.Parser.parse_program_exn ~name:bench.Registry.name bench.Registry.source in
  let env = Ast_interp.create ~fuel:fuel_budget ~flavour ~charge ast in
  Ast_interp.run_program env ast;
  fun () -> Ast_interp.call env "benchmark" []

(** Note: [Lang_js] runs the full [measure_arch] protocol — the shortened
    protocol the interpreter-only languages use (5+3 calls) would never
    push [benchmark] past the FTL tier-up threshold, so Figure 1's "JS" bar
    would measure the Baseline tier.  [Scheduler.Key.lang] maps the JS key
    to the Base-architecture key of Figures 3/8-11, so the store shares the
    run. *)
let measure_language ~lang bench =
  let count = ref 0 in
  let charge n = count := !count + n in
  let interp ~cpi call =
    let window () =
      let before = !count in
      fun () ->
        let instrs = !count - before in
        let c = Counters.create () in
        Counters.add_instrs c Counters.No_ftl instrs;
        Counters.add_cycles c ~in_tx:false (instrs * cpi);
        c
    in
    let counters, checksum =
      steady ~label:(language_name lang) ~warmup:lang_warmup ~measure:lang_measure ~call
        ~window bench
    in
    { counters; checksum; deopts_total = 0 }
  in
  match lang with
  | Lang_js -> measure_arch ~arch:Config.Base bench
  | Lang_c -> interp ~cpi:Timing.cpi_ftl (bytecode_lang ~mode:Interp.Native_tier ~charge bench)
  | Lang_python ->
    interp ~cpi:Timing.cpi_runtime (bytecode_lang ~mode:Interp.Interp_tier ~charge bench)
  | Lang_php -> interp ~cpi:Timing.cpi_runtime (ast_lang ~flavour:Ast_interp.Php_like ~charge bench)
  | Lang_ruby ->
    interp ~cpi:Timing.cpi_runtime (ast_lang ~flavour:Ast_interp.Ruby_like ~charge bench)
