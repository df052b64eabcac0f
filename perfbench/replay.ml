(** Replays a kernel's FTL compiles stage by stage, so the traced run can
    time each stage through public calls: a profiling run under a Baseline
    interpreter env with [Feedback], then for [benchmark] and every
    function called past the FTL threshold, [Specialize.compile],
    [Transform.apply], each entry of [Pipeline.ftl_passes],
    [Machine.decoded] and [Threaded.threaded].

    The profiling run makes the top-level call and [dfg_at] calls of
    [benchmark]: a VM profiles only its Baseline calls, so this is the
    feedback its FTL compile sees, and the full 21 calls under the
    interpreter would take seconds per kernel. *)

module Registry = Nomap_workloads.Registry
module Opcode = Nomap_bytecode.Opcode
module Instance = Nomap_interp.Instance
module Interp = Nomap_interp.Interp
module Feedback = Nomap_profile.Feedback
module Specialize = Nomap_tiers.Specialize
module Transform = Nomap_nomap.Transform
module Config = Nomap_nomap.Config
module Pipeline = Nomap_opt.Pipeline
module Machine = Nomap_machine.Machine
module Threaded = Nomap_machine.Threaded
module Counters = Nomap_machine.Counters
module Value = Nomap_runtime.Value
module Vm = Nomap_vm.Vm
module L = Nomap_lir.Lir

(** Deterministic per-replay counts: functions compiled, each pass's
    return value summed by pass name, and LIR size around the pipeline. *)
type counts = {
  mutable funcs : int;
  passes : (string, int) Hashtbl.t;
  mutable size_before : int;
  mutable size_after : int;
}

let lir_size (f : L.func) =
  Nomap_util.Vec.fold_left (fun n (b : L.block) -> n + List.length b.L.instrs) 0 f.L.blocks

let run tr ~arch (b : Registry.benchmark) =
  let span name f = Trace.span tr name f in
  let config = Config.create arch in
  let prog = Registry.compile b in
  let inst = Instance.create ~fuel:4_000_000_000 prog in
  let fb = Feedback.create prog in
  let rec env =
    {
      Interp.instance = inst;
      mode = Interp.Baseline_tier;
      profile = Some fb;
      charge = ignore;
      call = (fun ~fid ~this ~args -> Interp.call_function env ~fid ~this ~args);
    }
  in
  let th = Vm.default_thresholds in
  let bench_fid =
    match Opcode.func_by_name prog "benchmark" with
    | Some f -> f.Opcode.fid
    | None -> invalid_arg (b.Registry.id ^ " has no benchmark()")
  in
  span "interp.profile_run" (fun () ->
      ignore (Interp.call_function env ~fid:prog.Opcode.main_fid ~this:Value.Undef ~args:[]);
      for _ = 1 to th.Vm.dfg_at do
        ignore (Interp.call_function env ~fid:bench_fid ~this:Value.Undef ~args:[])
      done);
  let menv =
    Machine.create_env ~instance:inst ~counters:(Counters.create ())
      ~htm_mode:(Config.htm_mode config) ~sof_enabled:(Config.sof_enabled config)
      ~call:(fun ~fid:_ ~this:_ ~args:_ -> Value.Undef)
      ~deopt_resume:(fun ~fid:_ ~resume_pc:_ ~values:_ -> Value.Undef)
      ()
  in
  let c = { funcs = 0; passes = Hashtbl.create 8; size_before = 0; size_after = 0 } in
  Array.iteri
    (fun fid bc ->
      let fp = Feedback.func_profile fb fid in
      if fid = bench_fid || fp.Feedback.call_count > th.Vm.ftl_at then begin
        c.funcs <- c.funcs + 1;
        let consts = inst.Instance.consts.(fid) in
        let sc = span "tiers.specialize" (fun () -> Specialize.compile ~bc ~consts ~profile:fp) in
        span "nomap.transform" (fun () ->
            ignore (Transform.apply config ~placement:Nomap_nomap.Txplace.Auto ~profile:fp sc));
        let f = sc.Specialize.lir in
        c.size_before <- c.size_before + lir_size f;
        List.iter
          (fun (p : Pipeline.pass) ->
            let n = span ("opt." ^ p.Pipeline.name) (fun () -> p.Pipeline.run f) in
            Hashtbl.replace c.passes p.Pipeline.name
              (n + Option.value ~default:0 (Hashtbl.find_opt c.passes p.Pipeline.name)))
          Pipeline.ftl_passes;
        c.size_after <- c.size_after + lir_size f;
        ignore (span "lir.decode" (fun () -> Machine.decoded sc));
        ignore (span "machine.threaded_compile" (fun () -> Threaded.threaded menv sc ~tier:Machine.Ftl))
      end)
    prog.Opcode.funcs;
  c

let pass_names =
  List.sort_uniq compare (List.map (fun (p : Pipeline.pass) -> p.Pipeline.name) Pipeline.ftl_passes)
