(** The virtual machine: the tier controller wiring everything together.

    Per function, calls are dispatched by hotness (paper Figure 2):
    Interpreter first, then the Baseline engine (which profiles), then
    DFG-compiled LIR, then FTL-compiled LIR with the configured NoMap
    transformation and the full pass pipeline.

    It also implements the runtime adaptation loop: repeated deopts
    invalidate optimized code (recompile against fresher feedback);
    capacity aborts shrink the function's transactions (whole loop →
    per-iteration → none), the paper's reaction to transactional-state
    overflow (§V-C / §VI-B). *)

module Value = Nomap_runtime.Value
module Opcode = Nomap_bytecode.Opcode
module Feedback = Nomap_profile.Feedback
module Instance = Nomap_interp.Instance
module Interp = Nomap_interp.Interp
module Specialize = Nomap_tiers.Specialize
module Machine = Nomap_machine.Machine
module Engine = Nomap_machine.Engine
module Threaded = Nomap_machine.Threaded
module Counters = Nomap_machine.Counters
module Config = Nomap_nomap.Config
module Transform = Nomap_nomap.Transform
module Txplace = Nomap_nomap.Txplace
module Htm = Nomap_htm.Htm
module Agent = Nomap_shared.Agent
module Segment = Nomap_shared.Segment

type tier_cap = Cap_interp | Cap_baseline | Cap_dfg | Cap_ftl

let cap_name = function
  | Cap_interp -> "Interpreter"
  | Cap_baseline -> "Baseline"
  | Cap_dfg -> "DFG"
  | Cap_ftl -> "FTL"

type version = {
  mutable dfg : Specialize.compiled option;
  mutable ftl : Specialize.compiled option;
  mutable deopt_count : int;
  mutable placement : Txplace.placement;
  mutable dirty : bool;
}

type thresholds = { baseline_at : int; dfg_at : int; ftl_at : int }

let default_thresholds = { baseline_at = 2; dfg_at = 8; ftl_at = 20 }

type t = {
  instance : Instance.t;
  profile : Feedback.t;
  counters : Counters.t;
  config : Config.t;
  tier_cap : tier_cap;
  engine : Engine.kind;  (** which engine mode runs DFG/FTL code *)
  thresholds : thresholds;
  versions : version array;
  verify : bool;
      (** verify the LIR after the NoMap transform, after every optimization
          pass and after [ftl_mutate] *)
  ftl_mutate : (Nomap_lir.Lir.func -> unit) option;
      (** post-pipeline hook; the differential fuzzer injects deliberate
          miscompiles here to prove it can catch and shrink them *)
  opt_knobs : Nomap_opt.Pipeline.knobs;
  opt_stats : Nomap_opt.Pipeline.stats;
  nomap_stats : Transform.stats;
  env : Machine.env;
  interp_env : Interp.env;
  baseline_env : Interp.env;
  agent : Agent.t;  (** this VM's view of its shared segment (solo default) *)
  mutable deopt_invalidations : int;
  mutable tx_demotions : int;
}

let fresh_version () =
  { dfg = None; ftl = None; deopt_count = 0; placement = Txplace.Auto; dirty = false }

let rec create_gen ?(seed = 42) ?(fuel = max_int) ?(thresholds = default_thresholds)
    ?(verify = false) ?ftl_mutate
    ?(opt_knobs = Nomap_opt.Pipeline.all_on) ?(engine = Engine.default) ?shared ~config
    ~tier_cap (prog : Opcode.program) =
  let instance = Instance.create ~seed ~fuel prog in
  let profile = Feedback.create prog in
  let counters = Counters.create () in
  (* Every VM has an agent: a private solo one by default, so the
     [Shared]/[Atomics] surface works — tier-invariantly — in single-agent
     runs with zero coordination; a multi-agent runtime passes in an agent
     bound to a communal registry instead. *)
  let agent = match shared with Some ag -> ag | None -> Agent.solo () in
  Agent.install agent instance.Instance.heap;
  Agent.set_note agent (fun k ->
      match k with
      | Agent.Op_load ->
        counters.Counters.shared_loads <- counters.Counters.shared_loads + 1
      | Agent.Op_store ->
        counters.Counters.shared_stores <- counters.Counters.shared_stores + 1
      | Agent.Op_rmw ->
        counters.Counters.shared_rmws <- counters.Counters.shared_rmws + 1
      | Agent.Op_fence ->
        counters.Counters.shared_fences <- counters.Counters.shared_fences + 1);
  let t_ref = ref None in
  let get_t () = Option.get !t_ref in
  let call ~fid ~this ~args = dispatch (get_t ()) ~fid ~this ~args in
  let deopt_resume ~fid ~resume_pc ~values =
    let t = get_t () in
    let v = t.versions.(fid) in
    v.deopt_count <- v.deopt_count + 1;
    if v.deopt_count mod 25 = 0 then begin
      (* Too many deopts: throw the optimized code away and recompile with
         the feedback Baseline is about to collect. *)
      v.ftl <- None;
      v.dfg <- None;
      v.dirty <- true;
      t.deopt_invalidations <- t.deopt_invalidations + 1
    end;
    let f = prog.Opcode.funcs.(fid) in
    let regs = Array.make (Int.max 1 f.Opcode.nregs) Value.Undef in
    List.iter (fun (r, value) -> if r < Array.length regs then regs.(r) <- value) values;
    Interp.run_from t.baseline_env ~fid ~entry_pc:resume_pc ~regs
  in
  let env =
    Machine.create_env ~instance ~counters ~htm_mode:(Config.htm_mode config)
      ~sof_enabled:(Config.sof_enabled config) ~capacity_scale:Config.capacity_scale
      ~stm_fallback:(Config.stm_fallback config) ~call ~deopt_resume ()
  in
  (* The interpreter tiers charge NoFTL instructions through the machine,
     so an op run inside a transaction region counts toward TMTime. *)
  let charge_runtime n = Machine.charge_runtime env n in
  let interp_env =
    { Interp.instance; mode = Interp.Interp_tier; profile = None; charge = charge_runtime; call }
  in
  let baseline_env =
    {
      Interp.instance;
      mode = Interp.Baseline_tier;
      profile = Some profile;
      charge = charge_runtime;
      call;
    }
  in
  let t =
    {
      instance;
      profile;
      counters;
      config;
      tier_cap;
      engine;
      thresholds;
      versions = Array.init (Array.length prog.Opcode.funcs) (fun _ -> fresh_version ());
      verify;
      ftl_mutate;
      opt_knobs;
      opt_stats = Nomap_opt.Pipeline.empty_stats ();
      nomap_stats = Transform.empty_stats ();
      env;
      interp_env;
      baseline_env;
      agent;
      deopt_invalidations = 0;
      tx_demotions = 0;
    }
  in
  t_ref := Some t;
  env.Machine.on_abort <-
    (fun ~fid reason ->
      match reason with
      | Htm.Capacity_write | Htm.Capacity_read | Htm.Watchdog ->
        let v = t.versions.(fid) in
        (v.placement <-
           (match v.placement with
           | Txplace.Auto -> Txplace.Max_chunk 64
           | Txplace.Max_chunk m when m > 2 -> Txplace.Max_chunk (m / 4)
           | Txplace.Max_chunk _ | Txplace.Disabled -> Txplace.Disabled));
        v.ftl <- None;
        v.dirty <- true;
        t.tx_demotions <- t.tx_demotions + 1
      | Htm.Check_failed _ | Htm.Sof_overflow | Htm.Irrevocable | Htm.Conflict ->
        (* A cross-agent conflict says nothing about this function's
           footprint: retry at the same placement (the paper's conflict
           aborts are transient, not capacity-driven). *)
        ());
  env.Machine.shared_agent <- Some agent;
  t

and ensure_dfg t fid =
  let v = t.versions.(fid) in
  match v.dfg with
  | Some c -> c
  | None ->
    let bc = t.instance.Instance.prog.Opcode.funcs.(fid) in
    let consts = t.instance.Instance.consts.(fid) in
    let fp = Feedback.func_profile t.profile fid in
    let c = Specialize.compile ~bc ~consts ~profile:fp in
    ignore
      (Nomap_opt.Pipeline.dfg ~stats:t.opt_stats ~knobs:t.opt_knobs ~verify:t.verify
         c.Specialize.lir);
    v.dfg <- Some c;
    c

and ensure_ftl t fid =
  let v = t.versions.(fid) in
  match v.ftl with
  | Some c -> c
  | None ->
    let bc = t.instance.Instance.prog.Opcode.funcs.(fid) in
    let consts = t.instance.Instance.consts.(fid) in
    let fp = Feedback.func_profile t.profile fid in
    let c = Specialize.compile ~bc ~consts ~profile:fp in
    ignore (Transform.apply t.config ~placement:v.placement ~profile:fp ~stats:t.nomap_stats c);
    if t.verify then begin
      try Nomap_lir.Verify.verify c.Specialize.lir
      with Nomap_lir.Verify.Ill_formed msg ->
        raise (Nomap_lir.Verify.Ill_formed ("after transform: " ^ msg))
    end;
    ignore
      (Nomap_opt.Pipeline.ftl ~stats:t.opt_stats ~knobs:t.opt_knobs ~verify:t.verify
         c.Specialize.lir);
    (match t.ftl_mutate with
    | Some m ->
      m c.Specialize.lir;
      if t.verify then Nomap_lir.Verify.verify c.Specialize.lir
    | None -> ());
    v.ftl <- Some c;
    v.dirty <- false;
    c

and exec t c ~tier ~this ~args =
  Threaded.exec_func t.env c ~exact:(t.engine = Engine.Decoded) ~tier ~this ~args

and dispatch t ~fid ~this ~args =
  let fp = Feedback.func_profile t.profile fid in
  fp.Feedback.call_count <- fp.Feedback.call_count + 1;
  let n = fp.Feedback.call_count in
  let th = t.thresholds in
  match t.tier_cap with
  | Cap_ftl when n > th.ftl_at ->
    let c = ensure_ftl t fid in
    exec t c ~tier:Machine.Ftl ~this ~args
  | (Cap_ftl | Cap_dfg) when n > th.dfg_at ->
    (* From here on, Baseline code runs only when a deopt resumes it, and
       [deopt_resume] compiles it again then. *)
    if n = th.dfg_at + 1 then Interp.discard t.instance ~fid Interp.Baseline_tier;
    let c = ensure_dfg t fid in
    exec t c ~tier:Machine.Dfg ~this ~args
  | (Cap_ftl | Cap_dfg | Cap_baseline) when n > th.baseline_at ->
    (* Call counts only grow and resumes enter Baseline code, so the
       function's Interpreter code is dead from its first Baseline call. *)
    if n = th.baseline_at + 1 then Interp.discard t.instance ~fid Interp.Interp_tier;
    let regs = Interp.make_frame t.instance ~fid ~this ~args in
    Interp.run_from t.baseline_env ~fid ~entry_pc:0 ~regs
  | _ ->
    let regs = Interp.make_frame t.instance ~fid ~this ~args in
    Interp.run_from t.interp_env ~fid ~entry_pc:0 ~regs

let create ?seed ?fuel ?thresholds ?verify ?opt_knobs ?engine ?shared ~config ~tier_cap prog =
  create_gen ?seed ?fuel ?thresholds ?verify ?opt_knobs ?engine ?shared ~config ~tier_cap prog

let create_with_ftl_mutator ~ftl_mutate ?seed ?fuel ?thresholds ?verify ?opt_knobs ?engine
    ?shared ~config ~tier_cap prog =
  create_gen ?seed ?fuel ?thresholds ?verify ~ftl_mutate ?opt_knobs ?engine ?shared ~config
    ~tier_cap prog

(** Run the program's top level. *)
let run_main t =
  dispatch t ~fid:t.instance.Instance.prog.Opcode.main_fid ~this:Value.Undef ~args:[]

(** Call a named global function (the benchmark entry point). *)
let call_function t name args =
  match Opcode.func_by_name t.instance.Instance.prog name with
  | Some f -> dispatch t ~fid:f.Opcode.fid ~this:Value.Undef ~args
  | None -> invalid_arg ("no function " ^ name)

let global t name =
  let prog = t.instance.Instance.prog in
  let idx = ref (-1) in
  Array.iteri (fun i n -> if n = name then idx := i) prog.Opcode.globals;
  if !idx < 0 then None else Some t.instance.Instance.globals.(!idx)

(* Accessors: [t] is abstract in the interface (vm.mli), so external
   observers — harness, oracle, daemon, tests — read through these and the
   mutable internals (versions, ftl_mutate, machine env) stay private. *)

let instance t = t.instance
let counters t = t.counters
let engine t = t.engine
let agent t = t.agent

(** Checksum of the VM's shared segment (the fuzz oracle's third
    observation alongside result and heap checksum). *)
let shared_checksum t = Segment.checksum (Agent.segment (Agent.registry t.agent))
let tx_demotions t = t.tx_demotions
let deopt_invalidations t = t.deopt_invalidations
let ftl_code t fid = t.versions.(fid).ftl

(** Snapshot of the current counters (for steady-state diffs). *)
let snapshot t = Counters.copy t.counters

(** Snapshot that also opens a measurement window: running maxima
    (write-set KB, associativity) restart here, so a later [Counters.diff]
    reports window maxima rather than whole-run maxima. *)
let begin_measurement t = Counters.begin_window t.counters
