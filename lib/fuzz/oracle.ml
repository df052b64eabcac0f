(** The differential oracle.

    First the reference interpreter is checked against [Ast_interp], which
    walks the parsed program instead of running the bytecode compiler's
    output: they must agree on the [result] global, the heap checksum and
    the shared-segment checksum, or the bytecode compiler (or the engine
    running its output) is wrong — the AST axis, the one axis whose
    reference shares no code with the bytecode tiers beyond the lexer,
    the parser and the runtime.

    Then one generated program is executed through every (tier cap,
    architecture, engine) configuration; all of them must observe exactly
    what the reference interpreter observes — the same [result] global and
    the same heap checksum — or the optimizing tiers miscompiled it.  Performance
    counters may differ between (tier, arch) configurations (DESIGN.md §4):
    different code runs.  They may NOT differ between the engine's exact
    ([decoded]) and fused ([threaded]) modes at the same (tier, arch) — the
    modes execute the same compiled code and are required to charge
    bit-identical metrics — so the engine axis additionally compares the
    full canonical counter table across mode pairs.

    Every VM here runs with [verify_lir] and [paranoid] on, so an
    ill-formed graph is reported at the optimization pass that produced it
    rather than as a downstream wrong answer. *)

module Ast = Nomap_jsir.Ast
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Value = Nomap_runtime.Value
module Shape = Nomap_runtime.Shape
module Instance = Nomap_interp.Instance
module Engine = Nomap_machine.Engine
module Counters = Nomap_machine.Counters
module Ast_interp = Nomap_interp.Ast_interp
module Agent = Nomap_shared.Agent
module Segment = Nomap_shared.Segment

type cfg = { tier : Vm.tier_cap; arch : Config.arch; engine : Engine.kind }

(* The engine only runs DFG/FTL-compiled code; below that it is
   meaningless, so names (and the configuration matrix) only carry it for
   the optimizing tiers. *)
let engine_matters c = match c.tier with Vm.Cap_dfg | Vm.Cap_ftl -> true | _ -> false

let cfg_name c =
  if engine_matters c then
    Printf.sprintf "%s/%s/%s" (Vm.cap_name c.tier) (Config.name c.arch) (Engine.name c.engine)
  else Vm.cap_name c.tier ^ "/" ^ Config.name c.arch

(** The reference configuration: the plain bytecode interpreter. *)
let reference = { tier = Vm.Cap_interp; arch = Config.Base; engine = Engine.Decoded }

(** Full differential matrix: Baseline once (the engine and architecture
    only change compiled code; the Interpreter is the reference), then the
    optimizing tiers under both engines — DFG on Base, FTL under every
    architecture the paper evaluates (Base, the NoMap/ROT ladder, RTM). *)
let default_cfgs =
  { tier = Vm.Cap_baseline; arch = Config.Base; engine = Engine.Decoded }
  :: List.concat_map
       (fun engine ->
         { tier = Vm.Cap_dfg; arch = Config.Base; engine }
         :: List.map (fun arch -> { tier = Vm.Cap_ftl; arch; engine }) Config.all)
       Engine.all

(** Close a configuration list under the engine axis: every optimizing-tier
    cfg gains its partner under the other engine, so counter comparison
    across engines stays possible on a narrowed matrix (e.g. during
    shrinking, where re-checks run only the cfgs that diverged). *)
let with_engine_partners cfgs =
  List.sort_uniq compare
    (List.concat_map
       (fun c ->
         if engine_matters c then List.map (fun engine -> { c with engine }) Engine.all
         else [ c ])
       cfgs)

(* ------------------------------------------------------------------ *)
(* Heap checksum — one shared implementation with the execution daemon's
   response checksum (Nomap_vm.Heap_checksum), so they cannot drift. *)

let heap_checksum = Nomap_vm.Heap_checksum.checksum

(* ------------------------------------------------------------------ *)
(* Execution *)

type observation =
  | Outcome of { result : string; heap : string; shared : string; counters : string }
      (** [shared] is the segment checksum: the VM's solo shared segment is
          outside the heap, so segment mutations are invisible to [heap] —
          this is the only witness for Shared/Atomics miscompiles that
          never read their own writes back.  [counters] is the canonical
          full counter table — compared only across engine pairs at the
          same (tier, arch) *)
  | Crash of string  (** exception escaping the VM, including Ill_formed *)

let observation_to_string = function
  | Outcome { result; heap; shared; counters = _ } ->
    Printf.sprintf "result=%s heap=%s shared=%s" result heap shared
  | Crash msg -> "crash: " ^ msg

(* The reference interpreter charges one fuel per bytecode op; optimized
   tiers charge per LIR instruction and re-execute rolled-back regions, so
   they get 4x headroom.  A program over reference fuel is skipped, not
   failed.  The caps are sized ~4x above the heaviest program the generator
   can emit: raising them does not find more bugs, it only makes runaway
   cases (and shrink probes that create them) proportionally slower across
   all configurations. *)
let reference_fuel = 2_000_000
let tiered_fuel = 4 * reference_fuel

(** Fuel multiplier for retrying a fuel-skipped seed (see [Fuzz.run]): big
    enough to admit the tail of heavy-but-terminating programs, small
    enough that a genuinely divergent runaway still skips instead of
    hanging the batch. *)
let skip_retry_boost = 8

let run_cfg ?(fuel_boost = 1) ?ftl_mutate ~src (c : cfg) : observation =
  match
    let prog = Nomap_bytecode.Compile.compile_source src in
    let fuel =
      fuel_boost * (if c = reference then reference_fuel else tiered_fuel)
    in
    let vm =
      match ftl_mutate with
      | None ->
        Vm.create ~fuel ~verify_lir:true ~paranoid:true ~engine:c.engine
          ~config:(Config.create c.arch) ~tier_cap:c.tier prog
      | Some ftl_mutate ->
        Vm.create_with_ftl_mutator ~ftl_mutate ~fuel ~verify_lir:true ~paranoid:true
          ~engine:c.engine ~config:(Config.create c.arch) ~tier_cap:c.tier prog
    in
    ignore (Vm.run_main vm);
    let result =
      match Vm.global vm "result" with Some v -> Value.to_js_string v | None -> "<no result>"
    in
    Outcome
      {
        result;
        heap = heap_checksum (Vm.instance vm);
        shared = Nomap_util.Fnv.to_hex (Vm.shared_checksum vm);
        counters = Counters.to_canonical_string (Vm.counters vm);
      }
  with
  | o -> o
  | exception e -> Crash (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* The AST axis *)

(** [Ast_interp] burns one fuel per AST node evaluated, not per bytecode
    op.  Over seed 42's first 500 cases it used at most 0.97x the fuel the
    reference used on the same program, so the reference's budget runs
    [Ast_interp] through every case the reference completes. *)
let ast_fuel = reference_fuel

(** Run [src] on [Ast_interp] (charges ignored) with a solo shared
    segment installed on its heap, as [Vm.create] does, and observe it as
    the reference is observed: [result] and the heap checksum over
    [globals], the bytecode program's globals.  [None]: out of fuel. *)
let run_ast ?(fuel_boost = 1) ~src (globals : string array) : observation option =
  match
    let ast = Nomap_jsir.Parser.parse_program_exn src in
    let env =
      Ast_interp.create ~fuel:(fuel_boost * ast_fuel) ~flavour:Ast_interp.Php_like
        ~charge:ignore ast
    in
    let agent = Agent.solo () in
    Agent.install agent env.Ast_interp.heap;
    Ast_interp.run_program env ast;
    let value name =
      Option.value ~default:Value.Undef (Hashtbl.find_opt env.Ast_interp.globals name)
    in
    Outcome
      {
        result =
          (if Array.mem "result" globals then Value.to_js_string (value "result")
           else "<no result>");
        heap =
          Nomap_vm.Heap_checksum.of_globals
            (List.map (fun name -> (name, value name)) (Array.to_list globals));
        shared = Nomap_util.Fnv.to_hex (Segment.checksum (Agent.segment (Agent.registry agent)));
        counters = "";
      }
  with
  | o -> Some o
  | exception Instance.Out_of_fuel -> None
  | exception e -> Some (Crash (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* The differential property *)

(** Who diverged: a configuration (from the reference, or from its engine
    partner), or the reference itself from [Ast_interp]. *)
type subject = Cfg of cfg | Ast_axis

type divergence = { subject : subject; expected : observation; got : observation }

type verdict =
  | Agree  (** [Ast_interp] and every configuration matched the reference *)
  | Skip of string
      (** the reference itself failed (e.g. out of fuel), or [Ast_interp]
          ran out of fuel *)
  | Diverge of divergence list  (** the AST axis ran, and something diverged *)

(* Against the reference only result + heap + segment matter: counters
   legitimately differ across tiers and architectures. *)
let agrees_with_reference ~expected ~got =
  match (expected, got) with
  | Outcome e, Outcome g ->
    e.result = g.result && e.heap = g.heap && e.shared = g.shared
  | Crash a, Crash b -> a = b
  | _ -> false

(* Every configuration's divergences from the reference's observation
   [expected], then from its engine partner. *)
let config_divergences ~cfgs ~fuel_boost ?ftl_mutate ~src expected =
  let obs = List.map (fun c -> (c, run_cfg ~fuel_boost ?ftl_mutate ~src c)) cfgs in
  let ref_divs =
    List.filter_map
      (fun (c, got) ->
        if agrees_with_reference ~expected ~got then None
        else Some { subject = Cfg c; expected; got })
      obs
  in
  (* Engine axis: the same (tier, arch) under both engines must agree on
     result, heap AND the full counter table (structural equality on the
     whole observation, canonical counters string included). *)
  let engine_divs =
    List.filter_map
      (fun (c, got) ->
        if c.engine = Engine.Decoded || not (engine_matters c) then None
        else
          match
            List.find_opt
              (fun (c', _) ->
                c'.engine = Engine.Decoded && c'.tier = c.tier && c'.arch = c.arch)
              obs
          with
          | Some (_, (Outcome _ as expected')) when got <> expected' ->
            Some { subject = Cfg c; expected = expected'; got }
          | _ -> None)
      obs
  in
  ref_divs
  @ List.filter
      (fun d -> not (List.exists (fun r -> r.subject = d.subject) ref_divs))
      engine_divs

let check ?(cfgs = default_cfgs) ?(fuel_boost = 1) ?ftl_mutate
    (prog : Ast.program) : verdict =
  let src = Gen.to_source prog in
  match run_cfg ~fuel_boost ~src reference with
  | Crash msg -> Skip msg
  | Outcome _ as expected -> (
    let globals = (Nomap_bytecode.Compile.compile_source src).Nomap_bytecode.Opcode.globals in
    match run_ast ~fuel_boost ~src globals with
    | None -> Skip "Ast_interp: out of fuel"
    | Some ast ->
      let ast_divs =
        if agrees_with_reference ~expected:ast ~got:expected then []
        else [ { subject = Ast_axis; expected = ast; got = expected } ]
      in
      let divs = ast_divs @ config_divergences ~cfgs ~fuel_boost ?ftl_mutate ~src expected in
      if divs = [] then Agree else Diverge divs)

(* ------------------------------------------------------------------ *)
(* The multi-agent axis: determinism, not tier equivalence.

   Scheduler turns are consumed by shared ops at every tier but also by
   transaction commits in FTL, so the interleaving — and therefore the
   legitimate outcome — differs across tiers: cross-tier comparison is
   meaningless for multi-agent runs.  What must hold instead is the replay
   guarantee (DESIGN.md §16): the same (program, agent count, schedule
   seed) is bit-identical, per-agent results, per-agent heap checksums,
   segment image and conflict count included.  Any wall-clock leak into
   the schedule (a shared mutation outside a scheduler turn, a
   termination race) shows up here as a run that doesn't replay. *)

let agents_observation ?(agents = 2) ?(tier = Vm.Cap_ftl) ?(arch = Config.NoMap_RTM)
    ~schedule_seed (src : string) : string =
  match
    let prog = Nomap_bytecode.Compile.compile_source src in
    Nomap_agents.Agents.run
      ~policy:(Nomap_shared.Interleave.Seeded schedule_seed)
      ~fuel:tiered_fuel ~config:(Config.create arch) ~tier_cap:tier
      (Array.make agents prog)
  with
  | r ->
    let per_agent =
      Array.to_list
        (Array.map
           (fun (o : Nomap_agents.Agents.outcome) ->
             let result =
               match o.Nomap_agents.Agents.result with
               | Ok v -> Value.to_js_string v
               | Error e -> "error:" ^ e
             in
             let heap =
               match o.Nomap_agents.Agents.vm with
               | Some vm -> heap_checksum (Vm.instance vm)
               | None -> "<no vm>"
             in
             Printf.sprintf "result=%s heap=%s" result heap)
           r.Nomap_agents.Agents.outcomes)
    in
    Printf.sprintf "%s | segment=%s conflicts=%d"
      (String.concat " ; " per_agent)
      (Nomap_util.Fnv.to_hex r.Nomap_agents.Agents.segment_checksum)
      r.Nomap_agents.Agents.conflicts
  | exception e -> "crash: " ^ Printexc.to_string e

(** Run the program twice on [agents] agents under the same seeded
    schedule; [Some (first, second)] if the replays disagree. *)
let check_agents ?agents ?tier ?arch ~schedule_seed (prog : Ast.program) :
    (string * string) option =
  let src = Gen.to_source prog in
  let a = agents_observation ?agents ?tier ?arch ~schedule_seed src in
  let b = agents_observation ?agents ?tier ?arch ~schedule_seed src in
  if a = b then None else Some (a, b)

let subject_name = function
  | Cfg c -> cfg_name c
  | Ast_axis -> cfg_name reference ^ " vs Ast_interp"

let divergence_to_string d =
  let base =
    Printf.sprintf "  %-24s expected %s\n  %-24s got      %s" (subject_name d.subject)
      (observation_to_string d.expected) "" (observation_to_string d.got)
  in
  (* A counters-only engine divergence prints identically above; show the
     differing canonical tables so the drift is actually visible. *)
  match (d.expected, d.got) with
  | Outcome e, Outcome g
    when e.result = g.result && e.heap = g.heap && e.counters <> g.counters ->
    Printf.sprintf "%s\n  %-24s counters expected %s\n  %-24s counters got      %s" base ""
      e.counters "" g.counters
  | _ -> base
