(** The virtual machine: the tier controller wiring everything together
    (see vm.ml for the tiering/adaptation story).

    This interface is the VM's public surface — it is what the execution
    daemon ([Nomap_server]) exposes to untrusted concurrent clients, so it
    deliberately hides the machinery that must not be reachable from a
    request: the miscompile-injection hook ([create_with_ftl_mutator] is a
    separate, fuzzer-only constructor; plain [create] cannot inject
    mutations), the per-function version table, and the machine
    environment.  A [t] owns its instance (heap, globals, fuel), profile,
    and counters outright: two VMs never share mutable state, which is the
    isolation argument for running concurrent sessions on parallel domains
    against [Opcode.program] values shared read-only. *)

type tier_cap = Cap_interp | Cap_baseline | Cap_dfg | Cap_ftl

val cap_name : tier_cap -> string

type thresholds = { baseline_at : int; dfg_at : int; ftl_at : int }

val default_thresholds : thresholds

type t

val create :
  ?seed:int ->
  ?fuel:int ->
  ?thresholds:thresholds ->
  ?verify_lir:bool ->
  ?paranoid:bool ->
  ?opt_knobs:Nomap_opt.Pipeline.knobs ->
  ?engine:Nomap_machine.Engine.kind ->
  ?shared:Nomap_shared.Agent.t ->
  config:Nomap_nomap.Config.t ->
  tier_cap:tier_cap ->
  Nomap_bytecode.Opcode.program ->
  t
(** Build a VM over a compiled program.  [fuel] bounds total interpreter
    ops / LIR instructions executed ([Instance.Out_of_fuel] past it) —
    the daemon's defence against runaway requests.  [engine] selects the
    mode DFG/FTL-compiled code runs in (default [Engine.Threaded], the
    fused mode; [Engine.Decoded] is the exact reference mode); both modes
    are metric-identical, so the choice only affects wall-clock speed.  [shared] binds the VM to an agent on a
    communal shared segment (multi-agent runtime, DESIGN.md §16); by
    default the VM gets a private solo agent so [Shared]/[Atomics] still
    work, tier-invariantly, in single-agent runs. *)

val create_with_ftl_mutator :
  ftl_mutate:(Nomap_lir.Lir.func -> unit) ->
  ?seed:int ->
  ?fuel:int ->
  ?thresholds:thresholds ->
  ?verify_lir:bool ->
  ?paranoid:bool ->
  ?opt_knobs:Nomap_opt.Pipeline.knobs ->
  ?engine:Nomap_machine.Engine.kind ->
  ?shared:Nomap_shared.Agent.t ->
  config:Nomap_nomap.Config.t ->
  tier_cap:tier_cap ->
  Nomap_bytecode.Opcode.program ->
  t
(** [create] plus a post-pipeline hook run on every FTL compile.  The
    differential fuzzer injects deliberate miscompiles here to prove its
    oracle catches and shrinks them.  Testing-only: nothing in the serving
    path calls this, so daemon requests cannot reach the hook. *)

val run_main : t -> Nomap_runtime.Value.t
(** Run the program's top level. *)

val call_function : t -> string -> Nomap_runtime.Value.t list -> Nomap_runtime.Value.t
(** Call a named global function (the benchmark entry point).
    @raise Invalid_argument if no function has that name. *)

val global : t -> string -> Nomap_runtime.Value.t option

val instance : t -> Nomap_interp.Instance.t
val counters : t -> Nomap_machine.Counters.t

val engine : t -> Nomap_machine.Engine.kind
(** The engine mode this VM was created with. *)

val agent : t -> Nomap_shared.Agent.t
(** The VM's shared-segment agent (solo unless [create ~shared] bound it
    to a communal registry). *)

val shared_checksum : t -> int64
(** Checksum of the VM's shared segment (fuzz-oracle observation). *)

val tx_demotions : t -> int
(** Capacity-abort-driven transaction-placement demotions so far. *)

val deopt_invalidations : t -> int
(** Optimized-code invalidations forced by repeated deopts. *)

val ftl_code : t -> int -> Nomap_tiers.Specialize.compiled option
(** FTL-compiled code for function [fid], if it tiered up ([--dump-ftl]). *)

val snapshot : t -> Nomap_machine.Counters.t
(** Snapshot of the current counters (for steady-state diffs). *)

val begin_measurement : t -> Nomap_machine.Counters.t
(** Snapshot that also opens a measurement window: running maxima
    (write-set KB, associativity) restart here, so a later [Counters.diff]
    reports window maxima rather than whole-run maxima. *)
