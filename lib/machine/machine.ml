(** The engine-agnostic substrate of the abstract machine that executes
    LIR — our stand-in for the x86-64 core running DFG/FTL-generated code.

    Execution itself lives in the engines ([Decoded], the reference
    interpreter over pre-decoded LIR, and [Threaded], the closure-threaded
    compiler — see [Engine] for selection).  This module owns everything
    both engines share, which is exactly the simulated-metric contract:
    - counting dynamic instructions, classified NoFTL / NoTM / TMUnopt /
      TMOpt exactly as the paper's Figures 8/9 do (TMOpt = transaction-aware
      code inside its own transaction; TMUnopt = a callee executing inside
      someone else's transaction);
    - counting executed checks by kind (Figure 3);
    - charging the cycle model (Figures 10/11);
    - executing transactional semantics: Tx_begin checkpoints the live
      registers (like XBegin), speculative writes are journaled via the heap
      hooks, and an abort rolls the heap back and resumes the Baseline tier
      at the region entry — the control flow of paper Figure 5(b);
    - performing OSR exits: a failing Deopt check materializes its stack map
      into a Baseline frame and the rest of the function runs there.

    Whatever the engine, the machine executes the pre-decoded form of each
    compiled function ([Nomap_lir.Decode]): per-block instruction arrays
    instead of id lists, phi inputs resolved to per-edge copy tables, call
    arguments as arrays, and per-instruction costs precomputed — none of
    which changes any simulated metric (guarded by the counter-determinism
    test, and by the fuzzer's engine axis across decoded × threaded). *)

module Value = Nomap_runtime.Value
module Heap = Nomap_runtime.Heap
module Ops = Nomap_runtime.Ops
module Intrinsics = Nomap_runtime.Intrinsics
module Ic = Nomap_runtime.Ic
module Instance = Nomap_interp.Instance
module L = Nomap_lir.Lir
module D = Nomap_lir.Decode
module Htm = Nomap_htm.Htm
module Agent = Nomap_shared.Agent
module Footprint = Nomap_cache.Footprint
module Specialize = Nomap_tiers.Specialize
module Hot = Nomap_util.Hot

type tier = Dfg | Ftl

exception Deopt_exit of int * (int * Value.t) list  (** resume pc, register values *)

type env = {
  instance : Instance.t;
  counters : Counters.t;
  htm_mode : Htm.mode;  (** hardware a Tx_begin targets *)
  sof_enabled : bool;  (** Sticky Overflow Flag hardware present *)
  capacity_scale : int;  (** HTM capacity scaling (matches workload scaling) *)
  tx_watchdog : int;  (** max LIR instrs per transaction before forced abort *)
  host_ic : bool;
      (** enable per-site host inline caches (host memoization only — no
          simulated counter depends on this; the fuzzer's ic axis checks) *)
  stm_fallback : bool;
      (** hybrid RTM+STM: a capacity overflow upgrades the transaction to a
          modeled software transaction instead of aborting (DESIGN.md §15) *)
  stm_factor : float;  (** STM per-access slowdown factor (Config.stm_factor) *)
  call : fid:int -> this:Value.t -> args:Value.t list -> Value.t;
  deopt_resume : fid:int -> resume_pc:int -> values:(int * Value.t) list -> Value.t;
  mutable tx : Htm.tx option;
  mutable shared_agent : Agent.t option;
      (** this VM's agent on a shared segment; transactions publish their
          segment footprints through it so remote agents can conflict
          (DESIGN.md §16).  Set by the VM right after [create_env]. *)
  mutable ghost_depth : int;  (** Base config: zero-cost region markers *)
  mutable ghost_owner : int;
  mutable next_frame : int;
  mutable on_abort : fid:int -> Htm.abort_reason -> unit;
      (** VM adaptation hook: capacity aborts shrink/remove transactions *)
}

let create_env ~instance ~counters ~htm_mode ~sof_enabled ?(capacity_scale = 1)
    ?(tx_watchdog = 30_000_000) ?(host_ic = true) ?(stm_fallback = false)
    ?(stm_factor = 4.0) ~call ~deopt_resume () =
  {
    instance;
    counters;
    htm_mode;
    sof_enabled;
    capacity_scale;
    tx_watchdog;
    host_ic;
    stm_fallback;
    stm_factor;
    call;
    deopt_resume;
    tx = None;
    shared_agent = None;
    ghost_depth = 0;
    ghost_owner = -1;
    next_frame = 0;
    on_abort = (fun ~fid:_ _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* The per-instruction protocol.  Both engines run these once or more per
   executed LIR instruction, so each helper here and in its home module
   ([Value.int_]/[bool_]/[number], [Hot.get]/[set]/[fget],
   [Instance.burn], [Counters.bump_check]/[bump_instrs]/[add_cycles]) is
   [@inline]: without -opaque (the default release build) every call site
   compiles to direct loads and stores, and float arguments stay unboxed. *)

(* [match] rather than [<> None]: the generic structural compare is a C
   call. *)
let[@inline] in_region env =
  match env.tx with Some _ -> true | None -> env.ghost_depth > 0

let[@inline] tx_tick env =
  match env.tx with
  | Some tx ->
    tx.Htm.instr_count <- tx.Htm.instr_count + 1;
    if tx.Htm.instr_count > env.tx_watchdog then raise (Htm.Abort Htm.Watchdog)
  | None -> ()

(* [Counters] array indices, resolved once so a charge or an executed
   check is one array bump; taken from [Counters] so the mapping cannot
   drift. *)
let ix_no_ftl = Counters.category_index Counters.No_ftl
let ix_no_tm = Counters.category_index Counters.No_tm
let ix_tm_opt = Counters.category_index Counters.Tm_opt
let ix_tm_unopt = Counters.category_index Counters.Tm_unopt
let ci_bounds = Counters.check_index L.Bounds
let ci_overflow = Counters.check_index L.Overflow
let ci_type = Counters.check_index L.Type
let ci_property = Counters.check_index L.Property
let ci_hole = Counters.check_index L.Hole
let ci_path = Counters.check_index L.Path

(** The category index of an instruction executed by [frame]: TMOpt inside
    the frame's own region, TMUnopt inside someone else's, else NoTM. *)
let[@inline] category_ix env frame =
  match env.tx with
  | Some tx -> if frame = tx.Htm.owner_frame then ix_tm_opt else ix_tm_unopt
  | None ->
    if env.ghost_depth > 0 then
      if frame = env.ghost_owner then ix_tm_opt else ix_tm_unopt
    else ix_no_tm

(** Charge [n] instructions of category index [ix] costing [cycles]. *)
let[@inline] charge_ix env ix n cycles =
  Counters.bump_instrs env.counters ix n;
  Counters.add_cycles env.counters ~in_tx:(in_region env) cycles

(** Charge [n] compiled-code instructions at the tier's [cpi]. *)
let[@inline] charge env ~frame ~cpi n =
  if n > 0 then charge_ix env (category_ix env frame) n (float_of_int n *. cpi)

(** Charge [n] NoFTL runtime-helper instructions. *)
let[@inline] charge_runtime env n =
  if n > 0 then charge_ix env ix_no_ftl n (float_of_int n *. Timing.cpi_runtime)

let wrap_int32 = Ops.wrap_int32

(* Inlined, the common Int/Num cases feed a local int/float context
   unboxed instead of boxing a float return per call. *)
let[@inline] as_int = function Value.Int i -> i | v -> Value.to_int32 v

let[@inline] as_num = function
  | Value.Int i -> float_of_int i
  | Value.Num f -> f
  | v -> Value.to_number v

(** The engine-independent half of an int32 overflow (arithmetic or
    [Ineg]): sets the transaction's SOF and materializes the wrapped value.
    The engine also marks the result's overflow flag for its
    [Check_overflow]. *)
let overflow_value env raw =
  (match env.tx with Some tx when env.sof_enabled -> tx.Htm.sof <- true | _ -> ());
  Value.int_ (wrap_int32 raw)

(** An int32 arithmetic result; an overflow marks [id] for its
    [Check_overflow] and goes through [overflow_value]. *)
let[@inline] int_result env (overflowed : bool array) id raw =
  if Value.fits_int32 raw then Value.int_ raw
  else begin
    Hot.set overflowed id true;
    overflow_value env raw
  end

(** RTM transactional reads are ~20% slower (paper §VI-B).  The HTM load
    hook counts every in-transaction read in [tx.reads]; the penalty is
    charged in one multiply when the transaction finishes (commit or abort)
    — cycle-identical to per-read charging, but the hot hook stays a bare
    increment. *)
let charge_rtm_reads env (tx : Htm.tx) =
  if tx.Htm.mode = Htm.Rtm && tx.Htm.reads > 0 then
    Counters.add_cycles env.counters ~in_tx:true
      (float_of_int tx.Htm.reads *. Timing.rtm_read_penalty)

(** Overhead of a hybrid transaction that fell back to the modeled software
    transaction (DESIGN.md §15), computed in ONE fixed-order accumulation at
    the transaction's single finish point (the outermost [Tx_end], or
    [handle_abort]).  Charging here instead of inside the heap hooks keeps
    the floating-point accumulation order independent of how an engine
    interleaves its instruction charges (decoded charges per instruction,
    threaded batches per segment), which the bit-exact cross-engine counter
    contract requires.  The terms, in order:
    - the hardware abort that triggered the fallback, plus the RTM read
      latency the doomed prefix had already paid;
    - STM setup (descriptor + log allocation);
    - the prefix re-executed under STM at full instrumented access cost
      ([stm_factor] × the base access cost);
    - the suffix's instrumentation overhead — those accesses already paid
      the plain access cost via the engine's normal charging, so the STM
      adds ([stm_factor] − 1) × base on top;
    - commit write-back/validation (commit only).
    Fixed per-tx costs scale with [capacity_scale] like XBegin/XEnd do. *)
let stm_overhead_cycles env (tx : Htm.tx) ~committed =
  let scale = float_of_int env.capacity_scale in
  let pr = float_of_int tx.Htm.stm_prefix_reads
  and pw = float_of_int tx.Htm.stm_prefix_writes in
  let ar = float_of_int tx.Htm.reads and aw = float_of_int tx.Htm.writes in
  Timing.abort_cycles
  +. (pr *. Timing.rtm_read_penalty)
  +. (Timing.stm_begin_cycles /. scale)
  +. ((pr +. pw) *. env.stm_factor *. Timing.stm_access_cycles)
  +. (((ar -. pr) +. (aw -. pw)) *. (env.stm_factor -. 1.0) *. Timing.stm_access_cycles)
  +. (if committed then Timing.stm_commit_cycles /. scale else 0.0)

(** Commit-time (or abort-time) bookkeeping for a fallen-back transaction:
    the averted capacity abort was already recorded (reason + [tx_aborts])
    by the fallback callback at the overflow point. *)
let charge_stm_finish env (tx : Htm.tx) ~committed =
  let c = env.counters in
  if committed then c.Counters.stm_commits <- c.Counters.stm_commits + 1
  else c.Counters.stm_aborts <- c.Counters.stm_aborts + 1;
  c.Counters.stm_reads <- c.Counters.stm_reads + tx.Htm.reads;
  c.Counters.stm_writes <- c.Counters.stm_writes + tx.Htm.writes;
  let over = stm_overhead_cycles env tx ~committed in
  (* An aborted software transaction's overhead lands outside tx time, like
     the hardware abort penalty does. *)
  Counters.add_cycles c ~in_tx:committed over;
  c.Counters.f.Counters.stm_cycles <- c.Counters.f.Counters.stm_cycles +. over

(* ------------------------------------------------------------------ *)
(* Cost tables (simulated machine instructions per LIR instruction). *)

let base_cost = function
  | L.Nop | L.Phi _ | L.Param _ | L.Const _ -> 0
  | L.Iadd _ | L.Isub _ | L.Imul _ | L.Ineg _ | L.Iadd_wrap _ | L.Isub_wrap _ -> 1
  | L.Fadd _ | L.Fsub _ | L.Fmul _ | L.Fneg _ -> 1
  | L.Fdiv _ -> 4
  | L.Fmod _ -> 8
  | L.Band _ | L.Bor _ | L.Bxor _ | L.Bnot _ | L.Shl _ | L.Shr _ | L.Ushr _ -> 1
  | L.Cmp _ | L.Not _ -> 1
  | L.Load_slot _ | L.Load_elem _ | L.Load_char_code _ -> 3
  | L.Store_slot _ | L.Store_elem _ -> 3
  | L.Store_transition _ -> 5  (* slot store + shape-word update *)
  | L.Load_length _ | L.Str_length _ -> 2
  | L.Load_global _ | L.Store_global _ -> 2
  | L.Check_shape _ | L.Check_bounds _ | L.Check_str_bounds _ | L.Check_not_hole _ -> 3
  | L.Check_int _ | L.Check_number _ | L.Check_string _ | L.Check_array _
  | L.Check_fun_eq _ | L.Check_overflow _ | L.Check_cond _ -> 2
  | L.Call_func _ | L.Call_method _ -> 6
  | L.Ctor_call _ -> 22
  | L.Alloc_object | L.Alloc_array _ -> 15
  | L.Intrinsic _ -> 0 (* charged separately *)
  | L.Call_runtime _ -> 2 (* the call itself; body charged as runtime *)
  | L.Tx_begin _ | L.Tx_end -> 1

(** (FTL instructions, NoFTL runtime instructions) for a math intrinsic:
    cheap ones are inlined by the backend; transcendentals call libm. *)
let intrinsic_cost = function
  | Intrinsics.Math_sqrt -> (3, 0)
  | Intrinsics.Math_abs | Intrinsics.Math_floor | Intrinsics.Math_ceil
  | Intrinsics.Math_round | Intrinsics.Math_min | Intrinsics.Math_max -> (2, 0)
  | Intrinsics.Global_is_nan -> (2, 0)
  | Intrinsics.Math_random -> (1, 12)
  | _ -> (1, 40)

(* ------------------------------------------------------------------ *)

(* Robust coercions: after NoMap removes checks inside a doomed transaction,
   garbage values may flow; hardware would compute garbage and abort later,
   so we coerce benignly instead of crashing the simulator. *)
let as_arr = function Value.Arr a -> Some a | _ -> None
let as_obj = function Value.Obj o -> Some o | _ -> None

(* ------------------------------------------------------------------ *)
(* Hot-path helpers, hoisted to the top level so executing a function
   allocates no closures per instruction (they used to be rebuilt on every
   call).  All take the per-activation state they touch explicitly. *)

let materialize (values : Value.t array) live =
  List.map (fun (r, v) -> (r, Hot.get values v)) live

(* A failing check: Deopt outside any real transaction OSR-exits; inside a
   transaction any failure is an abort (Deopt there is irrevocable).  An
   Abort exit with no live transaction is only possible if a pass
   mis-converted; treat it as a plain deopt to stay safe. *)
let check_fail env (values : Value.t array) (e : L.exit) kind =
  match env.tx with
  | Some _ -> raise (Htm.Abort (Htm.Check_failed kind))
  | None -> raise (Deopt_exit (e.L.smp.L.resume_pc, materialize values e.L.smp.L.live))

(** Build a call's argument list from pre-resolved value ids. *)
let arg_values (values : Value.t array) (ids : int array) =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (Hot.get values (Hot.get ids i) :: acc)
  in
  go (Array.length ids - 1) []

(** Known-arity intrinsic evaluation: skips building the argument list for
    the 0/1/2-arg calls that dominate ([Intrinsics.eval0/1/2] replicate
    [eval] exactly). *)
let eval_intrinsic heap intr (recv : Value.t) (ids : int array) (values : Value.t array) =
  try
    match Array.length ids with
    | 0 -> Intrinsics.eval0 heap intr recv
    | 1 -> Intrinsics.eval1 heap intr recv (Hot.get values (Hot.get ids 0))
    | 2 ->
      Intrinsics.eval2 heap intr recv
        (Hot.get values (Hot.get ids 0))
        (Hot.get values (Hot.get ids 1))
    | _ -> Intrinsics.eval heap intr recv (arg_values values ids)
  with Intrinsics.Type_error m -> raise (Nomap_interp.Interp.Runtime_error m)

(** A site's host inline cache, or [None] (the generic helpers) when the
    VM runs with host ICs off.  The probes and their rules live in
    [Nomap_runtime.Ic] (DESIGN.md §14). *)
let[@inline] site_ic env (ic : Ic.t option) = if env.host_ic then ic else None

(** Generic runtime calls (the NoFTL slow paths).  Each branch charges its
    runtime cost (same table as always: binop 30, unop 16, get_prop 35,
    set_prop 40, get_elem 30, set_elem 34, get_length 16, method 44,
    intrinsic 6 + static + dynamic) before executing, then reads its
    operands straight out of the value array — no [List.nth].  [ic] is the
    call site's host inline cache (property/method sites only); it changes
    no hook sequence and no charge. *)
let exec_runtime env ~(ic : Ic.t option) rt (recv : Value.t)
    (ids : int array) (values : Value.t array) : Value.t =
  let heap = env.instance.Instance.heap in
  let ic = site_ic env ic in
  let arg i = Hot.get values (Hot.get ids i) in
  match rt with
  | L.Rt_binop op ->
    charge_runtime env 30;
    Ops.apply_binop heap op (arg 0) (arg 1)
  | L.Rt_unop op ->
    charge_runtime env 16;
    Ops.apply_unop op (arg 0)
  | L.Rt_get_prop name -> (
    charge_runtime env 35;
    match as_obj recv with
    | Some o -> Ic.get_prop heap ic o name
    | None -> Value.Undef)
  | L.Rt_set_prop name -> (
    charge_runtime env 40;
    match as_obj recv with
    | Some o ->
      Ic.set_prop heap ic o name (arg 0);
      Value.Undef
    | None -> raise (Nomap_interp.Interp.Runtime_error "set property on non-object"))
  | L.Rt_get_elem -> (
    charge_runtime env 30;
    let vi = arg 0 in
    match (recv, vi) with
    | Value.Arr arr, Value.Int idx -> Heap.get_elem heap arr idx
    | Value.Arr arr, _ ->
      let idx = Value.to_int32 vi in
      if float_of_int idx = Value.to_number vi then Heap.get_elem heap arr idx
      else Value.Undef
    | Value.Str s, Value.Int idx ->
      let data = s.Value.sdata in
      if idx >= 0 && idx < String.length data then Heap.str heap (String.make 1 data.[idx])
      else Value.Undef
    | v, _ ->
      raise (Nomap_interp.Interp.Runtime_error ("cannot index " ^ Value.type_name v)))
  | L.Rt_set_elem -> (
    charge_runtime env 34;
    let vi = arg 0 and vx = arg 1 in
    match recv with
    | Value.Arr arr ->
      let idx = as_int vi in
      if float_of_int idx = Value.to_number vi then Heap.set_elem heap arr idx vx;
      Value.Undef
    | v -> raise (Nomap_interp.Interp.Runtime_error ("cannot index-assign " ^ Value.type_name v)))
  | L.Rt_get_length -> (
    charge_runtime env 16;
    match Ops.js_length recv with
    | Some v -> v
    | None -> (
      match as_obj recv with
      | Some o -> Ic.get_prop heap ic o "length"
      | None ->
        raise (Nomap_interp.Interp.Runtime_error ("no length on " ^ Value.type_name recv))))
  | L.Rt_method name -> (
    charge_runtime env 44;
    match Ic.method_of ic recv name with
    | Some intr -> eval_intrinsic heap intr recv ids values
    | None -> (
      match as_obj recv with
      | Some o ->
        (* NB: like the generic path, no shape-word load here — method
           dispatch reads only the slot. *)
        let slot = Ic.find_slot heap ic o name in
        if slot >= 0 then
          match Heap.load_slot heap o slot with
          | Value.Fun fid -> env.call ~fid ~this:recv ~args:(arg_values values ids)
          | v ->
            raise
              (Nomap_interp.Interp.Runtime_error
                 (Printf.sprintf "%s is not a function (%s)" name (Value.type_name v)))
        else raise (Nomap_interp.Interp.Runtime_error ("no method " ^ name))
      | None ->
        raise
          (Nomap_interp.Interp.Runtime_error
             (Printf.sprintf "no method %s on %s" name (Value.type_name recv)))))
  | L.Rt_intrinsic intr ->
    charge_runtime env
      (6 + Intrinsics.cost intr
      + Intrinsics.dynamic_cost_argc intr recv ~argc:(Array.length ids));
    eval_intrinsic heap intr recv ids values

(** The pre-decoded form of [c], built on first execution — after every
    transform/optimizer pass has run — and cached on the compiled record. *)
let decoded (c : Specialize.compiled) =
  match c.Specialize.decoded with
  | Some d -> d
  | None ->
    let d = D.decode ~cost:base_cost c.Specialize.lir in
    c.Specialize.decoded <- Some d;
    d


(* ------------------------------------------------------------------ *)
(* Shared engine protocol.  Per-call bookkeeping, the transaction region
   markers and the exit handling are part of the simulated-metric contract,
   so they live here and every engine calls in — an engine only decides
   *how* to dispatch the instructions in between. *)

let cpi_of = function Dfg -> Timing.cpi_dfg | Ftl -> Timing.cpi_ftl

(** Count the call against its tier and allocate a fresh frame id. *)
let enter_call env ~tier =
  (match tier with
  | Ftl -> env.counters.Counters.ftl_calls <- env.counters.Counters.ftl_calls + 1
  | Dfg -> env.counters.Counters.dfg_calls <- env.counters.Counters.dfg_calls + 1);
  let frame = env.next_frame in
  env.next_frame <- env.next_frame + 1;
  frame

(** The [Tx_begin] semantics (cost/tick already charged by the engine). *)
let exec_tx_begin env (values : Value.t array) ~frame (smp : L.smp) =
  match env.htm_mode with
  | Htm.Ghost ->
    if env.ghost_depth = 0 then env.ghost_owner <- frame;
    env.ghost_depth <- env.ghost_depth + 1
  | (Htm.Rot | Htm.Rtm | Htm.Stm) as mode -> (
    match env.tx with
    | Some tx -> tx.Htm.nesting <- tx.Htm.nesting + 1
    | None ->
      let snapshot = materialize values smp.L.live in
      let stm_fallback =
        (* The fallback callback does integer bookkeeping only (the averted
           abort's reason and count); every cycle charge waits for the
           transaction's finish point — see [stm_overhead_cycles].  The
           agent also flips to software mode: hardware conflict detection is
           gone, so NOrec value validation must take over at commit. *)
        if env.stm_fallback then
          Some
            (fun reason ->
              Counters.record_abort env.counters reason;
              match env.shared_agent with
              | Some ag -> Agent.to_stm ag
              | None -> ())
        else None
      in
      env.tx <-
        Some
          (Htm.begin_tx ~capacity_scale:env.capacity_scale ?stm_fallback
             env.instance.Instance.heap ~mode ~snapshot
             ~resume_pc:smp.L.resume_pc ~owner_frame:frame);
      (match env.shared_agent with
      | Some ag -> Agent.tx_begin ag ~mode
      | None -> ());
      (* Transaction lengths scale with the workloads; scale the
         fixed begin/end costs equally so the overhead-to-work
         ratio stays in the paper's regime (DESIGN.md §6). *)
      Counters.add_cycles env.counters ~in_tx:true
        (Timing.xbegin_cycles /. float_of_int env.capacity_scale))

(** The [Tx_end] semantics (cost/tick already charged by the engine). *)
let exec_tx_end env =
  match env.htm_mode with
  | Htm.Ghost ->
    env.ghost_depth <- max 0 (env.ghost_depth - 1);
    if env.ghost_depth = 0 then env.ghost_owner <- -1
  | Htm.Rot | Htm.Rtm | Htm.Stm -> (
    match env.tx with
    | None -> ()  (* abort already tore the transaction down *)
    | Some tx ->
      tx.Htm.nesting <- tx.Htm.nesting - 1;
      if tx.Htm.nesting = 0 then begin
        if env.sof_enabled && tx.Htm.sof then raise (Htm.Abort Htm.Sof_overflow);
        (* Cross-agent commit point: flush the segment redo buffer, or
           raise [Conflict] (doomed hardware footprint / failed NOrec
           validation) before any commit accounting runs — the abort
           ladder then charges this as an abort, not a commit. *)
        (match env.shared_agent with
        | Some ag -> Agent.tx_commit ag
        | None -> ());
        (match tx.Htm.mode with
        | Htm.Stm ->
          (* Fell back mid-flight: the whole region commits in software.
             No RTM read penalty and no XEnd drain — the hardware attempt
             was wasted and is charged (with the STM costs) here. *)
          charge_stm_finish env tx ~committed:true
        | _ ->
          charge_rtm_reads env tx;
          Counters.add_cycles env.counters ~in_tx:true
            ((match tx.Htm.mode with
             | Htm.Rtm -> Timing.xend_rtm_cycles
             | _ -> Timing.xend_rot_cycles)
            /. float_of_int env.capacity_scale));
        Counters.record_commit env.counters
          ~write_kb:(Footprint.kb tx.Htm.write_fp)
          ~assoc:(Footprint.max_ways tx.Htm.write_fp);
        Htm.commit tx;
        env.tx <- None
      end)

let handle_abort env ~fid reason (tx : Htm.tx) =
  (* Reads performed before the abort still cost RTM read-latency. *)
  charge_rtm_reads env tx;
  (* A fallen-back transaction can still abort (failed in-tx check,
     watchdog): the work done in software mode is charged before the
     rollback, minus the commit-validation term. *)
  if tx.Htm.mode = Htm.Stm then charge_stm_finish env tx ~committed:false;
  Htm.rollback tx;
  (match env.shared_agent with Some ag -> Agent.tx_abort ag | None -> ());
  env.tx <- None;
  Counters.record_abort env.counters reason;
  Counters.add_cycles env.counters ~in_tx:false Timing.abort_cycles;
  env.on_abort ~fid reason;
  env.deopt_resume ~fid ~resume_pc:tx.Htm.resume_pc ~values:tx.Htm.snapshot

(** Run an engine's function body under the shared exit protocol: a
    [Deopt_exit] OSR-exits to Baseline; an [Htm.Abort] owned by this frame
    rolls the transaction back and resumes at the region entry; anyone
    else's abort keeps unwinding to its owner. *)
let run_with_exits env ~fid ~frame run =
  try run () with
  | Deopt_exit (resume_pc, vals) ->
    env.counters.Counters.deopts <- env.counters.Counters.deopts + 1;
    Counters.add_cycles env.counters ~in_tx:(in_region env) Timing.deopt_cycles;
    env.deopt_resume ~fid ~resume_pc ~values:vals
  | Htm.Abort reason -> (
    match env.tx with
    | Some tx when tx.Htm.owner_frame = frame -> handle_abort env ~fid reason tx
    | _ -> raise (Htm.Abort reason))
