(** The LIR execution engine.

    Compiles each pre-decoded block body once into a chain of OCaml
    closures — each closure executes its instruction, charges its
    pre-computed cost/tick/counter updates, and tail-calls the next — so
    the per-instruction [match] over [Lir.kind] (the decode-interpret
    dispatch tax) is paid once at compile time instead of on every
    execution.

    {b The reference protocol.}  Every instruction's accounting is defined
    by the [solo] closure, which charges one instruction at a time:

    - free instructions (ghost-mode tx markers, NoMap_BC-elided checks)
      burn fuel but neither tick the transaction watchdog nor charge
      instructions/cycles — yet their semantics (including guard failure)
      still execute;
    - everything else burns, ticks, then charges its pre-computed cost at
      the tier's CPI *before* its semantics run;
    - each block terminator charges one instruction, also before it runs.

    {b Exact mode} ([~exact:true], [Engine.Decoded]) builds every body from
    [solo] closures only and stages every phi edge through
    [Decode.scratch].  It is the reference the fused mode is checked
    against: the fuzzer's engine axis and the engine-equivalence tests
    require bit-identical counters from the two.

    {b Fused mode} (the default, [Engine.Threaded]) runs a peephole
    selector over the decoded stream that fuses maximal
    call/tx-marker-free straight-line runs into *deferred-accounting
    segments* — the superinstructions:

    - One [burn] of the whole segment's fuel and one batched watchdog-tick
      add up front (with an all-[solo] fallback chain when the batched tick
      could cross the transaction watchdog, so a watchdog abort still fires
      at the precise instruction it would have in exact mode).
    - The semantics then run back to back as a chain of closures.
    - The segment's [bump_instrs]/[add_cycles] charges are applied once at
      the end: a single [bump_instrs] of the summed cost (integer adds
      commute exactly) and the per-instruction cycle deltas accumulated in
      original program order, in registers, by [Counters.add_cycle_run]
      (the FP additions into [cycles] are the same operations on the same
      values in the same order, so the result is bit-identical).  Category
      and in-region flag are invariant across the segment — it contains no
      calls and no tx markers — so computing them once is exact.
    - Deferral is safe because no instruction inside a segment *observes*
      the counters; the only way the reordering could show is if the
      segment ends early.  Instructions that can raise or abort (checks →
      deopt; heap-hook touchers → capacity aborts; allocs) therefore
      record how many instructions' accounting is due ([st.due]) before
      their semantics run, and the segment's exception guard reconciles
      exactly that prefix — restoring exact mode's counter state — before
      re-raising.  Pure instructions ([Decode.pure]) cannot raise and skip
      the bookkeeping entirely.  (The transaction's [instr_count] may be
      over-advanced when an abort tears the transaction down mid-segment;
      [handle_abort] never reads it and the transaction object dies, so it
      is unobservable.)
    - *elided runs* are the degenerate segment with zero tick and zero
      cost: the closure only burns fuel (semantics still guard).
    - *check+consumer pairs*: [Check_bounds]+[Load_elem]/[Store_elem] and
      [Check_str_bounds]+[Load_char_code] whose consumer indexes through
      the check's result additionally fuse into one closure that keeps
      the array/index in locals instead of re-reading and re-matching
      them; [st.due] advances across both halves, so the reconciled
      charges and the abort points are unchanged.
    - phi edges whose in-order copy is already exact ([Decode.staged]
      false) copy pair by pair instead of staging.

    Batched fuel: a segment burns its fuel up front, so a program that
    runs out of fuel mid-segment dies a few instructions earlier than in
    exact mode.  [Out_of_fuel] is a crash, not an observation — the oracle
    compares crash identity, and both modes raise the same exception — so
    this is crash-equivalent.

    Calls, intrinsics, runtime calls and tx markers (which change the
    category/in-region state or re-enter the VM) stay [solo] closures in
    both modes, with the free / zero-cost / charged decision resolved once
    and the CPI multiplication pre-computed ([float_of_int cost *. cpi] at
    compile time is the same IEEE operation as at run time).

    The compiled chain is cached on [Specialize.compiled] via the
    extensible [Specialize.artifact] slot; adaptation discarding a version
    ([ftl <- None]) discards the chain with it.  Closures capture the
    [Machine.env] they were compiled against — compiled records are
    per-VM, so this never crosses VMs (or domains). *)

module Value = Nomap_runtime.Value
module Heap = Nomap_runtime.Heap
module Ops = Nomap_runtime.Ops
module Shape = Nomap_runtime.Shape
module Intrinsics = Nomap_runtime.Intrinsics
module Instance = Nomap_interp.Instance
module L = Nomap_lir.Lir
module D = Nomap_lir.Decode
module Htm = Nomap_htm.Htm
module Specialize = Nomap_tiers.Specialize
module Hot = Nomap_util.Hot
open Machine
open Hot (* get/set: the audited unchecked register-file accessors *)

(** Per-activation state threaded through every closure.  [next_block] is
    the driver's program counter; -1 means the function returned.  Each
    activation allocates its own state, so it lives in the minor heap and
    register stores take the write barrier's young fast path. *)
type state = {
  values : Value.t array;
  mutable overflowed : bool array;
      (** per-value overflow flags, allocated on the activation's first
          overflow; empty means "no value overflowed" *)
  this : Value.t;
  argv : Value.t array;
  nargs : int;
  frame : int;
  mutable prev_block : int;
  mutable next_block : int;
  mutable result : Value.t;
  mutable due : int;
      (** deferred-accounting progress within the executing segment: number
          of leading segment instructions whose instr/cycle charges must be
          reconciled if the segment raises (see the module doc) *)
}

type code = state -> unit

type tfunc = {
  t_entry : int;
  t_blocks : code array;  (** per-block entry closure (phis + body + term) *)
  t_nvalues : int;
  t_tier : tier;
  t_exact : bool;  (** compiled in exact mode *)
}

type Specialize.artifact += Threaded_code of tfunc

(* Most activations never overflow, so the flags cost nothing until the
   first overflow allocates them. *)
let mark_overflow st id =
  if Array.length st.overflowed = 0 then
    st.overflowed <- Array.make (Array.length st.values) false;
  set st.overflowed id true

let[@inline never] overflow_result env st id raw =
  mark_overflow st id;
  overflow_value env raw

(** An int32 arithmetic result; an overflow marks [id] for its
    [Check_overflow] and goes through [Machine.overflow_value]. *)
let[@inline] frame_int_result env st id raw =
  if Value.fits_int32 raw then Value.int_ raw else overflow_result env st id raw

let compile_func env ~tier ~exact (d : D.t) : tfunc =
  let cpi = cpi_of tier in
  let inst = env.instance in
  let heap = inst.Instance.heap in
  let cnt = env.counters in
  (* The semantics of one instruction, continuation-passing into [next].
     No accounting here — the caller bakes the charging protocol around
     it. *)
  let sem_only (di : D.dinstr) (next : code) : code =
    let v = di.D.id in
    let el = di.D.elided in
    match di.D.kind with
    | L.Nop | L.Phi _ -> fun st -> next st
    | L.Param r ->
      if r = 0 then
        fun st ->
          set st.values v st.this;
          next st
      else
        fun st ->
          set st.values v
            (if r - 1 < st.nargs then get st.argv (r - 1) else Value.Undef);
          next st
    | L.Const c ->
      fun st ->
        set st.values v c;
        next st
    | L.Iadd (a, b) ->
      fun st ->
        set st.values v
          (frame_int_result env st v (as_int (get st.values a) + as_int (get st.values b)));
        next st
    | L.Isub (a, b) ->
      fun st ->
        set st.values v
          (frame_int_result env st v (as_int (get st.values a) - as_int (get st.values b)));
        next st
    | L.Iadd_wrap (a, b) ->
      fun st ->
        set st.values v
          (Value.int_ (wrap_int32 (as_int (get st.values a) + as_int (get st.values b))));
        next st
    | L.Isub_wrap (a, b) ->
      fun st ->
        set st.values v
          (Value.int_ (wrap_int32 (as_int (get st.values a) - as_int (get st.values b))));
        next st
    | L.Imul (a, b) ->
      fun st ->
        set st.values v
          (frame_int_result env st v (as_int (get st.values a) * as_int (get st.values b)));
        next st
    | L.Ineg a ->
      fun st ->
        let x = as_int (get st.values a) in
        (* -0 and -int32_min are not int32-representable results. *)
        if x = 0 || x = Value.int32_min then begin
          mark_overflow st v;
          set st.values v (overflow_value env (-x))
        end
        else set st.values v (Value.int_ (-x));
        next st
    | L.Fadd (a, b) ->
      fun st ->
        set st.values v
          (Value.number (as_num (get st.values a) +. as_num (get st.values b)));
        next st
    | L.Fsub (a, b) ->
      fun st ->
        set st.values v
          (Value.number (as_num (get st.values a) -. as_num (get st.values b)));
        next st
    | L.Fmul (a, b) ->
      fun st ->
        set st.values v
          (Value.number (as_num (get st.values a) *. as_num (get st.values b)));
        next st
    | L.Fdiv (a, b) ->
      fun st ->
        set st.values v
          (Value.number (as_num (get st.values a) /. as_num (get st.values b)));
        next st
    | L.Fmod (a, b) ->
      fun st ->
        set st.values v
          (Value.number (Float.rem (as_num (get st.values a)) (as_num (get st.values b))));
        next st
    | L.Fneg a ->
      fun st ->
        set st.values v (Value.number (-.as_num (get st.values a)));
        next st
    | L.Band (a, b) ->
      fun st ->
        set st.values v
          (Value.int_ (wrap_int32 (as_int (get st.values a) land as_int (get st.values b))));
        next st
    | L.Bor (a, b) ->
      fun st ->
        set st.values v
          (Value.int_ (wrap_int32 (as_int (get st.values a) lor as_int (get st.values b))));
        next st
    | L.Bxor (a, b) ->
      fun st ->
        set st.values v
          (Value.int_ (wrap_int32 (as_int (get st.values a) lxor as_int (get st.values b))));
        next st
    | L.Bnot a ->
      fun st ->
        set st.values v (Value.Int (wrap_int32 (lnot (as_int (get st.values a)))));
        next st
    | L.Shl (a, b) ->
      fun st ->
        set st.values v
          (Value.int_
             (wrap_int32 (as_int (get st.values a) lsl (as_int (get st.values b) land 31))));
        next st
    | L.Shr (a, b) ->
      fun st ->
        set st.values v
          (Value.int_ (as_int (get st.values a) asr (as_int (get st.values b) land 31)));
        next st
    | L.Ushr (a, b) ->
      fun st ->
        set st.values v (Ops.js_ushr (get st.values a) (get st.values b));
        next st
    (* One closure per comparator: the dispatch on [c] happens at compile
       time and the float compare stays local (unboxed) in each body. *)
    | L.Cmp (L.Ceq, a, b) ->
      fun st ->
        set st.values v
          (Value.bool_ (as_num (get st.values a) = as_num (get st.values b)));
        next st
    | L.Cmp (L.Cne, a, b) ->
      (* JS: NaN != anything is true *)
      fun st ->
        set st.values v
          (Value.bool_ (as_num (get st.values a) <> as_num (get st.values b)));
        next st
    | L.Cmp (L.Clt, a, b) ->
      fun st ->
        set st.values v
          (Value.bool_ (as_num (get st.values a) < as_num (get st.values b)));
        next st
    | L.Cmp (L.Cle, a, b) ->
      fun st ->
        set st.values v
          (Value.bool_ (as_num (get st.values a) <= as_num (get st.values b)));
        next st
    | L.Cmp (L.Cgt, a, b) ->
      fun st ->
        set st.values v
          (Value.bool_ (as_num (get st.values a) > as_num (get st.values b)));
        next st
    | L.Cmp (L.Cge, a, b) ->
      fun st ->
        set st.values v
          (Value.bool_ (as_num (get st.values a) >= as_num (get st.values b)));
        next st
    | L.Not a ->
      fun st ->
        set st.values v (Value.bool_ (not (Value.truthy (get st.values a))));
        next st
    | L.Load_slot (o, slot) ->
      fun st ->
        (match get st.values o with
        | Value.Obj obj when slot < Array.length obj.Value.slots ->
          set st.values v (Heap.load_slot heap obj slot)
        | _ -> set st.values v Value.Undef);
        next st
    | L.Store_slot (o, slot, x) ->
      fun st ->
        (match get st.values o with
        | Value.Obj obj when slot < Array.length obj.Value.slots ->
          Heap.store_slot heap obj slot (get st.values x)
        | _ -> ());
        next st
    | L.Store_transition (o, name, slot, x) ->
      let ic = site_ic env di.D.ic in
      fun st ->
        (match get st.values o with
        | Value.Obj obj ->
          (* The guarding shape check ran just before; resolve the
             (memoized, site-cached) transition and install shape + value. *)
          let new_shape = Ic.transition heap ic obj name in
          if new_shape.Shape.prop_count - 1 = slot then
            Heap.transition_store heap obj new_shape slot (get st.values x)
          else
            (* Shape drifted (possible only in a doomed transaction). *)
            Heap.set_prop heap obj name (get st.values x)
        | _ -> ());
        next st
    | L.Load_elem (a, i') ->
      fun st ->
        (match get st.values a with
        | Value.Arr arr ->
          set st.values v (Heap.load_elem heap arr (as_int (get st.values i')))
        | _ -> set st.values v Value.Undef);
        next st
    | L.Store_elem (a, i', x) ->
      fun st ->
        (match get st.values a with
        | Value.Arr arr ->
          Heap.store_elem heap arr (as_int (get st.values i')) (get st.values x)
        | _ -> ());
        next st
    | L.Load_length a ->
      fun st ->
        (match get st.values a with
        | Value.Arr arr ->
          Heap.note_load heap arr.Value.aaddr 8;
          set st.values v (Value.int_ arr.Value.alen)
        | _ -> set st.values v (Value.Int 0));
        next st
    | L.Str_length a ->
      fun st ->
        (match get st.values a with
        | Value.Str s -> set st.values v (Value.int_ (String.length s.Value.sdata))
        | _ -> set st.values v (Value.Int 0));
        next st
    | L.Load_char_code (s, i') ->
      fun st ->
        (match get st.values s with
        | Value.Str str ->
          set st.values v
            (Value.int_ (Ops.string_char_code heap str (as_int (get st.values i'))))
        | _ -> set st.values v (Value.Int 0));
        next st
    | L.Load_global g ->
      fun st ->
        set st.values v inst.Instance.globals.(g);
        next st
    | L.Store_global (g, x) ->
      fun st ->
        inst.Instance.globals.(g) <- get st.values x;
        next st
    (* Elided checks (NoMap_BC) guard exactly as charged ones do, but
       model zero hardware instructions: no check-category count, no
       cache-visible load of the metadata they test. *)
    | L.Check_int (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Int _ ->
          if not el then Counters.bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_number (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Int _ | Value.Num _ ->
          if not el then Counters.bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_string (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Str _ ->
          if not el then Counters.bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_array (a, e) ->
      fun st ->
        (match get st.values a with
        | Value.Arr _ ->
          if not el then Counters.bump_check cnt ci_type;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Type);
        next st
    | L.Check_shape (a, shape_id, e) ->
      fun st ->
        (match get st.values a with
        | Value.Obj o when o.Value.shape.Shape.id = shape_id ->
          if not el then begin
            Heap.note_load heap o.Value.oaddr 8;
            Counters.bump_check cnt ci_property
          end;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Property);
        next st
    | L.Check_fun_eq (a, fid, e) ->
      fun st ->
        (match get st.values a with
        | Value.Fun f when f = fid ->
          if not el then Counters.bump_check cnt ci_path;
          set st.values v (get st.values a)
        | _ -> check_fail env st.values e L.Path);
        next st
    | L.Check_bounds (a, i', e) ->
      fun st ->
        (let idx = as_int (get st.values i') in
         match get st.values a with
         | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
           if not el then begin
             Heap.note_load heap arr.Value.aaddr 8;
             Counters.bump_check cnt ci_bounds
           end;
           set st.values v (Value.int_ idx)
         | _ -> check_fail env st.values e L.Bounds);
        next st
    | L.Check_str_bounds (s, i', e) ->
      fun st ->
        (let idx = as_int (get st.values i') in
         match get st.values s with
         | Value.Str str when idx >= 0 && idx < String.length str.Value.sdata ->
           if not el then Counters.bump_check cnt ci_bounds;
           set st.values v (Value.int_ idx)
         | _ -> check_fail env st.values e L.Bounds);
        next st
    | L.Check_not_hole (a, i', e) ->
      fun st ->
        (let idx = as_int (get st.values i') in
         match get st.values a with
         | Value.Arr arr
           when idx >= 0
                && idx < Array.length arr.Value.elems
                && Heap.load_elem heap arr idx <> Value.Hole ->
           if not el then Counters.bump_check cnt ci_hole;
           set st.values v (Value.int_ idx)
         | _ -> check_fail env st.values e L.Hole);
        next st
    | L.Check_overflow (a, e) ->
      fun st ->
        let flags = st.overflowed in
        if Array.length flags > 0 && get flags a then check_fail env st.values e L.Overflow
        else begin
          if not el then Counters.bump_check cnt ci_overflow;
          set st.values v (get st.values a)
        end;
        next st
    | L.Check_cond (a, expected, e) ->
      fun st ->
        if Value.truthy (get st.values a) = expected then begin
          if not el then Counters.bump_check cnt ci_path;
          set st.values v (get st.values a)
        end
        else check_fail env st.values e L.Path;
        next st
    | L.Call_func (fid, _) ->
      let args = di.D.args in
      fun st ->
        set st.values v (env.call ~fid ~this:Value.Undef ~args:(arg_values st.values args));
        next st
    | L.Call_method (fid, thisv, _) ->
      let args = di.D.args in
      fun st ->
        set st.values v
          (env.call ~fid ~this:(get st.values thisv) ~args:(arg_values st.values args));
        next st
    | L.Ctor_call (fid, _) ->
      let args = di.D.args in
      fun st ->
        let obj = Value.Obj (Heap.alloc_object heap) in
        let r = env.call ~fid ~this:obj ~args:(arg_values st.values args) in
        set st.values v (match r with Value.Undef -> obj | x -> x);
        next st
    | L.Call_runtime (rt, recv, _) ->
      let args = di.D.args in
      let ic = di.D.ic in
      fun st ->
        set st.values v (exec_runtime env ~ic rt (get st.values recv) args st.values);
        next st
    | L.Intrinsic (intr, _) ->
      let args = di.D.args in
      let ftl_c, rt_c = intrinsic_cost intr in
      fun st ->
        if not el then begin
          charge env ~frame:st.frame ~cpi ftl_c;
          charge_runtime env rt_c
        end;
        set st.values v (eval_intrinsic heap intr Value.Undef args st.values);
        next st
    | L.Alloc_object ->
      fun st ->
        set st.values v (Value.Obj (Heap.alloc_object heap));
        next st
    | L.Alloc_array len ->
      fun st ->
        let n = as_int (get st.values len) in
        if n < 0 || n > 1 lsl 24 then begin
          match env.tx with
          | Some _ -> raise (Htm.Abort Htm.Watchdog)
          | None -> raise (Nomap_interp.Interp.Runtime_error "bad array length")
        end;
        set st.values v (Value.Arr (Heap.alloc_array heap n));
        next st
    | L.Tx_begin smp ->
      fun st ->
        exec_tx_begin env st.values ~frame:st.frame smp;
        next st
    | L.Tx_end ->
      fun st ->
        exec_tx_end env;
        next st
  in
  (* A solo closure: the reference per-instruction protocol with the free /
     zero-cost / charged decision and the CPI multiply resolved at compile
     time. *)
  let solo (di : D.dinstr) (next : code) : code =
    let free = di.D.elided || (di.D.is_tx_marker && env.htm_mode = Htm.Ghost) in
    let cost = di.D.cost in
    let delta = float_of_int cost *. cpi in
    let sem = sem_only di next in
    if free then
      fun st ->
        Instance.burn inst 1;
        sem st
    else if cost = 0 then
      fun st ->
        Instance.burn inst 1;
        tx_tick env;
        sem st
    else
      fun st ->
        Instance.burn inst 1;
        tx_tick env;
        charge_ix env (category_ix env st.frame) cost delta;
        sem st
  in
  (* Segment membership: everything except the instructions that change
     the category/in-region state or re-enter the VM (whose charge
     protocols differ and whose callees run arbitrary code).  Exact mode
     forms no segments. *)
  let seg_able (di : D.dinstr) =
    (not exact)
    &&
    match di.D.kind with
    | L.Call_func _ | L.Call_method _ | L.Ctor_call _ | L.Call_runtime _ | L.Intrinsic _
    | L.Tx_begin _ | L.Tx_end ->
      false
    | _ -> true
  in
  let unit_code : code = fun _ -> () in
  (* Check+consumer fusion inside a segment: when the pattern matches,
     returns the fused *semantics* for both instructions (array/index kept
     in locals instead of re-read and re-matched); [st.due] advances past
     each half exactly when exact mode would have charged it, so
     reconciliation and abort points are unchanged.  Both halves
     non-elided only: an elided check charges nothing and fires no hook,
     so the straight-line chain is already free. *)
  let fuse_pair (run : D.dinstr array) k : ((code -> code) option[@warning "-26"]) =
    if k + 1 >= Array.length run then None
    else
      let c = get run k and u = get run (k + 1) in
      if c.D.elided || u.D.elided then None
      else
        let vc = c.D.id and vu = u.D.id in
        let due1 = k + 1 and due2 = k + 2 in
        match (c.D.kind, u.D.kind) with
        | L.Check_bounds (a, i', e), L.Load_elem (a2, i2) when a2 = a && i2 = c.D.id ->
          Some
            (fun next_sems st ->
              st.due <- due1;
              let idx = as_int (get st.values i') in
              (match get st.values a with
              | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
                Heap.note_load heap arr.Value.aaddr 8;
                Counters.bump_check cnt ci_bounds;
                set st.values vc (Value.int_ idx);
                st.due <- due2;
                set st.values vu (Heap.load_elem heap arr idx)
              | _ -> check_fail env st.values e L.Bounds);
              next_sems st)
        | L.Check_bounds (a, i', e), L.Store_elem (a2, i2, x) when a2 = a && i2 = c.D.id
          ->
          Some
            (fun next_sems st ->
              st.due <- due1;
              let idx = as_int (get st.values i') in
              (match get st.values a with
              | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
                Heap.note_load heap arr.Value.aaddr 8;
                Counters.bump_check cnt ci_bounds;
                set st.values vc (Value.int_ idx);
                st.due <- due2;
                Heap.store_elem heap arr idx (get st.values x)
              | _ -> check_fail env st.values e L.Bounds);
              next_sems st)
        | L.Check_str_bounds (s, i', e), L.Load_char_code (s2, i2)
          when s2 = s && i2 = c.D.id ->
          Some
            (fun next_sems st ->
              st.due <- due1;
              let idx = as_int (get st.values i') in
              (match get st.values s with
              | Value.Str str when idx >= 0 && idx < String.length str.Value.sdata ->
                Counters.bump_check cnt ci_bounds;
                set st.values vc (Value.int_ idx);
                st.due <- due2;
                set st.values vu (Value.int_ (Ops.string_char_code heap str idx))
              | _ -> check_fail env st.values e L.Bounds);
              next_sems st)
        | _ -> None
  in
  (* One deferred-accounting segment over [run] (see the module doc):
     burn/tick batched up front, semantics chained, instr/cycle charges
     applied once at the end, with an exception guard reconciling the
     exact charged prefix if an instruction deopts/aborts mid-segment and
     an exact per-instruction fallback when the batched tick could cross
     the transaction watchdog.

     A segment that runs to the end of the block additionally absorbs the
     terminator's 1-instruction charge into its batched [settle] ([fold_term]):
     terminators charge but never burn fuel or tick the transaction, the
     category/in-tx flag cannot change between the segment's last
     instruction and the terminator (no calls or tx markers in between),
     and appending the terminator's cycle delta last preserves exact
     mode's accumulation order.  The watchdog fallback and any
     mid-segment raise never reach the terminator, so those paths keep the
     self-charging [term]. *)
  let rec compile_seq (body : D.dinstr array) i ~(term : code) ~(term_free : code) :
      code =
    if i >= Array.length body then term
    else if not (seg_able (get body i)) then
      solo (get body i) (compile_seq body (i + 1) ~term ~term_free)
    else begin
      let n_body = Array.length body in
      let j = ref (i + 1) in
      while !j < n_body && seg_able (get body !j) do incr j done;
      let run = Array.sub body i (!j - i) in
      if !j >= n_body && Array.length run > 1 then
        compile_segment run ~next:term_free ~slow_next:term ~fold_term:true
      else begin
        let rest = compile_seq body !j ~term ~term_free in
        compile_segment run ~next:rest ~slow_next:rest ~fold_term:false
      end
    end
  and compile_segment (run : D.dinstr array) ~(next : code) ~(slow_next : code)
      ~fold_term : code =
    let n = Array.length run in
    if n = 1 then solo (get run 0) slow_next
    else begin
      let n_tick = ref 0 and total_cost = ref 0 in
      Array.iter
        (fun di ->
          if not di.D.elided then begin
            incr n_tick;
            total_cost := !total_cost + di.D.cost
          end)
        run;
      let n_tick = !n_tick and total_cost = !total_cost + if fold_term then 1 else 0 in
      let deltas =
        run |> Array.to_list
        |> List.filter_map (fun di ->
               if (not di.D.elided) && di.D.cost > 0 then
                 Some (float_of_int di.D.cost *. cpi)
               else None)
        |> (fun ds -> if fold_term then ds @ [ cpi ] else ds)
        |> Array.of_list
      in
      let n_deltas = Array.length deltas in
      (* cost_prefix.(k) / dcount_prefix.(k): summed cost and cycle-delta
         count charged in exact mode after the segment's first
         [k] instructions — what reconciliation owes at [st.due = k]. *)
      let cost_prefix = Array.make (n + 1) 0 in
      let dcount_prefix = Array.make (n + 1) 0 in
      for k = 0 to n - 1 do
        let di = get run k in
        let c = if di.D.elided then 0 else di.D.cost in
        cost_prefix.(k + 1) <- cost_prefix.(k) + c;
        dcount_prefix.(k + 1) <- (dcount_prefix.(k) + if c > 0 then 1 else 0)
      done;
      let any_raiser = Array.exists (fun di -> not di.D.pure) run in
      (* The semantic chain: raisers record their due prefix first; pure
         instructions cannot raise and skip the bookkeeping. *)
      let rec build k : code =
        if k >= n then unit_code
        else
          match fuse_pair run k with
          | Some mk -> mk (build (k + 2))
          | None ->
            let di = get run k in
            let s = sem_only di (build (k + 1)) in
            if di.D.pure then s
            else begin
              let due = k + 1 in
              fun st ->
                st.due <- due;
                s st
            end
      in
      let sems = build 0 in
      let slow = Array.fold_right solo run slow_next in
      (* Charge the first [dk] cycle deltas, in order, and their summed
         [cost]: the whole segment on completion, the due prefix when an
         instruction raises ([reconcile]). *)
      let settle st cost dk =
        if cost > 0 then begin
          Counters.bump_instrs cnt (category_ix env st.frame) cost;
          Counters.add_cycle_run cnt ~in_tx:(in_region env) deltas dk
        end
      in
      let reconcile st = settle st (get cost_prefix st.due) (get dcount_prefix st.due) in
      if not any_raiser then
        fun st ->
          match env.tx with
          | Some tx when n_tick > 0 ->
            if tx.Htm.instr_count + n_tick > env.tx_watchdog then slow st
            else begin
              Instance.burn inst n;
              tx.Htm.instr_count <- tx.Htm.instr_count + n_tick;
              sems st;
              settle st total_cost n_deltas;
              next st
            end
          | _ ->
            Instance.burn inst n;
            sems st;
            settle st total_cost n_deltas;
            next st
      else
        fun st ->
          match env.tx with
          | Some tx when n_tick > 0 ->
            if tx.Htm.instr_count + n_tick > env.tx_watchdog then slow st
            else begin
              Instance.burn inst n;
              tx.Htm.instr_count <- tx.Htm.instr_count + n_tick;
              st.due <- 0;
              (try sems st
               with e ->
                 reconcile st;
                 raise e);
              settle st total_cost n_deltas;
              next st
            end
          | _ ->
            Instance.burn inst n;
            st.due <- 0;
            (try sems st
             with e ->
               reconcile st;
               raise e);
            settle st total_cost n_deltas;
            next st
    end
  in
  (* Terminator effect only — the 1-instruction charge is folded into a
     preceding segment's [settle] when possible, or wrapped on by the caller. *)
  let compile_term bid (t : L.terminator) : code =
    match t with
    | L.Jump tgt ->
      fun st ->
        st.prev_block <- bid;
        st.next_block <- tgt
    | L.Br (cv, bt, bf) ->
      fun st ->
        st.prev_block <- bid;
        st.next_block <- (if Value.truthy (get st.values cv) then bt else bf)
    | L.Ret (Some rv) ->
      fun st ->
        st.result <- get st.values rv;
        st.next_block <- -1
    | L.Ret None -> fun st -> st.next_block <- -1
    | L.Unreachable ->
      fun _ -> raise (Nomap_interp.Interp.Runtime_error "reached unreachable block")
  in
  (* Phis: the pre-resolved copy table for the incoming edge, applied as a
     parallel assignment before the body.  An edge whose in-order copy is
     already exact ([D.staged] false, decided at decode time) copies pair
     by pair.  The rest stage through the scratch buffer; the buffer lives
     in the major heap, so staging costs two slow-path write barriers per
     input.  Exact mode stages every edge, an independent check of the
     [staged] rule. *)
  let with_phis (edges : D.phi_edge array) (body : code) : code =
    let edges = if exact then Array.map (fun e -> { e with D.staged = true }) edges else edges in
    let scratch = d.D.scratch in
    let n_edges = Array.length edges in
    (* The edge scan is a plain loop: a local [let rec] capturing the
       incoming block would be a fresh closure on every block entry. *)
    fun st ->
      let prev = st.prev_block in
      let ei = ref (-1) in
      let i = ref 0 in
      while !ei < 0 && !i < n_edges do
        if (get edges !i).D.pred = prev then ei := !i else incr i
      done;
      let ei = !ei in
      if ei >= 0 then begin
        let e = get edges ei in
        let dsts = e.D.dsts and srcs = e.D.srcs and values = st.values in
        let np = Array.length dsts in
        if e.D.staged then begin
          for i = 0 to np - 1 do
            set scratch i (get values (get srcs i))
          done;
          for i = 0 to np - 1 do
            set values (get dsts i) (get scratch i)
          done
        end
        else
          for i = 0 to np - 1 do
            set values (get dsts i) (get values (get srcs i))
          done
      end;
      body st
  in
  let t_blocks =
    Array.mapi
      (fun bid (b : D.dblock) ->
        let term_free = compile_term bid b.D.dterm in
        let term st =
          charge env ~frame:st.frame ~cpi 1;
          term_free st
        in
        let body = compile_seq b.D.body 0 ~term ~term_free in
        if Array.length b.D.phi_edges = 0 then body else with_phis b.D.phi_edges body)
      d.D.dblocks
  in
  { t_entry = d.D.entry; t_blocks; t_nvalues = d.D.nvalues; t_tier = tier; t_exact = exact }

(** The threaded code for [c] in the given mode (fused by default),
    compiled on first execution and cached on the compiled record. *)
let threaded ?(exact = false) env (c : Specialize.compiled) ~tier : tfunc =
  match c.Specialize.engine_code with
  | Some (Threaded_code tf) when tf.t_tier = tier && tf.t_exact = exact -> tf
  | _ ->
    let tf = compile_func env ~tier ~exact (decoded c) in
    c.Specialize.engine_code <- Some (Threaded_code tf);
    tf

let exec_func env (c : Specialize.compiled) ~exact ~tier ~this ~args : Value.t =
  let tf = threaded ~exact env c ~tier in
  let frame = enter_call env ~tier in
  let argv = Array.of_list args in
  let st =
    {
      values = Array.make (max 1 tf.t_nvalues) Value.Undef;
      overflowed = [||];
      this;
      argv;
      nargs = Array.length argv;
      frame;
      prev_block = -1;
      next_block = tf.t_entry;
      result = Value.Undef;
      due = 0;
    }
  in
  let blocks = tf.t_blocks in
  let run () =
    while st.next_block >= 0 do
      (get blocks st.next_block) st
    done;
    st.result
  in
  run_with_exits env ~fid:c.Specialize.lir.L.fid ~frame run
