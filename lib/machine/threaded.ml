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
    [solo] closures only, charges every terminator on its own, and stages
    every phi edge through [Decode.scratch].  It is the reference the
    fused mode is checked against: the fuzzer's engine axis and the
    engine-equivalence tests require bit-identical counters from the
    two.

    {b Fused mode} (the default, [Engine.Threaded]) runs a peephole
    selector over the decoded stream that fuses maximal
    call/tx-marker-free straight-line runs into *deferred-accounting
    segments* — the superinstructions:

    - One [burn] of the whole segment's fuel and one batched watchdog-tick
      add up front (with an all-[solo] fallback chain when the batched tick
      could cross the transaction watchdog, so a watchdog abort still fires
      at the precise instruction it would have in exact mode).
    - The semantics then run back to back as a chain of closures.
    - The segment's charges are applied once at the end: one [charge_ix]
      of the summed cost and of that cost times the CPI (cycles are
      integer milli-cycles, so one add equals the per-instruction adds).
      Category and in-region flag are invariant across the segment — it
      contains no calls and no tx markers — so computing them once is
      exact.
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
      false) copy by register file instead of staging (below).
    - a block-final run absorbs the terminator's charge, even a
      one-instruction run, so a [Cmp; Br] loop header settles once.

    {b Control flow.}  Both modes compile control flow the way they
    compile straight-line code.  Every CFG edge (pred -> succ) is one
    closure that runs the edge's phi copies and tail-calls the
    successor's body; [Jump] and [Br] tail-call their edge closures, and
    [Ret] only stores the result.  An activation is therefore one chain
    of tail calls from the entry block to its [Ret], with no dispatch
    loop and no search for the incoming edge.  Every transfer from a
    terminator to an edge to a body is a tail call outside any [try];
    otherwise the OCaml stack would grow by a frame per executed block.
    An edge's copies are resolved at compile time:

    - a staged edge (every edge in exact mode) reads all its sources into
      [Decode.scratch]/[iscratch], then writes all its destinations;
    - an unstaged edge runs its copies into the boxed file (boxed
      sources, and boxings of int32 and boolean sources) first, then its
      int-to-int copies, each group in the edge's order and specialized
      by count.  Copying an unstaged edge in order is exact, and so is
      each group on its own, an in-order subsequence.  The groups write
      different files, so they can only interfere through a read of the
      other file; the boxings are the only such reads, and they must
      read the int file before the int group writes it.

    {b Registers.}  Both modes share one register layout
    ([Decode.layout]): int32 and boolean values live unboxed in an [int
    array] file, the rest in a [Value.t array] file, each at a dense slot,
    and a value is boxed only when it leaves for a generic consumer (a
    heap or global store, a call, runtime or intrinsic argument, a return,
    a deopt or transaction snapshot) — DESIGN.md §14.

    Batched fuel: a segment burns its fuel up front, so a program that
    runs out of fuel mid-segment dies a few instructions earlier than in
    exact mode.  [Out_of_fuel] is a crash, not an observation — the oracle
    compares crash identity, and both modes raise the same exception — so
    this is crash-equivalent.

    Calls, intrinsics, runtime calls and tx markers (which change the
    category/in-region state or re-enter the VM) stay [solo] closures in
    both modes, with the free / zero-cost / charged decision resolved once
    and the CPI multiplication pre-computed.

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

(** Per-activation state threaded through every closure.  Each activation
    allocates its own state, so it lives in the minor heap and
    boxed-register stores take the write barrier's young fast path.

    The register file is split by representation ([Decode.layout]):
    [Int32] and [Boolean] values live unboxed in [ints], everything else
    in [vals], each indexed by the value's dense slot. *)
type state = {
  ints : int array;  (** int32 values, and booleans as 0/1 *)
  vals : Value.t array;
  mutable overflowed : bool array;
      (** per int slot overflow flags, allocated on the activation's first
          overflow; empty means "no value overflowed" *)
  this : Value.t;
  argv : Value.t array;
  nargs : int;
  frame : int;
  mutable result : Value.t;  (** set by the [Ret] that ends the activation *)
  mutable due : int;
      (** deferred-accounting progress within the executing segment: number
          of leading segment instructions whose instr/cycle charges must be
          reconciled if the segment raises (see the module doc) *)
}

type code = state -> unit

type tfunc = {
  t_entry : code;  (** the entry block's body; it runs the activation to its [Ret] *)
  t_nint : int;  (** int file size *)
  t_nboxed : int;  (** boxed file size *)
  t_tier : tier;
  t_exact : bool;  (** compiled in exact mode *)
}

type Specialize.artifact += Threaded_code of tfunc

(** A block's compiled body, filled in once every block is compiled. *)
type block = { mutable body : code }

(* Operand reads, each at a representation and slot fixed at compile
   time.  An unboxed operand is read straight from the int file: a
   boolean's 0/1 is exactly its ToInt32 and ToNumber, and nonzero exactly
   its truthiness. *)
let[@inline] rd_int st (r : D.rep) s =
  match r with D.Boxed -> as_int (get st.vals s) | D.Int32 | D.Boolean -> iget st.ints s

let[@inline] rd_num st (r : D.rep) s =
  match r with
  | D.Boxed -> as_num (get st.vals s)
  | D.Int32 | D.Boolean -> float_of_int (iget st.ints s)

let[@inline] rd_truthy st (r : D.rep) s =
  match r with
  | D.Boxed -> Value.truthy (get st.vals s)
  | D.Int32 | D.Boolean -> iget st.ints s <> 0

(** The operand as a [Value.t], boxed for a generic consumer. *)
let[@inline] rd_val st (r : D.rep) s =
  match r with
  | D.Boxed -> get st.vals s
  | D.Int32 -> Value.int_ (iget st.ints s)
  | D.Boolean -> Value.bool_ (iget st.ints s <> 0)

(* Most activations never overflow, so the flags cost nothing until the
   first overflow allocates them. *)
let mark_overflow st s =
  if Array.length st.overflowed = 0 then
    st.overflowed <- Array.make (Array.length st.ints) false;
  set st.overflowed s true

let[@inline never] overflow_result env st s raw =
  mark_overflow st s;
  overflow_int env raw

(** An int32 arithmetic result for int slot [s]; an overflow marks [s] for
    its [Check_overflow] and goes through [Machine.overflow_int]. *)
let[@inline] int_result env st s raw =
  if Value.fits_int32 raw then raw else overflow_result env st s raw

(** A live map's values, boxed by their representation. *)
let materialize st (lay : D.layout) (live : (int * int) list) =
  List.map (fun (r, v) -> (r, rd_val st (get lay.D.rep v) (get lay.D.slot v))) live

(** The array a call site's argument ids index: the boxed file itself
    when every argument is boxed, else a fresh array of the arguments,
    boxed (see [args_of]). *)
let arg_file st = function
  | None -> st.vals
  | Some (reps, slots) ->
    let n = Array.length slots in
    let a = Array.make n Value.Undef in
    for i = 0 to n - 1 do
      set a i (rd_val st (get reps i) (get slots i))
    done;
    a

(* Phi copy kinds, by (destination, source) representation: the analysis
   makes a phi unboxed only when all its inputs share its representation,
   so these four are all there are. *)
let copy_int = 0
let copy_boxed = 1
let box_int = 2
let box_bool = 3

let copy_kind (lay : D.layout) dst src =
  match (lay.D.rep.(dst), lay.D.rep.(src)) with
  | D.Boxed, D.Boxed -> copy_boxed
  | D.Boxed, D.Int32 -> box_int
  | D.Boxed, D.Boolean -> box_bool
  | r, r' when r = r' -> copy_int
  | _ -> invalid_arg "Threaded: phi joins unboxed values of different representations"

(** The phi copies of the CFG edge [pred -> succ], if [succ] has any for
    [pred]. *)
let incoming (d : D.t) ~pred ~succ =
  Array.find_opt (fun (e : D.phi_edge) -> e.D.pred = pred) d.D.dblocks.(succ).D.phi_edges

(** A terminator's distinct successors, in order. *)
let successors = function
  | L.Jump t -> [ t ]
  | L.Br (_, t, f) -> if t = f then [ t ] else [ t; f ]
  | L.Ret _ | L.Unreachable -> []

(** An edge's copies, split by destination file, each group in the
    edge's order: [b_*] the copies into the boxed file ([b_kinds]:
    [copy_boxed], or [box_int]/[box_bool] for an unboxed source), [i_*]
    the copies within the int file.  All slots.  On an unstaged edge,
    running the boxed group first keeps the split exact (see the module
    doc). *)
type groups = {
  b_kinds : int array;
  b_dsts : int array;
  b_srcs : int array;
  i_dsts : int array;
  i_srcs : int array;
}

let split_by_file (lay : D.layout) (e : D.phi_edge) =
  let kinds = Array.map2 (copy_kind lay) e.D.dsts e.D.srcs in
  let n = Array.length kinds in
  let n_int = Array.fold_left (fun c k -> if k = copy_int then c + 1 else c) 0 kinds in
  let g =
    {
      b_kinds = Array.make (n - n_int) 0;
      b_dsts = Array.make (n - n_int) 0;
      b_srcs = Array.make (n - n_int) 0;
      i_dsts = Array.make n_int 0;
      i_srcs = Array.make n_int 0;
    }
  in
  let nb = ref 0 and ni = ref 0 in
  for i = 0 to n - 1 do
    let dst = lay.D.slot.(e.D.dsts.(i)) and src = lay.D.slot.(e.D.srcs.(i)) in
    if kinds.(i) = copy_int then begin
      g.i_dsts.(!ni) <- dst;
      g.i_srcs.(!ni) <- src;
      incr ni
    end
    else begin
      g.b_kinds.(!nb) <- kinds.(i);
      g.b_dsts.(!nb) <- dst;
      g.b_srcs.(!nb) <- src;
      incr nb
    end
  done;
  g

(** The edge plan as text: one line per CFG edge, with its copy counts
    (int, boxed, boxing) and whether the fused mode stages it (exact mode
    stages every edge). *)
let edge_plan_to_string (d : D.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b "edge plan:\n";
  Array.iteri
    (fun pred (blk : D.dblock) ->
      List.iter
        (fun succ ->
          Printf.bprintf b "  b%d -> b%d: " pred succ;
          match incoming d ~pred ~succ with
          | None -> Buffer.add_string b "no copies\n"
          | Some e ->
            let g = split_by_file d.D.layout e in
            let boxing =
              Array.fold_left (fun n k -> if k = copy_boxed then n else n + 1) 0 g.b_kinds
            in
            Printf.bprintf b "int %d, boxed %d, boxing %d, %s\n" (Array.length g.i_dsts)
              (Array.length g.b_dsts - boxing) boxing
              (if e.D.staged then "staged" else "unstaged"))
        (successors blk.D.dterm))
    d.D.dblocks;
  Buffer.contents b

let compile_func env ~tier ~exact (d : D.t) : tfunc =
  let cpi = cpi_of tier in
  let inst = env.instance in
  let heap = inst.Instance.heap in
  let cnt = env.counters in
  let lay = d.D.layout in
  (* Every operand is read, and every result written, at its value's
     representation and slot. *)
  let opnd v = (lay.D.rep.(v), lay.D.slot.(v)) in
  let unboxed v = lay.D.rep.(v) <> D.Boxed in
  (* A failing check: Deopt outside any real transaction OSR-exits;
     inside a transaction any failure is an abort (Deopt there is
     irrevocable).  An Abort exit with no live transaction is only
     possible if a pass mis-converted; treat it as a plain deopt to stay
     safe. *)
  let check_fail st (e : L.exit) kind =
    match env.tx with
    | Some _ -> raise (Htm.Abort (Htm.Check_failed kind))
    | None -> raise (Deopt_exit (e.L.smp.L.resume_pc, materialize st lay e.L.smp.L.live))
  in
  (* A call site's arguments, as the ids into [arg_file] that
     [Interp.arg_values]/[eval_intrinsic] and [exec_runtime] read. *)
  let args_of (args : int array) =
    let reps = Array.map (fun v -> lay.D.rep.(v)) args
    and slots = Array.map (fun v -> lay.D.slot.(v)) args in
    if Array.for_all (fun r -> r = D.Boxed) reps then (slots, None)
    else (Array.init (Array.length args) Fun.id, Some (reps, slots))
  in
  (* The semantics of one instruction, continuation-passing into [next].
     No accounting here — the caller bakes the charging protocol around
     it. *)
  let sem_only (di : D.dinstr) (next : code) : code =
    let v = di.D.id in
    let sv = lay.D.slot.(v) in
    let el = di.D.elided in
    match di.D.kind with
    | L.Nop | L.Phi _ -> fun st -> next st
    | L.Param r ->
      if r = 0 then
        fun st ->
          set st.vals sv st.this;
          next st
      else
        fun st ->
          set st.vals sv (if r - 1 < st.nargs then get st.argv (r - 1) else Value.Undef);
          next st
    | L.Const c -> (
      match (lay.D.rep.(v), c) with
      | D.Int32, Value.Int i ->
        fun st ->
          iset st.ints sv i;
          next st
      | D.Boolean, Value.Bool b ->
        let i = Bool.to_int b in
        fun st ->
          iset st.ints sv i;
          next st
      | _ ->
        fun st ->
          set st.vals sv c;
          next st)
    | L.Iadd (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (int_result env st sv (rd_int st ra sa + rd_int st rb sb));
        next st
    | L.Isub (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (int_result env st sv (rd_int st ra sa - rd_int st rb sb));
        next st
    | L.Iadd_wrap (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (wrap_int32 (rd_int st ra sa + rd_int st rb sb));
        next st
    | L.Isub_wrap (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (wrap_int32 (rd_int st ra sa - rd_int st rb sb));
        next st
    | L.Imul (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (int_result env st sv (rd_int st ra sa * rd_int st rb sb));
        next st
    | L.Ineg a ->
      let ra, sa = opnd a in
      fun st ->
        let x = rd_int st ra sa in
        (* -0 and -int32_min are not int32-representable results. *)
        if x = 0 || x = Value.int32_min then begin
          mark_overflow st sv;
          iset st.ints sv (overflow_int env (-x))
        end
        else iset st.ints sv (-x);
        next st
    | L.Fadd (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        set st.vals sv (Value.number (rd_num st ra sa +. rd_num st rb sb));
        next st
    | L.Fsub (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        set st.vals sv (Value.number (rd_num st ra sa -. rd_num st rb sb));
        next st
    | L.Fmul (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        set st.vals sv (Value.number (rd_num st ra sa *. rd_num st rb sb));
        next st
    | L.Fdiv (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        set st.vals sv (Value.number (rd_num st ra sa /. rd_num st rb sb));
        next st
    | L.Fmod (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        set st.vals sv (Value.number (Float.rem (rd_num st ra sa) (rd_num st rb sb)));
        next st
    | L.Fneg a ->
      let ra, sa = opnd a in
      fun st ->
        set st.vals sv (Value.number (-.rd_num st ra sa));
        next st
    | L.Band (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (wrap_int32 (rd_int st ra sa land rd_int st rb sb));
        next st
    | L.Bor (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (wrap_int32 (rd_int st ra sa lor rd_int st rb sb));
        next st
    | L.Bxor (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (wrap_int32 (rd_int st ra sa lxor rd_int st rb sb));
        next st
    | L.Bnot a ->
      let ra, sa = opnd a in
      fun st ->
        iset st.ints sv (wrap_int32 (lnot (rd_int st ra sa)));
        next st
    | L.Shl (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (wrap_int32 (rd_int st ra sa lsl (rd_int st rb sb land 31)));
        next st
    | L.Shr (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        iset st.ints sv (rd_int st ra sa asr (rd_int st rb sb land 31));
        next st
    | L.Ushr (a, b) ->
      let ra, sa = opnd a and rb, sb = opnd b in
      fun st ->
        set st.vals sv (Ops.js_ushr (rd_val st ra sa) (rd_val st rb sb));
        next st
    (* One closure per comparator: the dispatch on [c] happens at compile
       time.  Two unboxed operands compare as ints, exactly as their
       doubles would (every int32 converts exactly); otherwise the float
       compare stays local (unboxed) in each body. *)
    | L.Cmp (c, a, b) when unboxed a && unboxed b -> (
      let _, sa = opnd a and _, sb = opnd b in
      match c with
      | L.Ceq ->
        fun st ->
          iset st.ints sv (Bool.to_int (iget st.ints sa = iget st.ints sb));
          next st
      | L.Cne ->
        fun st ->
          iset st.ints sv (Bool.to_int (iget st.ints sa <> iget st.ints sb));
          next st
      | L.Clt ->
        fun st ->
          iset st.ints sv (Bool.to_int (iget st.ints sa < iget st.ints sb));
          next st
      | L.Cle ->
        fun st ->
          iset st.ints sv (Bool.to_int (iget st.ints sa <= iget st.ints sb));
          next st
      | L.Cgt ->
        fun st ->
          iset st.ints sv (Bool.to_int (iget st.ints sa > iget st.ints sb));
          next st
      | L.Cge ->
        fun st ->
          iset st.ints sv (Bool.to_int (iget st.ints sa >= iget st.ints sb));
          next st)
    | L.Cmp (c, a, b) -> (
      let ra, sa = opnd a and rb, sb = opnd b in
      match c with
      | L.Ceq ->
        fun st ->
          iset st.ints sv (Bool.to_int (rd_num st ra sa = rd_num st rb sb));
          next st
      | L.Cne ->
        (* JS: NaN != anything is true *)
        fun st ->
          iset st.ints sv (Bool.to_int (rd_num st ra sa <> rd_num st rb sb));
          next st
      | L.Clt ->
        fun st ->
          iset st.ints sv (Bool.to_int (rd_num st ra sa < rd_num st rb sb));
          next st
      | L.Cle ->
        fun st ->
          iset st.ints sv (Bool.to_int (rd_num st ra sa <= rd_num st rb sb));
          next st
      | L.Cgt ->
        fun st ->
          iset st.ints sv (Bool.to_int (rd_num st ra sa > rd_num st rb sb));
          next st
      | L.Cge ->
        fun st ->
          iset st.ints sv (Bool.to_int (rd_num st ra sa >= rd_num st rb sb));
          next st)
    | L.Not a ->
      let ra, sa = opnd a in
      fun st ->
        iset st.ints sv (if rd_truthy st ra sa then 0 else 1);
        next st
    | L.Load_slot (o, slot) ->
      let ro, so = opnd o in
      fun st ->
        (match rd_val st ro so with
        | Value.Obj obj when slot < Array.length obj.Value.slots ->
          set st.vals sv (Heap.load_slot heap obj slot)
        | _ -> set st.vals sv Value.Undef);
        next st
    | L.Store_slot (o, slot, x) ->
      let ro, so = opnd o and rx, sx = opnd x in
      fun st ->
        (match rd_val st ro so with
        | Value.Obj obj when slot < Array.length obj.Value.slots ->
          Heap.store_slot heap obj slot (rd_val st rx sx)
        | _ -> ());
        next st
    | L.Store_transition (o, name, slot, x) ->
      let ro, so = opnd o and rx, sx = opnd x in
      fun st ->
        (match rd_val st ro so with
        | Value.Obj obj ->
          (* The guarding shape check ran just before; resolve the
             (memoized) transition and install shape + value. *)
          let new_shape = Shape.transition heap.Heap.shapes obj.Value.shape name in
          if new_shape.Shape.prop_count - 1 = slot then
            Heap.transition_store heap obj new_shape slot (rd_val st rx sx)
          else
            (* Shape drifted (possible only in a doomed transaction). *)
            Heap.set_prop heap obj name (rd_val st rx sx)
        | _ -> ());
        next st
    | L.Load_elem (a, i') ->
      let ra, sa = opnd a and ri, si = opnd i' in
      fun st ->
        (match rd_val st ra sa with
        | Value.Arr arr -> set st.vals sv (Heap.load_elem heap arr (rd_int st ri si))
        | _ -> set st.vals sv Value.Undef);
        next st
    | L.Store_elem (a, i', x) ->
      let ra, sa = opnd a and ri, si = opnd i' and rx, sx = opnd x in
      fun st ->
        (match rd_val st ra sa with
        | Value.Arr arr -> Heap.store_elem heap arr (rd_int st ri si) (rd_val st rx sx)
        | _ -> ());
        next st
    | L.Load_length a ->
      let ra, sa = opnd a in
      fun st ->
        (match rd_val st ra sa with
        | Value.Arr arr ->
          Heap.note_load heap arr.Value.aaddr 8;
          iset st.ints sv arr.Value.alen
        | _ -> iset st.ints sv 0);
        next st
    | L.Str_length a ->
      let ra, sa = opnd a in
      fun st ->
        (match rd_val st ra sa with
        | Value.Str s -> iset st.ints sv (String.length s.Value.sdata)
        | _ -> iset st.ints sv 0);
        next st
    | L.Load_char_code (s, i') ->
      let rs, ss = opnd s and ri, si = opnd i' in
      fun st ->
        (match rd_val st rs ss with
        | Value.Str str -> iset st.ints sv (Ops.string_char_code heap str (rd_int st ri si))
        | _ -> iset st.ints sv 0);
        next st
    | L.Load_global g ->
      fun st ->
        set st.vals sv inst.Instance.globals.(g);
        next st
    | L.Store_global (g, x) ->
      let rx, sx = opnd x in
      fun st ->
        Instance.store_global inst g (rd_val st rx sx);
        next st
    (* Elided checks (NoMap_BC) guard exactly as charged ones do, but
       model zero hardware instructions: no check-category count, no
       cache-visible load of the metadata they test. *)
    | L.Check_int (a, e) -> (
      match opnd a with
      | D.Int32, sa ->
        fun st ->
          if not el then Counters.bump_check cnt ci_type;
          iset st.ints sv (iget st.ints sa);
          next st
      | ra, sa ->
        fun st ->
          (match rd_val st ra sa with
          | Value.Int i ->
            if not el then Counters.bump_check cnt ci_type;
            iset st.ints sv i
          | _ -> check_fail st e L.Type);
          next st)
    | L.Check_number (a, e) -> (
      match opnd a with
      | D.Int32, sa ->
        fun st ->
          if not el then Counters.bump_check cnt ci_type;
          iset st.ints sv (iget st.ints sa);
          next st
      | ra, sa ->
        fun st ->
          (match rd_val st ra sa with
          | (Value.Int _ | Value.Num _) as x ->
            if not el then Counters.bump_check cnt ci_type;
            set st.vals sv x
          | _ -> check_fail st e L.Type);
          next st)
    | L.Check_string (a, e) ->
      let ra, sa = opnd a in
      fun st ->
        (match rd_val st ra sa with
        | Value.Str _ as x ->
          if not el then Counters.bump_check cnt ci_type;
          set st.vals sv x
        | _ -> check_fail st e L.Type);
        next st
    | L.Check_array (a, e) ->
      let ra, sa = opnd a in
      fun st ->
        (match rd_val st ra sa with
        | Value.Arr _ as x ->
          if not el then Counters.bump_check cnt ci_type;
          set st.vals sv x
        | _ -> check_fail st e L.Type);
        next st
    | L.Check_shape (a, shape_id, e) ->
      let ra, sa = opnd a in
      fun st ->
        (match rd_val st ra sa with
        | Value.Obj o as x when o.Value.shape.Shape.id = shape_id ->
          if not el then begin
            Heap.note_load heap o.Value.oaddr 8;
            Counters.bump_check cnt ci_property
          end;
          set st.vals sv x
        | _ -> check_fail st e L.Property);
        next st
    | L.Check_fun_eq (a, fid, e) ->
      let ra, sa = opnd a in
      fun st ->
        (match rd_val st ra sa with
        | Value.Fun f as x when f = fid ->
          if not el then Counters.bump_check cnt ci_path;
          set st.vals sv x
        | _ -> check_fail st e L.Path);
        next st
    | L.Check_bounds (a, i', e) ->
      let ra, sa = opnd a and ri, si = opnd i' in
      fun st ->
        (let idx = rd_int st ri si in
         match rd_val st ra sa with
         | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
           if not el then begin
             Heap.note_load heap arr.Value.aaddr 8;
             Counters.bump_check cnt ci_bounds
           end;
           iset st.ints sv idx
         | _ -> check_fail st e L.Bounds);
        next st
    | L.Check_str_bounds (s, i', e) ->
      let rs, ss = opnd s and ri, si = opnd i' in
      fun st ->
        (let idx = rd_int st ri si in
         match rd_val st rs ss with
         | Value.Str str when idx >= 0 && idx < String.length str.Value.sdata ->
           if not el then Counters.bump_check cnt ci_bounds;
           iset st.ints sv idx
         | _ -> check_fail st e L.Bounds);
        next st
    | L.Check_not_hole (a, i', e) ->
      let ra, sa = opnd a and ri, si = opnd i' in
      fun st ->
        (let idx = rd_int st ri si in
         match rd_val st ra sa with
         | Value.Arr arr
           when idx >= 0
                && idx < Array.length arr.Value.elems
                && Heap.load_elem heap arr idx <> Value.Hole ->
           if not el then Counters.bump_check cnt ci_hole;
           iset st.ints sv idx
         | _ -> check_fail st e L.Hole);
        next st
    (* Only the int32 arithmetic marks overflow flags, so a boxed operand
       never fails. *)
    | L.Check_overflow (a, e) -> (
      match opnd a with
      | D.Boxed, sa ->
        fun st ->
          if not el then Counters.bump_check cnt ci_overflow;
          set st.vals sv (get st.vals sa);
          next st
      | _, sa ->
        fun st ->
          let flags = st.overflowed in
          if Array.length flags > 0 && get flags sa then check_fail st e L.Overflow
          else begin
            if not el then Counters.bump_check cnt ci_overflow;
            iset st.ints sv (iget st.ints sa)
          end;
          next st)
    | L.Check_cond (a, expected, e) -> (
      match opnd a with
      | D.Boxed, sa ->
        fun st ->
          let x = get st.vals sa in
          if Value.truthy x = expected then begin
            if not el then Counters.bump_check cnt ci_path;
            set st.vals sv x
          end
          else check_fail st e L.Path;
          next st
      | _, sa ->
        fun st ->
          let x = iget st.ints sa in
          if (x <> 0) = expected then begin
            if not el then Counters.bump_check cnt ci_path;
            iset st.ints sv x
          end
          else check_fail st e L.Path;
          next st)
    | L.Call_func (fid, _) ->
      let ids, boxing = args_of di.D.args in
      fun st ->
        set st.vals sv
          (env.call ~fid ~this:Value.Undef ~args:(Interp.arg_values (arg_file st boxing) ids));
        next st
    | L.Call_method (fid, thisv, _) ->
      let ids, boxing = args_of di.D.args and rt, stv = opnd thisv in
      fun st ->
        let args = Interp.arg_values (arg_file st boxing) ids in
        set st.vals sv (env.call ~fid ~this:(rd_val st rt stv) ~args);
        next st
    | L.Ctor_call (fid, _) ->
      let ids, boxing = args_of di.D.args in
      fun st ->
        let obj = Value.Obj (Heap.alloc_object heap) in
        let r = env.call ~fid ~this:obj ~args:(Interp.arg_values (arg_file st boxing) ids) in
        set st.vals sv (match r with Value.Undef -> obj | x -> x);
        next st
    | L.Call_runtime (rt, recv, _) ->
      let ids, boxing = args_of di.D.args and rr, sr = opnd recv in
      fun st ->
        set st.vals sv (exec_runtime env rt (rd_val st rr sr) ids (arg_file st boxing));
        next st
    | L.Intrinsic (intr, _) ->
      let ids, boxing = args_of di.D.args in
      let ftl_c, rt_c = intrinsic_cost intr in
      fun st ->
        if not el then begin
          charge env ~frame:st.frame ~cpi ftl_c;
          charge_runtime env rt_c
        end;
        set st.vals sv (Interp.eval_intrinsic heap intr Value.Undef (arg_file st boxing) ids);
        next st
    | L.Alloc_object ->
      fun st ->
        set st.vals sv (Value.Obj (Heap.alloc_object heap));
        next st
    | L.Alloc_array len ->
      let rl, sl = opnd len in
      fun st ->
        let n = rd_int st rl sl in
        if not (Heap.array_length_ok n) then begin
          (* Inside a transaction the length may be garbage from a doomed
             region, and raising the error there would be irrevocable, so
             the transaction aborts and Baseline, re-executing the region,
             raises it if the length is really bad. *)
          match env.tx with
          | Some _ -> raise (Htm.Abort Htm.Irrevocable)
          | None -> raise (Interp.Runtime_error Heap.bad_array_length)
        end;
        set st.vals sv (Value.Arr (Heap.alloc_array heap n));
        next st
    | L.Tx_begin smp ->
      let live = smp.L.live in
      fun st ->
        exec_tx_begin env ~snapshot:(fun () -> materialize st lay live) ~frame:st.frame smp;
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
    let delta = cost * cpi in
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
        let svc = lay.D.slot.(c.D.id) and svu = lay.D.slot.(u.D.id) in
        let due1 = k + 1 and due2 = k + 2 in
        match (c.D.kind, u.D.kind) with
        | L.Check_bounds (a, i', e), L.Load_elem (a2, i2) when a2 = a && i2 = c.D.id ->
          let ra, sa = opnd a and ri, si = opnd i' in
          Some
            (fun next_sems st ->
              st.due <- due1;
              let idx = rd_int st ri si in
              (match rd_val st ra sa with
              | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
                Heap.note_load heap arr.Value.aaddr 8;
                Counters.bump_check cnt ci_bounds;
                iset st.ints svc idx;
                st.due <- due2;
                set st.vals svu (Heap.load_elem heap arr idx)
              | _ -> check_fail st e L.Bounds);
              next_sems st)
        | L.Check_bounds (a, i', e), L.Store_elem (a2, i2, x) when a2 = a && i2 = c.D.id
          ->
          let ra, sa = opnd a and ri, si = opnd i' in
          let rx, sx = opnd x in
          Some
            (fun next_sems st ->
              st.due <- due1;
              let idx = rd_int st ri si in
              (match rd_val st ra sa with
              | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
                Heap.note_load heap arr.Value.aaddr 8;
                Counters.bump_check cnt ci_bounds;
                iset st.ints svc idx;
                st.due <- due2;
                Heap.store_elem heap arr idx (rd_val st rx sx)
              | _ -> check_fail st e L.Bounds);
              next_sems st)
        | L.Check_str_bounds (s, i', e), L.Load_char_code (s2, i2)
          when s2 = s && i2 = c.D.id ->
          let rs, ss = opnd s and ri, si = opnd i' in
          Some
            (fun next_sems st ->
              st.due <- due1;
              let idx = rd_int st ri si in
              (match rd_val st rs ss with
              | Value.Str str when idx >= 0 && idx < String.length str.Value.sdata ->
                Counters.bump_check cnt ci_bounds;
                iset st.ints svc idx;
                st.due <- due2;
                iset st.ints svu (Ops.string_char_code heap str idx)
              | _ -> check_fail st e L.Bounds);
              next_sems st)
        | _ -> None
  in
  (* One deferred-accounting segment over [run] (see the module doc):
     burn/tick batched up front, semantics chained, instr/cycle charges
     applied once at the end, with an exception guard reconciling the
     exact charged prefix if an instruction deopts/aborts mid-segment and
     an exact per-instruction fallback when the batched tick could cross
     the transaction watchdog.

     A segment that runs to the end of the block, even a one-instruction
     one, additionally absorbs the terminator's 1-instruction charge into
     its batched [settle] ([fold_term]): terminators charge but never burn
     fuel or tick the transaction, and the category/in-tx flag cannot
     change between the segment's last instruction and the terminator (no
     calls or tx markers in between).  The watchdog
     fallback and any mid-segment raise never reach the terminator, so
     those paths keep the self-charging [term]. *)
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
      if !j >= n_body then compile_segment run ~next:term_free ~slow_next:term ~fold_term:true
      else begin
        let rest = compile_seq body !j ~term ~term_free in
        compile_segment run ~next:rest ~slow_next:rest ~fold_term:false
      end
    end
  and compile_segment (run : D.dinstr array) ~(next : code) ~(slow_next : code)
      ~fold_term : code =
    let n = Array.length run in
    if n = 1 && not fold_term then solo (get run 0) slow_next
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
      (* cost_prefix.(k): summed cost charged in exact mode after the
         segment's first [k] instructions — what reconciliation owes at
         [st.due = k]. *)
      let cost_prefix = Array.make (n + 1) 0 in
      for k = 0 to n - 1 do
        let di = get run k in
        cost_prefix.(k + 1) <- (cost_prefix.(k) + if di.D.elided then 0 else di.D.cost)
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
      (* Charge [cost] instructions and their cycles: the whole segment on
         completion, the due prefix when an instruction raises
         ([reconcile]). *)
      let settle st cost =
        if cost > 0 then charge_ix env (category_ix env st.frame) cost (cost * cpi)
      in
      let reconcile st = settle st (get cost_prefix st.due) in
      if not any_raiser then
        fun st ->
          match env.tx with
          | Some tx when n_tick > 0 ->
            if tx.Htm.instr_count + n_tick > tx_watchdog then slow st
            else begin
              Instance.burn inst n;
              tx.Htm.instr_count <- tx.Htm.instr_count + n_tick;
              sems st;
              settle st total_cost;
              next st
            end
          | _ ->
            Instance.burn inst n;
            sems st;
            settle st total_cost;
            next st
      else
        fun st ->
          match env.tx with
          | Some tx when n_tick > 0 ->
            if tx.Htm.instr_count + n_tick > tx_watchdog then slow st
            else begin
              Instance.burn inst n;
              tx.Htm.instr_count <- tx.Htm.instr_count + n_tick;
              st.due <- 0;
              (try sems st
               with e ->
                 reconcile st;
                 raise e);
              settle st total_cost;
              next st
            end
          | _ ->
            Instance.burn inst n;
            st.due <- 0;
            (try sems st
             with e ->
               reconcile st;
               raise e);
            settle st total_cost;
            next st
    end
  in
  (* Control flow.  Every CFG edge (pred -> succ) is one closure that runs
     the edge's phi copies and tail-calls the successor's body; a
     terminator tail-calls its edges, and [Ret] only stores the result, so
     an activation runs from its entry block to its [Ret] as one chain of
     tail calls.  Bodies are filled in below, and an edge reaches its
     successor's through the successor's [block] cell, which ties the
     CFG's cycles. *)
  let blocks = Array.map (fun _ -> { body = unit_code }) d.D.dblocks in
  let goto succ : code =
    let b = blocks.(succ) in
    fun st -> b.body st
  in
  (* A staged edge reads every source into the scratch buffers (ints
     through [D.iscratch]; the boxed buffer lives in the major heap, so
     staging a boxed value costs two slow-path write barriers), then writes
     every destination. *)
  let staged_edge (e : D.phi_edge) succ : code =
    let b = blocks.(succ) in
    let kinds = Array.map2 (copy_kind lay) e.D.dsts e.D.srcs in
    let slots a = Array.map (fun v -> lay.D.slot.(v)) a in
    let dsts = slots e.D.dsts and srcs = slots e.D.srcs in
    let scratch = d.D.scratch and iscratch = d.D.iscratch in
    let np = Array.length dsts in
    fun st ->
      let ints = st.ints and vals = st.vals in
      for i = 0 to np - 1 do
        let s = iget srcs i in
        let k = iget kinds i in
        if k = copy_int then iset iscratch i (iget ints s)
        else if k = copy_boxed then set scratch i (get vals s)
        else if k = box_int then set scratch i (Value.int_ (iget ints s))
        else set scratch i (Value.bool_ (iget ints s <> 0))
      done;
      for i = 0 to np - 1 do
        if iget kinds i = copy_int then iset ints (iget dsts i) (iget iscratch i)
        else set vals (iget dsts i) (get scratch i)
      done;
      b.body st
  in
  (* An unstaged edge's int group, specialized by count; it ends the edge. *)
  let int_copies dsts srcs succ : code =
    let b = blocks.(succ) in
    match (dsts, srcs) with
    | [||], _ -> goto succ
    | [| d0 |], [| s0 |] ->
      fun st ->
        let ints = st.ints in
        iset ints d0 (iget ints s0);
        b.body st
    | [| d0; d1 |], [| s0; s1 |] ->
      fun st ->
        let ints = st.ints in
        iset ints d0 (iget ints s0);
        iset ints d1 (iget ints s1);
        b.body st
    | [| d0; d1; d2 |], [| s0; s1; s2 |] ->
      fun st ->
        let ints = st.ints in
        iset ints d0 (iget ints s0);
        iset ints d1 (iget ints s1);
        iset ints d2 (iget ints s2);
        b.body st
    | _ ->
      let n = Array.length dsts in
      fun st ->
        let ints = st.ints in
        for i = 0 to n - 1 do
          iset ints (iget dsts i) (iget ints (iget srcs i))
        done;
        b.body st
  in
  (* An unstaged edge's boxed group: plain copies specialized by count, or
     a per-pair loop when some source is unboxed and must be boxed. *)
  let boxed_copies kinds dsts srcs (next : code) : code =
    if Array.exists (fun k -> k <> copy_boxed) kinds then begin
      let n = Array.length dsts in
      fun st ->
        let ints = st.ints and vals = st.vals in
        for i = 0 to n - 1 do
          let s = iget srcs i and dst = iget dsts i in
          let k = iget kinds i in
          if k = copy_boxed then set vals dst (get vals s)
          else if k = box_int then set vals dst (Value.int_ (iget ints s))
          else set vals dst (Value.bool_ (iget ints s <> 0))
        done;
        next st
    end
    else
      match (dsts, srcs) with
      | [||], _ -> next
      | [| d0 |], [| s0 |] ->
        fun st ->
          let vals = st.vals in
          set vals d0 (get vals s0);
          next st
      | [| d0; d1 |], [| s0; s1 |] ->
        fun st ->
          let vals = st.vals in
          set vals d0 (get vals s0);
          set vals d1 (get vals s1);
          next st
      | _ ->
        let n = Array.length dsts in
        fun st ->
          let vals = st.vals in
          for i = 0 to n - 1 do
            set vals (iget dsts i) (get vals (iget srcs i))
          done;
          next st
  in
  (* An edge whose in-order copy is already exact ([D.staged] false,
     decided at decode time on value ids, which distinct slots of one file
     preserve) runs as two in-order groups, the boxed group first (see the
     module doc).  The rest stage.  Exact mode stages every edge, an
     independent check of the [D.staged] rule and of the split. *)
  let edge pred succ : code =
    match incoming d ~pred ~succ with
    | None -> goto succ
    | Some e when exact || e.D.staged -> staged_edge e succ
    | Some e ->
      let g = split_by_file lay e in
      boxed_copies g.b_kinds g.b_dsts g.b_srcs (int_copies g.i_dsts g.i_srcs succ)
  in
  (* Terminator effect only — the 1-instruction charge is folded into a
     preceding segment's [settle] when possible, or wrapped on by the caller. *)
  let compile_term bid (t : L.terminator) : code =
    match t with
    | L.Jump tgt -> edge bid tgt
    | L.Br (cv, bt, bf) -> (
      let et = edge bid bt in
      let ef = if bf = bt then et else edge bid bf in
      match opnd cv with
      | D.Boxed, sc -> fun st -> if Value.truthy (get st.vals sc) then et st else ef st
      | _, sc -> fun st -> if iget st.ints sc <> 0 then et st else ef st)
    | L.Ret (Some rv) ->
      let rr, sr = opnd rv in
      fun st -> st.result <- rd_val st rr sr
    | L.Ret None -> unit_code
    | L.Unreachable ->
      fun _ -> raise (Interp.Runtime_error "reached unreachable block")
  in
  Array.iteri
    (fun bid (b : D.dblock) ->
      let term_free = compile_term bid b.D.dterm in
      let term st =
        charge env ~frame:st.frame ~cpi 1;
        term_free st
      in
      blocks.(bid).body <- compile_seq b.D.body 0 ~term ~term_free)
    d.D.dblocks;
  {
    t_entry = blocks.(d.D.entry).body;
    t_nint = lay.D.n_int;
    t_nboxed = lay.D.n_boxed;
    t_tier = tier;
    t_exact = exact;
  }

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
      ints = Array.make tf.t_nint 0;
      vals = Array.make tf.t_nboxed Value.Undef;
      overflowed = [||];
      this;
      argv;
      nargs = Array.length argv;
      frame;
      result = Value.Undef;
      due = 0;
    }
  in
  let run () =
    tf.t_entry st;
    st.result
  in
  run_with_exits env ~fid:c.Specialize.lir.L.fid ~frame run
