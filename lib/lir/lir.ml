(** LIR — the SSA intermediate representation of the optimizing tiers (our
    stand-in for DFG IR / LLVM IR in JavaScriptCore's DFG and FTL).

    Key paper-relevant design points:

    - Speculative checks are value-producing instructions ([Check_int v]
      returns [v] refined to int32).  A failing check transfers control out
      of optimized code via its [exit]: either [Deopt] — OSR-exit to the
      Baseline tier at [smp.resume_pc] with the live map materialized — or
      [Abort] — roll back the enclosing hardware transaction and restart the
      region in Baseline (the NoMap conversion).

    - A [Deopt] check is a *stack map point*: the optimizer must treat it as
      a full memory barrier and keep its live map alive, which is exactly
      the optimization-blocking effect the paper measures.  An [Abort] check
      constrains almost nothing: it may be moved, combined or sunk within
      its transaction because a rollback discards all speculative state.

    - Integer arithmetic ([Iadd]...) may overflow int32; the executing
      machine tags the produced value, and [Check_overflow] tests the tag.
      Under the Sticky Overflow Flag (paper §IV-C2) the checks are deleted
      and [Tx_end] tests the accumulated flag instead. *)

module Value = Nomap_runtime.Value

type v = int  (** SSA value = id of the producing instruction *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type exit_kind =
  | Deopt  (** OSR-exit to Baseline: a stack map point *)
  | Abort  (** transactional abort: no stack map needed *)

type smp = {
  smp_id : int;
  resume_pc : int;  (** bytecode index where Baseline resumes *)
  mutable live : (int * v) list;  (** baseline register -> SSA value *)
}

type exit = { ekind : exit_kind; smp : smp }

type check_kind = Bounds | Overflow | Type | Property | Hole | Path

(** Generic runtime helpers (slow paths); executed as C-runtime/lower-tier
    code, i.e. category NoFTL in the paper's accounting. *)
type rt_call =
  | Rt_binop of Nomap_jsir.Ast.binop
  | Rt_unop of Nomap_jsir.Ast.unop
  | Rt_get_prop of string
  | Rt_set_prop of string
  | Rt_get_elem
  | Rt_set_elem
  | Rt_get_length
  | Rt_method of string  (** dynamic method dispatch *)
  | Rt_intrinsic of Nomap_runtime.Intrinsics.t

type kind =
  | Nop  (** deleted instruction *)
  | Param of int  (** bytecode register (0 = this) seeded at function entry *)
  | Const of Value.t
  | Phi of (int * v) list  (** (predecessor block, value) pairs *)
  (* Speculated int32 arithmetic; result is tagged on overflow. *)
  | Iadd of v * v
  | Isub of v * v
  | Imul of v * v
  | Ineg of v
  (* Wrapping (flag-free) int32 add/sub: used when every consumer truncates
     to int32 anyway, so overflow checks were elided at compile time (the
     JSC (a+b)|0 pattern).  These never set the overflow tag or the SOF. *)
  | Iadd_wrap of v * v
  | Isub_wrap of v * v
  (* Double arithmetic; results are canonicalized numbers. *)
  | Fadd of v * v
  | Fsub of v * v
  | Fmul of v * v
  | Fdiv of v * v
  | Fmod of v * v
  | Fneg of v
  (* Bitwise ops on int32. *)
  | Band of v * v
  | Bor of v * v
  | Bxor of v * v
  | Bnot of v
  | Shl of v * v
  | Shr of v * v
  | Ushr of v * v
  | Cmp of cmp * v * v  (** numeric comparison, Bool result *)
  | Not of v  (** boolean negation of truthiness *)
  (* Memory fast paths (legal only after the guarding checks). *)
  | Load_slot of v * int
  | Store_slot of v * int * v
  | Store_transition of v * string * int * v
      (** object, property added, slot written, value: the add-property fast
          path after a shape check (JSC's transition inline cache) *)
  | Load_elem of v * v
  | Store_elem of v * v * v
  | Load_length of v
  | Str_length of v
  | Load_char_code of v * v
  | Load_global of int
  | Store_global of int * v
  (* Checks: value-producing speculation guards. *)
  | Check_int of v * exit
  | Check_number of v * exit  (** int or double *)
  | Check_string of v * exit
  | Check_array of v * exit
  | Check_shape of v * int * exit  (** object with exactly this shape *)
  | Check_fun_eq of v * int * exit  (** value is function [fid] *)
  | Check_bounds of v * v * exit  (** array, int index; returns index *)
  | Check_str_bounds of v * v * exit
  | Check_not_hole of v * v * exit
  | Check_overflow of v * exit  (** the int-op result that may have overflowed *)
  | Check_cond of v * bool * exit  (** speculated branch direction *)
  (* Calls. *)
  | Call_func of int * v list  (** known global function *)
  | Call_method of int * v * v list  (** devirtualized: fid, this, args *)
  | Ctor_call of int * v list  (** new F(args): allocates this, calls, returns it *)
  | Call_runtime of rt_call * v * v list  (** receiver (or v_undef) + args *)
  | Intrinsic of Nomap_runtime.Intrinsics.t * v list  (** pure math fast path *)
  | Alloc_object
  | Alloc_array of v
  (* Transactions (NoMap). *)
  | Tx_begin of smp
  | Tx_end

type terminator =
  | Jump of int
  | Br of v * int * int  (** if truthy v then b1 else b2 *)
  | Ret of v option
  | Unreachable

type instr = {
  id : int;
  mutable kind : kind;
  mutable block : int;
  mutable elided : bool;
      (** executes for free: keeps its (guard) semantics but contributes no
          machine instructions or cycles.  Set by the NoMap_BC limit study,
          which models checks whose *cost* hardware removed — deleting the
          guard outright would change observable behavior whenever the
          check would actually have failed. *)
}

type block = {
  bid : int;
  mutable instrs : v list;  (** in execution order; phis first *)
  mutable term : terminator;
  mutable preds : int list;
}

type func = {
  fid : int;  (** bytecode function id this code was compiled from *)
  instrs : instr Nomap_util.Vec.t;
  blocks : block Nomap_util.Vec.t;
  mutable entry : int;
  mutable next_smp : int;
  mutable tx_aware : bool;  (** compiled with NoMap transaction knowledge *)
}

(* The vectors' padding, shared by every function and never read.  A
   fresh dummy per function would be young when a vector grows past 256
   slots, and [Array.make] of a young element that long forces a minor
   collection, which in OCaml 5 stops every domain. *)
let dummy_instr = { id = -1; kind = Nop; block = -1; elided = false }
let dummy_block = { bid = -1; instrs = []; term = Unreachable; preds = [] }

let create_func ~fid =
  {
    fid;
    instrs = Nomap_util.Vec.create ~dummy:dummy_instr;
    blocks = Nomap_util.Vec.create ~dummy:dummy_block;
    entry = 0;
    next_smp = 0;
    tx_aware = false;
  }

let instr f v = Nomap_util.Vec.get f.instrs v
let block f b = Nomap_util.Vec.get f.blocks b
let kind_of f v = (instr f v).kind

let new_block f =
  let bid = Nomap_util.Vec.length f.blocks in
  let b = { bid; instrs = []; term = Unreachable; preds = [] } in
  ignore (Nomap_util.Vec.push f.blocks b);
  b

let new_instr f kind =
  let id = Nomap_util.Vec.length f.instrs in
  let i = { id; kind; block = -1; elided = false } in
  ignore (Nomap_util.Vec.push f.instrs i);
  i

let fresh_smp f ~resume_pc ~live =
  let s = { smp_id = f.next_smp; resume_pc; live } in
  f.next_smp <- f.next_smp + 1;
  s

(* ------------------------------------------------------------------ *)
(* Structural queries *)

let successors = function
  | Jump b -> [ b ]
  | Br (_, b1, b2) -> [ b1; b2 ]
  | Ret _ | Unreachable -> []

(** SSA values read by an instruction, excluding SMP live maps. *)
let uses = function
  | Nop | Param _ | Const _ | Load_global _ | Alloc_object | Tx_begin _ | Tx_end -> []
  | Phi ins -> List.map snd ins
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Iadd_wrap (a, b) | Isub_wrap (a, b)
  | Fadd (a, b) | Fsub (a, b) | Fmul (a, b) | Fdiv (a, b) | Fmod (a, b)
  | Band (a, b) | Bor (a, b) | Bxor (a, b)
  | Shl (a, b) | Shr (a, b) | Ushr (a, b)
  | Cmp (_, a, b)
  | Load_elem (a, b)
  | Load_char_code (a, b) -> [ a; b ]
  | Ineg a | Fneg a | Bnot a | Not a | Load_slot (a, _) | Load_length a | Str_length a
  | Store_global (_, a) | Alloc_array a -> [ a ]
  | Store_slot (o, _, x) | Store_transition (o, _, _, x) -> [ o; x ]
  | Store_elem (a, i, x) -> [ a; i; x ]
  | Check_int (a, _) | Check_number (a, _) | Check_string (a, _) | Check_array (a, _)
  | Check_shape (a, _, _) | Check_fun_eq (a, _, _) | Check_overflow (a, _)
  | Check_cond (a, _, _) -> [ a ]
  | Check_bounds (a, i, _) | Check_str_bounds (a, i, _) | Check_not_hole (a, i, _) -> [ a; i ]
  | Call_func (_, args) | Ctor_call (_, args) -> args
  | Call_method (_, this, args) -> this :: args
  | Call_runtime (_, recv, args) -> recv :: args
  | Intrinsic (_, args) -> args

(** [List.exists p (uses k)], without building the list. *)
let exists_use p = function
  | Nop | Param _ | Const _ | Load_global _ | Alloc_object | Tx_begin _ | Tx_end -> false
  | Phi ins -> List.exists (fun (_, v) -> p v) ins
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Iadd_wrap (a, b) | Isub_wrap (a, b)
  | Fadd (a, b) | Fsub (a, b) | Fmul (a, b) | Fdiv (a, b) | Fmod (a, b)
  | Band (a, b) | Bor (a, b) | Bxor (a, b)
  | Shl (a, b) | Shr (a, b) | Ushr (a, b)
  | Cmp (_, a, b)
  | Load_elem (a, b)
  | Load_char_code (a, b)
  | Store_slot (a, _, b) | Store_transition (a, _, _, b)
  | Check_bounds (a, b, _) | Check_str_bounds (a, b, _) | Check_not_hole (a, b, _) -> p a || p b
  | Ineg a | Fneg a | Bnot a | Not a | Load_slot (a, _) | Load_length a | Str_length a
  | Store_global (_, a) | Alloc_array a
  | Check_int (a, _) | Check_number (a, _) | Check_string (a, _) | Check_array (a, _)
  | Check_shape (a, _, _) | Check_fun_eq (a, _, _) | Check_overflow (a, _)
  | Check_cond (a, _, _) -> p a
  | Store_elem (a, i, x) -> p a || p i || p x
  | Call_func (_, args) | Ctor_call (_, args) | Intrinsic (_, args) -> List.exists p args
  | Call_method (_, recv, args) | Call_runtime (_, recv, args) -> p recv || List.exists p args

(** SSA values an SMP must keep alive (for Deopt exits only: Abort rolls
    back to the transaction entry, so per-check live maps are not needed —
    the register-pressure relief the paper describes in §III-A3). *)
let smp_uses = function
  | Check_int (_, e) | Check_number (_, e) | Check_string (_, e) | Check_array (_, e)
  | Check_shape (_, _, e) | Check_fun_eq (_, _, e) | Check_bounds (_, _, e)
  | Check_str_bounds (_, _, e) | Check_not_hole (_, _, e) | Check_overflow (_, e)
  | Check_cond (_, _, e) ->
    if e.ekind = Deopt then List.map snd e.smp.live else []
  | Tx_begin smp -> List.map snd smp.live
  | _ -> []

let exit_of = function
  | Check_int (_, e) | Check_number (_, e) | Check_string (_, e) | Check_array (_, e)
  | Check_shape (_, _, e) | Check_fun_eq (_, _, e) | Check_bounds (_, _, e)
  | Check_str_bounds (_, _, e) | Check_not_hole (_, _, e) | Check_overflow (_, e)
  | Check_cond (_, _, e) -> Some e
  | _ -> None

let is_check k = exit_of k <> None

let check_kind_name = function
  | Bounds -> "Bounds"
  | Overflow -> "Overflow"
  | Type -> "Type"
  | Property -> "Property"
  | Hole -> "Hole"
  | Path -> "Path"

(** The checked value a check refines (its result aliases this value). *)
let checked_value = function
  | Check_int (a, _) | Check_number (a, _) | Check_string (a, _) | Check_array (a, _)
  | Check_shape (a, _, _) | Check_fun_eq (a, _, _) | Check_overflow (a, _)
  | Check_cond (a, _, _) -> Some a
  | Check_bounds (_, i, _) | Check_str_bounds (_, i, _) | Check_not_hole (_, i, _) -> Some i
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Effects, for the optimizer *)

type memory_effect =
  | Eff_none  (** pure computation *)
  | Eff_load of alias_class
  | Eff_store of alias_class
  | Eff_alloc  (** creates fresh memory; clobbers nothing existing *)
  | Eff_clobber  (** may read and write anything (calls, generic runtime) *)

and alias_class =
  | A_slot of int  (** property slot at this offset (any object) *)
  | A_shape  (** an object's shape word (changes only via transitions) *)
  | A_elem  (** any array element *)
  | A_array_header  (** array length *)
  | A_string  (** immutable string data *)
  | A_global of int

let memory_effect = function
  | Nop | Param _ | Const _ | Phi _ -> Eff_none
  | Iadd _ | Isub _ | Imul _ | Ineg _ | Iadd_wrap _ | Isub_wrap _
  | Fadd _ | Fsub _ | Fmul _ | Fdiv _ | Fmod _ | Fneg _
  | Band _ | Bor _ | Bxor _ | Bnot _ | Shl _ | Shr _ | Ushr _ | Cmp _ | Not _ -> Eff_none
  | Load_slot (_, slot) -> Eff_load (A_slot slot)
  | Store_slot (_, slot, _) -> Eff_store (A_slot slot)
  | Store_transition _ -> Eff_clobber  (* writes the shape word and a slot *)
  | Load_elem _ -> Eff_load A_elem
  | Store_elem _ -> Eff_store A_elem
  | Load_length _ -> Eff_load A_array_header
  | Str_length _ | Load_char_code _ -> Eff_load A_string
  | Load_global g -> Eff_load (A_global g)
  | Store_global (g, _) -> Eff_store (A_global g)
  | Check_int _ | Check_number _ | Check_string _ | Check_array _
  | Check_fun_eq _ | Check_overflow _ | Check_cond _ -> Eff_none
  | Check_shape _ -> Eff_load A_shape
  | Check_bounds _ -> Eff_load A_array_header
  | Check_str_bounds _ -> Eff_load A_string
  | Check_not_hole _ -> Eff_load A_elem
  | Call_func _ | Call_method _ | Ctor_call _ -> Eff_clobber
  | Call_runtime (rt, _, _) -> (
    match rt with
    | Rt_binop Nomap_jsir.Ast.Add -> Eff_alloc  (* string concat *)
    | Rt_binop _ | Rt_unop _ -> Eff_none
    | Rt_get_prop _ -> Eff_load (A_slot (-1))  (* unknown slot: any slot *)
    | Rt_get_elem -> Eff_load A_elem
    | Rt_get_length -> Eff_load A_array_header
    | Rt_set_prop _ | Rt_set_elem | Rt_method _ -> Eff_clobber
    | Rt_intrinsic i -> (
      match i with
      | Math_floor | Math_ceil | Math_round | Math_sqrt | Math_abs | Math_sin | Math_cos
      | Math_tan | Math_asin | Math_acos | Math_atan | Math_atan2 | Math_pow | Math_log
      | Math_exp | Math_min | Math_max | Global_is_nan -> Eff_none
      | Math_random -> Eff_clobber  (* advances PRNG state *)
      | Str_char_code_at | Str_char_at | Str_index_of -> Eff_load A_string
      | Str_substring | Str_to_lower | Str_to_upper | Str_split | Str_from_char_code
      | Global_parse_int | Global_parse_float -> Eff_alloc
      | Arr_push | Arr_pop -> Eff_clobber
      | Arr_join -> Eff_alloc
      | Global_print -> Eff_clobber
      (* Shared-segment memory is visible to other agents: nothing may be
         reordered, hoisted, or CSE'd across these. *)
      | Shared_read | Shared_write | Shared_size | Atomics_load | Atomics_store
      | Atomics_add | Atomics_sub | Atomics_exchange | Atomics_compare_exchange
      | Atomics_fence -> Eff_clobber))
  | Intrinsic (i, _) -> (
    match i with
    | Math_random -> Eff_clobber
    | i when Nomap_runtime.Intrinsics.is_shared i -> Eff_clobber
    | _ -> Eff_none)
  | Alloc_object | Alloc_array _ -> Eff_alloc
  | Tx_begin _ | Tx_end -> Eff_clobber  (* fences *)

(** May [store] change the result of [load]? (both alias classes) *)
let may_alias store load =
  match (store, load) with
  | A_slot a, A_slot b -> a = b || a = -1 || b = -1
  | A_shape, A_shape -> true
  | A_elem, A_elem -> true
  | A_array_header, A_array_header -> true
  | A_string, A_string -> false  (* strings are immutable *)
  | A_global a, A_global b -> a = b
  | _ -> false

(** Is this instruction removable if its result is unused?  Checks are not
    (they guard), stores/calls are not, allocations are. *)
let removable_if_unused k =
  match memory_effect k with
  | Eff_none | Eff_load _ | Eff_alloc -> not (is_check k)
  | Eff_store _ | Eff_clobber -> false

(** A deopt-exit check is a Stack Map Point and acts as a full memory
    barrier for code motion (paper §III-A3).  Abort-exit checks do not. *)
let is_smp_barrier k =
  match exit_of k with
  | Some { ekind = Deopt; _ } -> true
  | Some { ekind = Abort; _ } -> false
  | None -> ( match k with Tx_begin _ | Tx_end -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Iteration helpers *)

let iter_blocks f fn = Nomap_util.Vec.iter fn f.blocks

let iter_instrs f fn =
  iter_blocks f (fun b -> List.iter (fun v -> fn b (instr f v)) b.instrs)

(** Rewrite every use across the function (including SMP live maps) through
    [subst].  One pass over the whole function that rebuilds only the kinds,
    stack maps and terminators holding a value [subst] moves: passes with
    many rewrites must batch them through this rather than calling it per
    value. *)
let apply_substitution f subst =
  let moved v = subst v <> v in
  let moved_pair (_, v) = moved v in
  let subst_pair ((x, v) as p) = if moved v then (x, subst v) else p in
  let subst_smp smp = if List.exists moved_pair smp.live then smp.live <- List.map subst_pair smp.live in
  let rewrite = function
    | Phi ins -> Phi (List.map subst_pair ins)
    | Iadd (a, b) -> Iadd (subst a, subst b)
    | Isub (a, b) -> Isub (subst a, subst b)
    | Iadd_wrap (a, b) -> Iadd_wrap (subst a, subst b)
    | Isub_wrap (a, b) -> Isub_wrap (subst a, subst b)
    | Imul (a, b) -> Imul (subst a, subst b)
    | Ineg a -> Ineg (subst a)
    | Fadd (a, b) -> Fadd (subst a, subst b)
    | Fsub (a, b) -> Fsub (subst a, subst b)
    | Fmul (a, b) -> Fmul (subst a, subst b)
    | Fdiv (a, b) -> Fdiv (subst a, subst b)
    | Fmod (a, b) -> Fmod (subst a, subst b)
    | Fneg a -> Fneg (subst a)
    | Band (a, b) -> Band (subst a, subst b)
    | Bor (a, b) -> Bor (subst a, subst b)
    | Bxor (a, b) -> Bxor (subst a, subst b)
    | Bnot a -> Bnot (subst a)
    | Shl (a, b) -> Shl (subst a, subst b)
    | Shr (a, b) -> Shr (subst a, subst b)
    | Ushr (a, b) -> Ushr (subst a, subst b)
    | Cmp (c, a, b) -> Cmp (c, subst a, subst b)
    | Not a -> Not (subst a)
    | Load_slot (o, s) -> Load_slot (subst o, s)
    | Store_slot (o, s, x) -> Store_slot (subst o, s, subst x)
    | Store_transition (o, name, s, x) -> Store_transition (subst o, name, s, subst x)
    | Load_elem (a, i') -> Load_elem (subst a, subst i')
    | Store_elem (a, i', x) -> Store_elem (subst a, subst i', subst x)
    | Load_length a -> Load_length (subst a)
    | Str_length a -> Str_length (subst a)
    | Load_char_code (a, i') -> Load_char_code (subst a, subst i')
    | Store_global (g, x) -> Store_global (g, subst x)
    | Check_int (a, e) -> Check_int (subst a, e)
    | Check_number (a, e) -> Check_number (subst a, e)
    | Check_string (a, e) -> Check_string (subst a, e)
    | Check_array (a, e) -> Check_array (subst a, e)
    | Check_shape (a, s, e) -> Check_shape (subst a, s, e)
    | Check_fun_eq (a, fid, e) -> Check_fun_eq (subst a, fid, e)
    | Check_bounds (a, i', e) -> Check_bounds (subst a, subst i', e)
    | Check_str_bounds (a, i', e) -> Check_str_bounds (subst a, subst i', e)
    | Check_not_hole (a, i', e) -> Check_not_hole (subst a, subst i', e)
    | Check_overflow (a, e) -> Check_overflow (subst a, e)
    | Check_cond (a, d, e) -> Check_cond (subst a, d, e)
    | Call_func (fid, args) -> Call_func (fid, List.map subst args)
    | Ctor_call (fid, args) -> Ctor_call (fid, List.map subst args)
    | Call_method (fid, this, args) -> Call_method (fid, subst this, List.map subst args)
    | Call_runtime (rt, recv, args) -> Call_runtime (rt, subst recv, List.map subst args)
    | Intrinsic (i', args) -> Intrinsic (i', List.map subst args)
    | Alloc_array n -> Alloc_array (subst n)
    | (Nop | Param _ | Const _ | Load_global _ | Alloc_object | Tx_begin _ | Tx_end) as k -> k
  in
  Nomap_util.Vec.iter
    (fun i ->
      (match i.kind with
      | Check_int (_, e) | Check_number (_, e) | Check_string (_, e) | Check_array (_, e)
      | Check_shape (_, _, e) | Check_fun_eq (_, _, e) | Check_bounds (_, _, e)
      | Check_str_bounds (_, _, e) | Check_not_hole (_, _, e) | Check_overflow (_, e)
      | Check_cond (_, _, e) ->
        subst_smp e.smp
      | Tx_begin smp -> subst_smp smp
      | _ -> ());
      if exists_use moved i.kind then i.kind <- rewrite i.kind)
    f.instrs;
  iter_blocks f (fun b ->
      match b.term with
      | Br (c, t, e) when moved c -> b.term <- Br (subst c, t, e)
      | Ret (Some r) when moved r -> b.term <- Ret (Some (subst r))
      | _ -> ())

(** Rewrite every use of [old_v] to [new_v].  For a single value only —
    batch multiple rewrites through [apply_substitution]. *)
let replace_uses f ~old_v ~new_v =
  apply_substitution f (fun v -> if v = old_v then new_v else v)
