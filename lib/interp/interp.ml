(** The bytecode semantic engine, serving as both the Interpreter tier and
    the Baseline tier.

    Both tiers execute identical semantics; they differ in:
    - cost: the Interpreter charges a dispatch overhead plus generic runtime
      work per op; Baseline has no dispatch and uses inline caches, so its
      dynamic cost depends on whether the fast path hit;
    - profiling: Baseline records type/shape feedback and loop trip counts
      for the optimizing tiers (JavaScriptCore does the same).

    The engine is resumable at an arbitrary pc with a prefilled register
    frame — that is exactly what an OSR exit from optimized code needs. *)

open Nomap_runtime
module Opcode = Nomap_bytecode.Opcode
module Feedback = Nomap_profile.Feedback
module Hot = Nomap_util.Hot

exception Runtime_error of string

type mode = Interp_tier | Baseline_tier | Native_tier
(** [Native_tier] charges what an ahead-of-time C compilation of the same
    program would: no dispatch, no boxing, no checks.  It provides Figure
    1's "C" reference bound. *)

(** Services the enclosing VM provides to the engine. *)
type env = {
  instance : Instance.t;
  mode : mode;
  profile : Feedback.t option;  (** present in Baseline mode *)
  charge : int -> unit;  (** account simulated machine instructions *)
  call : fid:int -> this:Value.t -> args:Value.t list -> Value.t;
}

(* ------------------------------------------------------------------ *)
(* Cost model (simulated x86-64 instruction counts per bytecode op).
   Interpreter ops pay [dispatch] plus generic-path work; Baseline pays
   IC-aware dynamic costs.  These constants position Table I; everything
   downstream is measured, not assumed. *)

let dispatch = 7

let interp_cost (op : Opcode.op) =
  dispatch
  +
  match op with
  | Load_const _ | Move _ | Load_global _ | Store_global _ -> 2
  | Binop _ -> 20
  | Unop _ -> 12
  | Get_prop _ -> 26
  | Set_prop _ -> 28
  | Get_elem _ -> 22
  | Set_elem _ -> 26
  | Get_length _ -> 12
  | New_object _ | New_array _ -> 36
  | Call _ | New_call _ -> 34
  | Call_method _ -> 38
  | Call_intrinsic _ -> 9
  | Jump _ | Jump_if_false _ | Jump_if_true _ -> 3
  | Return _ -> 5

(* Baseline costs: cheap when the inline cache / int fast path hits. *)
let baseline_fast = function
  | Opcode.Load_const _ | Opcode.Move _ | Opcode.Load_global _ | Opcode.Store_global _ -> 3
  | Opcode.Binop _ -> 9  (* type-check both operands + int op + overflow check *)
  | Opcode.Unop _ -> 7
  | Opcode.Get_prop _ -> 9  (* shape compare + slot load + value profiling *)
  | Opcode.Set_prop _ -> 10
  | Opcode.Get_elem _ -> 12  (* type + bounds + hole checks + load *)
  | Opcode.Set_elem _ -> 13
  | Opcode.Get_length _ -> 7
  | Opcode.New_object _ | Opcode.New_array _ -> 32
  | Opcode.Call _ | Opcode.New_call _ -> 24
  | Opcode.Call_method _ -> 28
  | Opcode.Call_intrinsic _ -> 7
  | Opcode.Jump _ | Opcode.Jump_if_false _ | Opcode.Jump_if_true _ -> 3
  | Opcode.Return _ -> 5

let baseline_slow op = interp_cost op + 6  (* IC miss: dispatch to runtime *)

(* What a C compiler would emit for the same operation. *)
let native_cost (op : Opcode.op) =
  match op with
  | Load_const _ | Move _ | Load_global _ | Store_global _ -> 1
  | Binop _ | Unop _ -> 1
  | Get_prop _ | Set_prop _ -> 1  (* struct field *)
  | Get_elem _ | Set_elem _ -> 2
  | Get_length _ -> 1
  | New_object _ | New_array _ -> 10
  | Call _ | New_call _ -> 3
  | Call_method _ -> 4
  | Call_intrinsic _ -> 2
  | Jump _ | Jump_if_false _ | Jump_if_true _ -> 1
  | Return _ -> 2

(* Cost classes.  Every op in a class costs the same under each model
   above, so the op loop charges [fast.(k)] or [slow.(k)] for its class
   [k] from tables resolved once per mode, instead of calling a cost
   function per op. *)

let k_move = 0 (* Load_const, Move, Load_global, Store_global *)
let k_binop = 1
let k_unop = 2
let k_get_prop = 3
let k_set_prop = 4
let k_get_elem = 5
let k_set_elem = 6
let k_get_length = 7
let k_alloc = 8 (* New_object, New_array *)
let k_call = 9 (* Call, New_call *)
let k_call_method = 10
let k_call_intrinsic = 11
let k_jump = 12 (* Jump, Jump_if_false, Jump_if_true *)
let k_return = 13

(* One op per class, in class order. *)
let class_ops : Opcode.op array =
  [|
    Move (0, 0); Binop (Add, 0, 0, 0); Unop (Neg, 0, 0); Get_prop (0, 0, "");
    Set_prop (0, "", 0); Get_elem (0, 0, 0); Set_elem (0, 0, 0); Get_length (0, 0);
    New_object 0; Call (0, 0, []); Call_method (0, 0, "", []);
    Call_intrinsic (0, Intrinsics.Math_floor, []); Jump 0; Return None;
  |]

let interp_costs = Array.map interp_cost class_ops
let baseline_fast_costs = Array.map baseline_fast class_ops
let baseline_slow_costs = Array.map baseline_slow class_ops
let native_costs = Array.map native_cost class_ops

(** Per-class cost of an op that took its fast path (an IC hit, an int
    operand pair); only Baseline charges a slow path differently. *)
let fast_costs = function
  | Interp_tier -> interp_costs
  | Baseline_tier -> baseline_fast_costs
  | Native_tier -> native_costs

let slow_costs = function
  | Interp_tier -> interp_costs
  | Baseline_tier -> baseline_slow_costs
  | Native_tier -> native_costs

let[@inline] cost fast slow k ok = Hot.iget (if ok then fast else slow) k

(* The loop's unchecked register-file and code reads and writes, typed:
   the polymorphic [Hot.get]/[set] test every array for the float tag,
   while at these element types a read is one load.  Same audit contract
   as [Hot]: [NOMAP_CHECKED_HOT=1] bounds-checks them. *)
let[@inline] reg (a : Value.t array) i = if Hot.checked then a.(i) else Array.unsafe_get a i

let[@inline] set_reg (a : Value.t array) i v =
  if Hot.checked then a.(i) <- v else Array.unsafe_set a i v

let[@inline] op_at (a : Opcode.op array) pc = if Hot.checked then a.(pc) else Array.unsafe_get a pc

(* Conditions are mostly comparison results. *)
let[@inline] truthy = function Value.Bool b -> b | v -> Value.truthy v

(* ------------------------------------------------------------------ *)

let[@inline] is_int = function Value.Int _ -> true | _ -> false

let[@inline] both_int a b = is_int a && is_int b

(* A Binop fast path exists when both operands are ints (arith/cmp) — the
   Baseline IC handles that inline. *)
let binop_fast (op : Nomap_jsir.Ast.binop) a b =
  match op with
  | Add | Sub | Mul | Lt | Le | Gt | Ge | Eq | Ne -> both_int a b
  | Band | Bor | Bxor | Shl | Shr | Ushr -> both_int a b
  | Div | Mod -> false

(** A call's argument values, read from the frame in order. *)
let rec arg_values (regs : Value.t array) = function
  | [] -> []
  | r :: rest -> reg regs r :: arg_values regs rest

(** Known-arity intrinsic evaluation: the 0/1/2-argument calls build no
    argument list ([Intrinsics.eval0/1/2] replicate [eval] exactly). *)
let eval_intrinsic heap intr (recv : Value.t) (regs : Value.t array) args =
  try
    match args with
    | [] -> Intrinsics.eval0 heap intr recv
    | [ a ] -> Intrinsics.eval1 heap intr recv (reg regs a)
    | [ a; b ] -> Intrinsics.eval2 heap intr recv (reg regs a) (reg regs b)
    | _ -> Intrinsics.eval heap intr recv (arg_values regs args)
  with Intrinsics.Type_error m -> raise (Runtime_error m)

(** Execute function [fid] from [entry_pc] with the given register frame.
    [regs] must have length [>= f.nregs]; on a fresh call the caller seeds
    this/params.  Returns the function result.

    Register, constant, global and pc indices come from the bytecode
    compiler and are in range by construction, so the loop reads them
    unchecked ([reg], [op_at]).  Property and method sites go through the instance's
    host inline caches ([Ic]); every hook and charge happens in the order
    the generic helpers produce. *)
let run_from env ~fid ~entry_pc ~(regs : Value.t array) : Value.t =
  let inst = env.instance in
  let heap = inst.Instance.heap in
  let code = (Instance.func inst fid).Opcode.code in
  let consts = inst.Instance.consts.(fid) in
  let globals = inst.Instance.globals in
  let ics = inst.Instance.ics.(fid) in
  let charge = env.charge in
  let fast = fast_costs env.mode and slow = slow_costs env.mode in
  (* Baseline profiling: [sites.(pc)] is the op's feedback site, and every
     control edge goes to the function's per-pc loop counters. *)
  let fp =
    match env.profile with
    | Some p -> Some (Feedback.func_profile p fid)
    | None -> None
  in
  let profiling = Option.is_some fp in
  let sites = match fp with Some p -> p.Feedback.sites | None -> [||] in
  let result = ref Value.Undef in
  let pc = ref entry_pc in
  let running = ref true in
  (match fp with Some fp -> Feedback.record_edge fp ~from:(-1) ~target:entry_pc | None -> ());
  while !running do
    let cur = !pc in
    Instance.burn inst 1;
    let next = ref (cur + 1) in
    (match op_at code cur with
    | Load_const (d, i) ->
      charge (Hot.iget fast k_move);
      set_reg regs d (reg consts i)
    | Move (d, s) ->
      charge (Hot.iget fast k_move);
      set_reg regs d (reg regs s)
    | Load_global (d, g) ->
      charge (Hot.iget fast k_move);
      set_reg regs d (reg globals g)
    | Store_global (g, s) ->
      charge (Hot.iget fast k_move);
      set_reg globals g (reg regs s)
    | Binop (bop, d, a, b) ->
      let va = reg regs a and vb = reg regs b in
      charge (cost fast slow k_binop (binop_fast bop va vb));
      let r = Ops.apply_binop heap bop va vb in
      (if profiling then begin
        let s = sites.(cur) in
        Feedback.record_class s va;
        Feedback.record_class s vb;
        Feedback.record_result s r;
        (* Int operands producing a double means int32 overflow here. *)
        if both_int va vb && (match r with Value.Num _ -> true | _ -> false) then
          Feedback.record_overflow s
      end);
      set_reg regs d r
    | Unop (uop, d, a) ->
      let va = reg regs a in
      charge (cost fast slow k_unop (is_int va));
      (if profiling then Feedback.record_class sites.(cur) va);
      set_reg regs d (Ops.apply_unop uop va)
    | Get_prop (d, o, name) -> (
      match reg regs o with
      | Value.Obj obj ->
        (* The slot load only: no shape-word read on this path. *)
        let slot = Ic.find_slot heap ics.(cur) obj name in
        if slot >= 0 then begin
          charge (Hot.iget fast k_get_prop);
          (if profiling then
             Feedback.record_load_slot sites.(cur) obj.Value.shape.Shape.id slot);
          set_reg regs d (Heap.load_slot heap obj slot)
        end
        else begin
          charge (Hot.iget slow k_get_prop);
          set_reg regs d Value.Undef
        end
      | v ->
        (* Property reads on non-objects: only .length-bearing types give
           anything; everything else is undefined. *)
        charge (Hot.iget slow k_get_prop);
        (if profiling then Feedback.record_class sites.(cur) v);
        set_reg regs d Value.Undef)
    | Set_prop (o, name, v) -> (
      match reg regs o with
      | Value.Obj obj ->
        let c = ics.(cur) in
        let sh = obj.Value.shape in
        let slot = Ic.set_slot heap c obj name in
        charge (cost fast slow k_set_prop (slot >= 0));
        Ic.store heap c obj name slot (reg regs v);
        if profiling then begin
          let s = sites.(cur) in
          if slot >= 0 then Feedback.record_store_slot s sh.Shape.id slot
          else
            let nsh = obj.Value.shape in
            Feedback.record_transition s sh.Shape.id ~target:nsh.Shape.id
              (nsh.Shape.prop_count - 1)
        end
      | v' -> raise (Runtime_error ("cannot set property on " ^ Value.type_name v')))
    | Get_elem (d, a, i) -> (
      let va = reg regs a and vi = reg regs i in
      match (va, vi) with
      | Value.Arr arr, Value.Int idx ->
        let oob = idx < 0 || idx >= arr.Value.alen in
        let v = Heap.get_elem heap arr idx in
        (* The hole test is a second element load. *)
        let hole =
          (not oob) && match Heap.load_elem heap arr idx with Value.Hole -> true | _ -> false
        in
        charge (cost fast slow k_get_elem (not (oob || hole)));
        (if profiling then begin
          let s = sites.(cur) in
          Feedback.record_class s va;
          Feedback.record_class s vi;
          if oob then Feedback.record_oob s;
          if hole then Feedback.record_hole s;
          Feedback.record_result s v
        end);
        set_reg regs d v
      | Value.Arr arr, _ ->
        charge (Hot.iget slow k_get_elem);
        (if profiling then begin
          let s = sites.(cur) in
          Feedback.record_class s va;
          Feedback.record_class s vi
        end);
        let idx = Value.to_int32 vi in
        set_reg regs d
          (if float_of_int idx = Value.to_number vi then Heap.get_elem heap arr idx
           else Value.Undef)
      | Value.Str str, Value.Int idx ->
        charge (Hot.iget slow k_get_elem);
        (if profiling then Feedback.record_class sites.(cur) va);
        let data = str.Value.sdata in
        set_reg regs d
          (if idx >= 0 && idx < String.length data then
             Heap.str heap (String.make 1 data.[idx])
           else Value.Undef)
      | v, _ -> raise (Runtime_error ("cannot index " ^ Value.type_name v)))
    | Set_elem (a, i, v) -> (
      let va = reg regs a and vi = reg regs i in
      match (va, vi) with
      | Value.Arr arr, Value.Int idx ->
        let elongates = idx >= arr.Value.alen in
        charge (cost fast slow k_set_elem (not elongates));
        (if profiling then begin
          let s = sites.(cur) in
          Feedback.record_class s va;
          Feedback.record_class s vi;
          if elongates then Feedback.record_elongation s
        end);
        Heap.set_elem heap arr idx (reg regs v)
      | Value.Arr arr, _ ->
        charge (Hot.iget slow k_set_elem);
        let idx = Value.to_int32 vi in
        if float_of_int idx = Value.to_number vi then Heap.set_elem heap arr idx (reg regs v)
      | v', _ -> raise (Runtime_error ("cannot index-assign " ^ Value.type_name v')))
    | Get_length (d, x) -> (
      let vx = reg regs x in
      (if profiling then Feedback.record_class sites.(cur) vx);
      match vx with
      | Value.Str s ->
        charge (Hot.iget fast k_get_length);
        set_reg regs d (Value.int_ (String.length s.Value.sdata))
      | Value.Arr a ->
        charge (Hot.iget fast k_get_length);
        set_reg regs d (Value.int_ a.Value.alen)
      | Value.Obj obj ->
        charge (Hot.iget slow k_get_length);
        set_reg regs d (Ic.get_prop heap ics.(cur) obj "length")
      | v -> raise (Runtime_error ("no length on " ^ Value.type_name v)))
    | New_object d ->
      charge (Hot.iget fast k_alloc);
      set_reg regs d (Value.Obj (Heap.alloc_object heap))
    | New_array (d, n) ->
      charge (Hot.iget fast k_alloc);
      let len = Value.to_int32 (reg regs n) in
      if len < 0 then raise (Runtime_error "negative array length");
      set_reg regs d (Value.Arr (Heap.alloc_array heap len))
    | Call (d, callee, args) ->
      charge (Hot.iget fast k_call);
      set_reg regs d (env.call ~fid:callee ~this:Value.Undef ~args:(arg_values regs args))
    | New_call (d, callee, args) ->
      charge (Hot.iget fast k_call);
      let obj = Value.Obj (Heap.alloc_object heap) in
      let r = env.call ~fid:callee ~this:obj ~args:(arg_values regs args) in
      set_reg regs d (match r with Value.Undef -> obj | v -> v)
    | Call_method (d, recv, name, args) -> (
      let vrecv = reg regs recv in
      let c = ics.(cur) in
      match Ic.method_of c vrecv name with
      | Some intr ->
        charge (Hot.iget fast k_call_method);
        charge
          (Intrinsics.cost intr
          + Intrinsics.dynamic_cost_argc intr vrecv ~argc:(List.length args));
        (if profiling then Feedback.record_class sites.(cur) vrecv);
        set_reg regs d (eval_intrinsic heap intr vrecv regs args)
      | None -> (
        match vrecv with
        | Value.Obj obj -> (
          (* Method dispatch reads the slot only, like [Get_prop]. *)
          let slot = Ic.find_slot heap c obj name in
          if slot < 0 then raise (Runtime_error ("no method " ^ name));
          match Heap.load_slot heap obj slot with
          | Value.Fun fid' ->
            charge (Hot.iget fast k_call_method);
            (if profiling then begin
              let s = sites.(cur) in
              Feedback.record_load_slot s obj.Value.shape.Shape.id slot;
              Feedback.record_callee s fid'
            end);
            set_reg regs d (env.call ~fid:fid' ~this:vrecv ~args:(arg_values regs args))
          | v ->
            raise
              (Runtime_error
                 (Printf.sprintf "%s is not a function (%s)" name (Value.type_name v))))
        | v ->
          raise
            (Runtime_error (Printf.sprintf "no method %s on %s" name (Value.type_name v)))))
    | Call_intrinsic (d, intr, args) ->
      charge (Hot.iget fast k_call_intrinsic);
      charge
        (Intrinsics.cost intr
        + Intrinsics.dynamic_cost_argc intr Value.Undef ~argc:(List.length args));
      set_reg regs d (eval_intrinsic heap intr Value.Undef regs args)
    | Jump t ->
      charge (Hot.iget fast k_jump);
      next := t
    | Jump_if_false (c, t) ->
      charge (Hot.iget fast k_jump);
      if not (truthy (reg regs c)) then next := t
    | Jump_if_true (c, t) ->
      charge (Hot.iget fast k_jump);
      if truthy (reg regs c) then next := t
    | Return r ->
      charge (Hot.iget fast k_return);
      result := (match r with Some r -> reg regs r | None -> Value.Undef);
      running := false);
    if !running then begin
      (match fp with Some fp -> Feedback.record_edge fp ~from:cur ~target:!next | None -> ());
      pc := !next
    end
  done;
  !result

let rec fill_params regs nparams i = function
  | v :: rest when i < nparams ->
    regs.(i + 1) <- v;
    fill_params regs nparams (i + 1) rest
  | _ -> ()

(** Fresh frame for calling [fid]: this in r0, params from r1, rest undefined. *)
let make_frame inst ~fid ~this ~args =
  let f = Instance.func inst fid in
  let regs = Array.make (Int.max 1 f.Opcode.nregs) Value.Undef in
  regs.(0) <- this;
  fill_params regs f.Opcode.nparams 0 args;
  regs

(** Call [fid] from the top in this engine. *)
let call_function env ~fid ~this ~args =
  (match env.profile with
  | Some p ->
    let fp = Feedback.func_profile p fid in
    fp.Feedback.call_count <- fp.Feedback.call_count + 1
  | None -> ());
  let regs = make_frame env.instance ~fid ~this ~args in
  run_from env ~fid ~entry_pc:0 ~regs
