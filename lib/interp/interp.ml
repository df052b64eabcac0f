(** The bytecode engine, serving as the Interpreter tier, the Baseline
    tier and Figure 1's native ("C") reference.

    The three modes execute identical semantics; they differ in:
    - cost: the Interpreter charges a dispatch overhead plus generic runtime
      work per op; Baseline has no dispatch and uses inline caches, so its
      dynamic cost depends on whether the fast path hit; Native charges
      what an ahead-of-time C compilation would;
    - profiling: Baseline records type/shape feedback and loop trip counts
      for the optimizing tiers (JavaScriptCore does the same).

    {b One-pass compiler.}  Like V8's Sparkplug, the engine compiles each
    (function, mode) once, in one linear pass with no IR, into per-op OCaml
    closures that tail-call each other; there is no op loop.  Registers,
    constants, IC records and feedback sites are resolved at compile time,
    and Interpreter and Native closures contain no profiling code.  The
    code is cached on the [Instance], valid only for the [env] it was
    compiled against (DESIGN.md §13a).

    {b Settle points.}  An op is pure when it cannot raise, fires no heap
    hook, does not re-enter the VM and has a static cost: [Load_const],
    [Move], [Load_global], [Store_global] and [New_object], and outside
    Baseline also [Binop] and [Unop].  A pure op adds its fuel and cost to
    a pending sum fixed at compile time; every other op, every terminator
    and every fall-through into another block settles: it burns the
    pending fuel (an op its own too) and charges the pending cost before
    anything it does can be seen.  Charges are integer sums and no pure op can
    change the charge category, so a straight-line run burns and charges
    once and every counter stays what one charge per op gives.

    {b Control flow.}  Blocks start at pc 0, at jump targets and after
    terminators.  Jumps tail-call the target block through a mutable cell,
    [Return] returns, and the chain holds no [try], so an activation's
    OCaml stack does not grow per executed block.  In Baseline mode, a
    transfer to a loop header counts one entry or one iteration in the
    function's profile.

    {b Entries.}  Code is entered at pc 0, or at any pc with a prefilled
    register frame, which is exactly what an OSR exit from optimized code
    needs; an entry in mid-block is compiled on first use. *)

open Nomap_runtime
module Opcode = Nomap_bytecode.Opcode
module Feedback = Nomap_profile.Feedback
module Hot = Nomap_util.Hot

exception Runtime_error of string

type mode = Instance.mode = Interp_tier | Baseline_tier | Native_tier
(** [Native_tier] charges what an ahead-of-time C compilation of the same
    program would: no dispatch, no boxing, no checks.  It provides Figure
    1's "C" reference bound. *)

(** Services the enclosing VM provides to the engine. *)
type env = {
  instance : Instance.t;
  mode : mode;
  profile : Feedback.t option;  (** required in Baseline mode; no other mode profiles *)
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
   above, so the compiler reads [fast.(k)] or [slow.(k)] for an op's class
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

(* The compiled code's unchecked register-file reads and writes, typed:
   the polymorphic [Hot.get]/[set] test every array for the float tag,
   while at this element type a read is one load.  Same audit contract as
   [Hot]: [NOMAP_CHECKED_HOT=1] bounds-checks them. *)
let[@inline] reg (a : Value.t array) i = if Hot.checked then a.(i) else Array.unsafe_get a i

let[@inline] set_reg (a : Value.t array) i v =
  if Hot.checked then a.(i) <- v else Array.unsafe_set a i v

(* Conditions are mostly comparison results. *)
let[@inline] truthy = function Value.Bool b -> b | v -> Value.truthy v

(* ------------------------------------------------------------------ *)

let[@inline] is_int = function Value.Int _ -> true | _ -> false

let[@inline] both_int a b = is_int a && is_int b

(* A Binop has a fast path, taken when both operands are ints, unless it
   divides — the Baseline IC handles that inline. *)
let binop_has_fast_path (op : Nomap_jsir.Ast.binop) =
  match op with
  | Add | Sub | Mul | Lt | Le | Gt | Ge | Eq | Ne | Band | Bor | Bxor | Shl | Shr | Ushr -> true
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

(* An array read at a non-int32 index: the element when the index is
   exactly an int32, else undefined. *)
let elem_at_number heap (arr : Value.arr) vi =
  let idx = Value.to_int32 vi in
  if float_of_int idx = Value.to_number vi then Heap.get_elem heap arr idx else Value.Undef

let set_elem_at_number heap (arr : Value.arr) vi v =
  let idx = Value.to_int32 vi in
  if float_of_int idx = Value.to_number vi then Heap.set_elem heap arr idx v

let char_at heap (str : Value.jsstring) idx =
  let data = str.Value.sdata in
  if idx >= 0 && idx < String.length data then Heap.str heap (String.make 1 data.[idx])
  else Value.Undef

let[@inline] is_hole = function Value.Hole -> true | _ -> false
let[@inline] is_num = function Value.Num _ -> true | _ -> false

(** Burn a settle point's fuel and charge what the pure ops before it
    left pending. *)
let[@inline] settle inst charge fuel due =
  Instance.burn inst fuel;
  if due > 0 then charge due

(* ------------------------------------------------------------------ *)
(* The compiler *)

(** Compiled code: runs an activation from some pc on its register frame
    until its [Return], and returns the result. *)
type k = Value.t array -> Value.t

(** A block's closure, set once every block is compiled; jumps read it at
    run time, so a back edge can target a block compiled after it. *)
type block = { mutable run : k }

type body = {
  owner : env;  (** the env this body was compiled against; valid for no other *)
  leader : bool array;  (** per pc: a block starts here *)
  start : k;  (** the entry at pc 0 *)
  entries : k option array;  (** entries at other pcs, compiled on first use *)
  entry : int -> k;  (** compiles the entry at a pc *)
}

type Instance.code += Compiled of body

let unreached : k = fun _ -> invalid_arg "Interp: block entered before it was compiled"

(** Compile [fid] for [env]'s mode: one pass over the bytecode, blocks
    last to first, so a fall-through finds its successor compiled.

    Each op's closure is built with the fuel and cost that the pure ops
    before it in its block leave pending ([fuel], [due]).  A settle point
    whose first act is an unconditional charge adds [due] to that charge;
    one that can fire a hook, raise or charge conditionally first charges
    [due] on its own, so its own charge stays where one charge per op puts
    it (after [Get_elem]'s element loads, for example). *)
let compile env fid =
  let inst = env.instance in
  let heap = inst.Instance.heap and globals = inst.Instance.globals in
  let f = Instance.func inst fid in
  let code = f.Opcode.code in
  let n = Array.length code in
  let consts = inst.Instance.consts.(fid) and ics = inst.Instance.ics.(fid) in
  let charge = env.charge and call = env.call in
  let fast = fast_costs env.mode and slow = slow_costs env.mode in
  let fp =
    match (env.mode, env.profile) with
    | Baseline_tier, Some p -> Some (Feedback.func_profile p fid)
    | Baseline_tier, None -> invalid_arg "Interp: Baseline mode needs a profile"
    | (Interp_tier | Native_tier), _ -> None
  in
  let leader = Array.make (n + 1) false in
  leader.(0) <- true;
  Array.iteri
    (fun pc (op : Opcode.op) ->
      match op with
      | Jump t | Jump_if_false (_, t) | Jump_if_true (_, t) ->
        leader.(t) <- true;
        leader.(pc + 1) <- true
      | Return _ -> leader.(pc + 1) <- true
      | _ -> ())
    code;
  (* Loop headers are jump targets already; marking them keeps every
     counted edge a block transfer regardless. *)
  List.iter (fun h -> leader.(h) <- true) f.Opcode.loop_headers;
  let none = { run = unreached } in
  let blocks = Array.init n (fun pc -> if leader.(pc) then { run = unreached } else none) in
  (* The block a transfer from [from] to [t] runs: [t]'s own or, in
     Baseline mode when [t] heads a loop, one that first counts the edge:
     a back edge ([from >= t]) as an iteration, any other as an entry.  A
     pc heads a loop iff its [loop_entries] is not -1, for good. *)
  let target ~from t =
    match fp with
    | Some fp when fp.Feedback.loop_entries.(t) >= 0 ->
      let counts = if from >= t then fp.Feedback.loop_iters else fp.Feedback.loop_entries in
      let b = blocks.(t) in
      { run = (fun regs -> Hot.iset counts t (Hot.iget counts t + 1); b.run regs) }
    | _ -> blocks.(t)
  in
  let c_move = fast.(k_move) and c_alloc = fast.(k_alloc) in
  let c_call = fast.(k_call) and c_jump = fast.(k_jump) in
  let branch ~fuel ~due c ~if_true ~if_false =
    let due = due + c_jump in
    fun regs ->
      Instance.burn inst fuel;
      charge due;
      if truthy (reg regs c) then if_true.run regs else if_false.run regs
  in
  (* The ops from [pc] to the end of its block. *)
  let rec from pc ~fuel ~due : k =
    let pure c = cont (pc + 1) ~fuel:(fuel + 1) ~due:(due + c) in
    let fuel = fuel + 1 in
    match code.(pc) with
    | Load_const (d, i) ->
      let v = consts.(i) and next = pure c_move in
      fun regs ->
        set_reg regs d v;
        next regs
    | Move (d, s) ->
      let next = pure c_move in
      fun regs ->
        set_reg regs d (reg regs s);
        next regs
    | Load_global (d, g) ->
      let next = pure c_move in
      fun regs ->
        set_reg regs d (reg globals g);
        next regs
    | Store_global (g, s) ->
      let next = pure c_move in
      fun regs ->
        set_reg globals g (reg regs s);
        next regs
    | New_object d ->
      let next = pure c_alloc in
      fun regs ->
        set_reg regs d (Value.Obj (Heap.alloc_object heap));
        next regs
    | Binop (bop, d, a, b) -> (
      match fp with
      | None ->
        let next = pure (fast.(k_binop)) in
        fun regs ->
          set_reg regs d (Ops.apply_binop heap bop (reg regs a) (reg regs b));
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) and next = settled pc in
        let has_fast_path = binop_has_fast_path bop in
        let hit = due + fast.(k_binop) and miss = due + slow.(k_binop) in
        fun regs ->
          Instance.burn inst fuel;
          let va = reg regs a and vb = reg regs b in
          charge (if has_fast_path && both_int va vb then hit else miss);
          let r = Ops.apply_binop heap bop va vb in
          Feedback.record_class s va;
          Feedback.record_class s vb;
          Feedback.record_result s r;
          (* Int operands producing a double means int32 overflow here. *)
          if both_int va vb && is_num r then Feedback.record_overflow s;
          set_reg regs d r;
          next regs)
    | Unop (uop, d, a) -> (
      match fp with
      | None ->
        let next = pure (fast.(k_unop)) in
        fun regs ->
          set_reg regs d (Ops.apply_unop uop (reg regs a));
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) and next = settled pc in
        let hit = due + fast.(k_unop) and miss = due + slow.(k_unop) in
        fun regs ->
          Instance.burn inst fuel;
          let va = reg regs a in
          charge (if is_int va then hit else miss);
          Feedback.record_class s va;
          set_reg regs d (Ops.apply_unop uop va);
          next regs)
    | Get_prop (d, o, name) -> (
      let ic = ics.(pc) and next = settled pc in
      let hit = fast.(k_get_prop) and miss = slow.(k_get_prop) in
      match fp with
      | None ->
        fun regs ->
          settle inst charge fuel due;
          (match reg regs o with
          | Value.Obj obj ->
            (* The slot load only: no shape-word read on this path. *)
            let slot = Ic.find_slot heap ic obj name in
            if slot >= 0 then begin
              charge hit;
              set_reg regs d (Heap.load_slot heap obj slot)
            end
            else begin
              charge miss;
              set_reg regs d Value.Undef
            end
          | _ ->
            (* Property reads on non-objects: only .length-bearing types
               give anything; everything else is undefined. *)
            charge miss;
            set_reg regs d Value.Undef);
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) in
        fun regs ->
          settle inst charge fuel due;
          (match reg regs o with
          | Value.Obj obj ->
            let slot = Ic.find_slot heap ic obj name in
            if slot >= 0 then begin
              charge hit;
              Feedback.record_load_slot s obj.Value.shape.Shape.id slot;
              set_reg regs d (Heap.load_slot heap obj slot)
            end
            else begin
              charge miss;
              set_reg regs d Value.Undef
            end
          | v ->
            charge miss;
            Feedback.record_class s v;
            set_reg regs d Value.Undef);
          next regs)
    | Set_prop (o, name, v) -> (
      let ic = ics.(pc) and next = settled pc in
      let hit = fast.(k_set_prop) and miss = slow.(k_set_prop) in
      let not_object v' = raise (Runtime_error ("cannot set property on " ^ Value.type_name v')) in
      match fp with
      | None ->
        fun regs ->
          settle inst charge fuel due;
          (match reg regs o with
          | Value.Obj obj ->
            let slot = Ic.set_slot heap ic obj name in
            charge (if slot >= 0 then hit else miss);
            Ic.store heap ic obj name slot (reg regs v)
          | v' -> not_object v');
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) in
        fun regs ->
          settle inst charge fuel due;
          (match reg regs o with
          | Value.Obj obj ->
            let sh = obj.Value.shape in
            let slot = Ic.set_slot heap ic obj name in
            charge (if slot >= 0 then hit else miss);
            Ic.store heap ic obj name slot (reg regs v);
            if slot >= 0 then Feedback.record_store_slot s sh.Shape.id slot
            else
              let nsh = obj.Value.shape in
              Feedback.record_transition s sh.Shape.id ~target:nsh.Shape.id
                (nsh.Shape.prop_count - 1)
          | v' -> not_object v');
          next regs)
    | Get_elem (d, a, i) -> (
      let next = settled pc in
      let hit = fast.(k_get_elem) and miss = slow.(k_get_elem) in
      let not_indexable v = raise (Runtime_error ("cannot index " ^ Value.type_name v)) in
      match fp with
      | None ->
        fun regs ->
          settle inst charge fuel due;
          (match (reg regs a, reg regs i) with
          | Value.Arr arr, Value.Int idx ->
            let oob = idx < 0 || idx >= arr.Value.alen in
            let v = Heap.get_elem heap arr idx in
            (* The hole test is a second element load. *)
            let hole = (not oob) && is_hole (Heap.load_elem heap arr idx) in
            charge (if oob || hole then miss else hit);
            set_reg regs d v
          | Value.Arr arr, vi ->
            charge miss;
            set_reg regs d (elem_at_number heap arr vi)
          | Value.Str str, Value.Int idx ->
            charge miss;
            set_reg regs d (char_at heap str idx)
          | v, _ -> not_indexable v);
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) in
        fun regs ->
          settle inst charge fuel due;
          (match (reg regs a, reg regs i) with
          | (Value.Arr arr as va), (Value.Int idx as vi) ->
            let oob = idx < 0 || idx >= arr.Value.alen in
            let v = Heap.get_elem heap arr idx in
            let hole = (not oob) && is_hole (Heap.load_elem heap arr idx) in
            charge (if oob || hole then miss else hit);
            Feedback.record_class s va;
            Feedback.record_class s vi;
            if oob then Feedback.record_oob s;
            if hole then Feedback.record_hole s;
            Feedback.record_result s v;
            set_reg regs d v
          | (Value.Arr arr as va), vi ->
            charge miss;
            Feedback.record_class s va;
            Feedback.record_class s vi;
            set_reg regs d (elem_at_number heap arr vi)
          | (Value.Str str as va), Value.Int idx ->
            charge miss;
            Feedback.record_class s va;
            set_reg regs d (char_at heap str idx)
          | v, _ -> not_indexable v);
          next regs)
    | Set_elem (a, i, v) -> (
      let next = settled pc in
      let hit = fast.(k_set_elem) and miss = slow.(k_set_elem) in
      let not_indexable v' = raise (Runtime_error ("cannot index-assign " ^ Value.type_name v')) in
      match fp with
      | None ->
        fun regs ->
          settle inst charge fuel due;
          (match (reg regs a, reg regs i) with
          | Value.Arr arr, Value.Int idx ->
            charge (if idx >= arr.Value.alen then miss else hit);
            Heap.set_elem heap arr idx (reg regs v)
          | Value.Arr arr, vi ->
            charge miss;
            set_elem_at_number heap arr vi (reg regs v)
          | v', _ -> not_indexable v');
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) in
        fun regs ->
          settle inst charge fuel due;
          (match (reg regs a, reg regs i) with
          | (Value.Arr arr as va), (Value.Int idx as vi) ->
            let elongates = idx >= arr.Value.alen in
            charge (if elongates then miss else hit);
            Feedback.record_class s va;
            Feedback.record_class s vi;
            if elongates then Feedback.record_elongation s;
            Heap.set_elem heap arr idx (reg regs v)
          | Value.Arr arr, vi ->
            charge miss;
            set_elem_at_number heap arr vi (reg regs v)
          | v', _ -> not_indexable v');
          next regs)
    | Get_length (d, x) -> (
      let ic = ics.(pc) and next = settled pc in
      let hit = fast.(k_get_length) and miss = slow.(k_get_length) in
      let length vx =
        match vx with
        | Value.Str s ->
          charge hit;
          Value.int_ (String.length s.Value.sdata)
        | Value.Arr a ->
          charge hit;
          Value.int_ a.Value.alen
        | Value.Obj obj ->
          charge miss;
          Ic.get_prop heap ic obj "length"
        | v -> raise (Runtime_error ("no length on " ^ Value.type_name v))
      in
      match fp with
      | None ->
        fun regs ->
          settle inst charge fuel due;
          set_reg regs d (length (reg regs x));
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) in
        fun regs ->
          settle inst charge fuel due;
          let vx = reg regs x in
          Feedback.record_class s vx;
          set_reg regs d (length vx);
          next regs)
    | New_array (d, len) ->
      let next = settled pc and due = due + c_alloc in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        let len = Value.to_int32 (reg regs len) in
        if len < 0 then raise (Runtime_error "negative array length");
        set_reg regs d (Value.Arr (Heap.alloc_array heap len));
        next regs
    | Call (d, callee, args) ->
      let next = settled pc and due = due + c_call in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        set_reg regs d (call ~fid:callee ~this:Value.Undef ~args:(arg_values regs args));
        next regs
    | New_call (d, callee, args) ->
      let next = settled pc and due = due + c_call in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        let obj = Value.Obj (Heap.alloc_object heap) in
        let r = call ~fid:callee ~this:obj ~args:(arg_values regs args) in
        set_reg regs d (match r with Value.Undef -> obj | v -> v);
        next regs
    | Call_method (d, recv, name, args) -> (
      let ic = ics.(pc) and next = settled pc in
      let c_method = fast.(k_call_method) and argc = List.length args in
      let intrinsic_cost intr vrecv =
        c_method + Intrinsics.cost intr + Intrinsics.dynamic_cost_argc intr vrecv ~argc
      in
      let method_slot obj =
        (* Method dispatch reads the slot only, like [Get_prop]. *)
        let slot = Ic.find_slot heap ic obj name in
        if slot < 0 then raise (Runtime_error ("no method " ^ name));
        slot
      in
      let not_function v =
        raise
          (Runtime_error (Printf.sprintf "%s is not a function (%s)" name (Value.type_name v)))
      in
      let no_method v =
        raise (Runtime_error (Printf.sprintf "no method %s on %s" name (Value.type_name v)))
      in
      match fp with
      | None ->
        fun regs ->
          settle inst charge fuel due;
          let vrecv = reg regs recv in
          (match Ic.method_of ic vrecv name with
          | Some intr ->
            charge (intrinsic_cost intr vrecv);
            set_reg regs d (eval_intrinsic heap intr vrecv regs args)
          | None -> (
            match vrecv with
            | Value.Obj obj -> (
              match Heap.load_slot heap obj (method_slot obj) with
              | Value.Fun fid' ->
                charge c_method;
                set_reg regs d (call ~fid:fid' ~this:vrecv ~args:(arg_values regs args))
              | v -> not_function v)
            | v -> no_method v));
          next regs
      | Some fp ->
        let s = fp.Feedback.sites.(pc) in
        fun regs ->
          settle inst charge fuel due;
          let vrecv = reg regs recv in
          (match Ic.method_of ic vrecv name with
          | Some intr ->
            charge (intrinsic_cost intr vrecv);
            Feedback.record_class s vrecv;
            set_reg regs d (eval_intrinsic heap intr vrecv regs args)
          | None -> (
            match vrecv with
            | Value.Obj obj -> (
              let slot = method_slot obj in
              match Heap.load_slot heap obj slot with
              | Value.Fun fid' ->
                charge c_method;
                Feedback.record_load_slot s obj.Value.shape.Shape.id slot;
                Feedback.record_callee s fid';
                set_reg regs d (call ~fid:fid' ~this:vrecv ~args:(arg_values regs args))
              | v -> not_function v)
            | v -> no_method v));
          next regs)
    | Call_intrinsic (d, intr, args) ->
      let next = settled pc in
      let due =
        due + fast.(k_call_intrinsic) + Intrinsics.cost intr
        + Intrinsics.dynamic_cost_argc intr Value.Undef ~argc:(List.length args)
      in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        set_reg regs d (eval_intrinsic heap intr Value.Undef regs args);
        next regs
    | Jump t ->
      let b = target ~from:pc t and due = due + c_jump in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        b.run regs
    | Jump_if_false (c, t) ->
      branch ~fuel ~due c ~if_true:(target ~from:pc (pc + 1)) ~if_false:(target ~from:pc t)
    | Jump_if_true (c, t) ->
      branch ~fuel ~due c ~if_true:(target ~from:pc t) ~if_false:(target ~from:pc (pc + 1))
    | Return r -> (
      let due = due + fast.(k_return) in
      match r with
      | Some r ->
        fun regs ->
          Instance.burn inst fuel;
          charge due;
          reg regs r
      | None ->
        fun _ ->
          Instance.burn inst fuel;
          charge due;
          Value.Undef)
  (* What runs after the op at [pc - 1]: the rest of the block, or a
     fall-through into the next block (compiled already), which settles
     first. *)
  and cont pc ~fuel ~due =
    if leader.(pc) then begin
      let next = (target ~from:(pc - 1) pc).run in
      if fuel = 0 then next
      else fun regs ->
        settle inst charge fuel due;
        next regs
    end
    else from pc ~fuel ~due
  (* After a settle point nothing is pending. *)
  and settled pc = cont (pc + 1) ~fuel:0 ~due:0 in
  for pc = n - 1 downto 0 do
    if leader.(pc) then blocks.(pc).run <- from pc ~fuel:0 ~due:0
  done;
  (* An entry is the edge from -1: it counts as one entry of a loop headed
     there. *)
  let entry pc = if leader.(pc) then (target ~from:(-1) pc).run else from pc ~fuel:0 ~due:0 in
  { owner = env; leader; start = entry 0; entries = Array.make n None; entry }

(** [fid]'s code for [env], compiled on first use. *)
let body env fid =
  let table = env.instance.Instance.code and slot = Instance.code_slot env.mode fid in
  match table.(slot) with
  | Some (Compiled b) when b.owner == env -> b
  | _ ->
    let b = compile env fid in
    table.(slot) <- Some (Compiled b);
    b

(** Execute function [fid] from [entry_pc] with the given register frame.
    [regs] must have length [>= f.nregs]; on a fresh call the caller seeds
    this/params.  Returns the function result.

    Register, constant, global and pc indices come from the bytecode
    compiler and are in range by construction, so compiled code reads them
    unchecked ([reg]).  Property and method sites go through the instance's
    host inline caches ([Ic]); every hook and charge happens in the order
    the generic helpers produce. *)
let run_from env ~fid ~entry_pc ~(regs : Value.t array) : Value.t =
  let b = body env fid in
  if entry_pc = 0 then b.start regs
  else
    match b.entries.(entry_pc) with
    | Some k -> k regs
    | None ->
      let k = b.entry entry_pc in
      b.entries.(entry_pc) <- Some k;
      k regs

(** The pcs other than 0 that [fid]'s code in [mode] has been entered at,
    in order, each with whether a block starts there. *)
let entered_at inst ~fid mode =
  match inst.Instance.code.(Instance.code_slot mode fid) with
  | Some (Compiled b) ->
    List.filter_map
      (fun pc -> Option.map (fun _ -> (pc, b.leader.(pc))) b.entries.(pc))
      (List.init (Array.length b.entries) Fun.id)
  | _ -> []

(** Drop [fid]'s compiled code in [mode]; its next call compiles afresh. *)
let discard inst ~fid mode = inst.Instance.code.(Instance.code_slot mode fid) <- None

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
