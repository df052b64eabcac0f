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
    constants, argument lists, feedback sites and costs ([cost]) are
    resolved at compile time.  Each op is built by one
    closure for every mode: a profiled op captures its feedback site as a
    [site option], [Some] only in Baseline mode, and runs each
    [Feedback.record_*] under one [match] on it.  Only [Binop] and [Unop]
    have two shapes, a pure one and Baseline's settle point.  The code is
    cached on the [Instance], valid only for the [env] it was compiled
    against (DESIGN.md §13a).

    {b Settle points.}  An op is pure when it cannot raise, fires no heap
    hook that can raise or count (a global store's rollback journal does
    neither), does not re-enter the VM and has a static cost: [Load_const],
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

(** An op's cost in [mode]: its fast path's ([hit]: an inline-cache hit,
    an int operand pair) or its slow path's; only Baseline prices the two
    differently.  The compiler calls it once per op and mode. *)
let cost mode ~hit op =
  match mode with
  | Interp_tier -> interp_cost op
  | Baseline_tier -> if hit then baseline_fast op else baseline_slow op
  | Native_tier -> native_cost op

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

(** A call's argument values: [regs] read at [ids], in order. *)
let arg_values (regs : Value.t array) (ids : int array) =
  let rec go i acc = if i < 0 then acc else go (i - 1) (reg regs (Hot.iget ids i) :: acc) in
  go (Array.length ids - 1) []

(** Known-arity intrinsic evaluation over [regs] read at [ids]: the
    0/1/2-argument calls build no argument list ([Intrinsics.eval0/1/2]
    replicate [eval] exactly). *)
let eval_intrinsic heap intr (recv : Value.t) (regs : Value.t array) (ids : int array) =
  try
    match Array.length ids with
    | 0 -> Intrinsics.eval0 heap intr recv
    | 1 -> Intrinsics.eval1 heap intr recv (reg regs (Hot.iget ids 0))
    | 2 -> Intrinsics.eval2 heap intr recv (reg regs (Hot.iget ids 0)) (reg regs (Hot.iget ids 1))
    | _ -> Intrinsics.eval heap intr recv (arg_values regs ids)
  with Intrinsics.Type_error m -> raise (Runtime_error m)

(** An array read at a non-int32 index: the element when the index is
    exactly an int32, else undefined.  This, [set_elem_at_number] and
    [char_at] also serve the LIR engine's runtime helpers. *)
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

(* What [compile]'s block table holds at a pc that leads no block; never
   run or written.  Shared, so that the table is never built from a young
   element: [Array.make] of one over 256 slots forces a minor collection,
   which in OCaml 5 stops every domain. *)
let no_block = { run = unreached }

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
  let shapes = heap.Heap.shapes in
  let f = Instance.func inst fid in
  let code = f.Opcode.code in
  let n = Array.length code in
  let consts = inst.Instance.consts.(fid) in
  let charge = env.charge and call = env.call and cost = cost env.mode in
  let fp =
    match (env.mode, env.profile) with
    | Baseline_tier, Some p -> Some (Feedback.func_profile p fid)
    | Baseline_tier, None -> invalid_arg "Interp: Baseline mode needs a profile"
    | (Interp_tier | Native_tier), _ -> None
  in
  (* The feedback site of the op at [pc]: [Some] only in Baseline mode. *)
  let site pc = Option.map (fun fp -> fp.Feedback.sites.(pc)) fp in
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
  let blocks = Array.make n no_block in
  for pc = 0 to n - 1 do
    if leader.(pc) then blocks.(pc) <- { run = unreached }
  done;
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
  let branch ~fuel ~due c ~if_true ~if_false =
    fun regs ->
      Instance.burn inst fuel;
      charge due;
      if truthy (reg regs c) then if_true.run regs else if_false.run regs
  in
  (* The ops from [pc] to the end of its block. *)
  let rec from pc ~fuel ~due : k =
    let op = code.(pc) in
    let hit = cost ~hit:true op and miss = cost ~hit:false op in
    let pure () = cont (pc + 1) ~fuel:(fuel + 1) ~due:(due + hit) in
    let fuel = fuel + 1 in
    match op with
    | Load_const (d, i) ->
      let v = consts.(i) and next = pure () in
      fun regs ->
        set_reg regs d v;
        next regs
    | Move (d, s) ->
      let next = pure () in
      fun regs ->
        set_reg regs d (reg regs s);
        next regs
    | Load_global (d, g) ->
      let next = pure () in
      fun regs ->
        set_reg regs d (reg globals g);
        next regs
    | Store_global (g, s) ->
      let next = pure () in
      fun regs ->
        Instance.store_global inst g (reg regs s);
        next regs
    | New_object d ->
      let next = pure () in
      fun regs ->
        set_reg regs d (Value.Obj (Heap.alloc_object heap));
        next regs
    | Binop (bop, d, a, b) -> (
      match site pc with
      | None ->
        let next = pure () in
        fun regs ->
          set_reg regs d (Ops.apply_binop heap bop (reg regs a) (reg regs b));
          next regs
      | Some s ->
        let next = settled pc in
        let has_fast_path = binop_has_fast_path bop in
        let hit = due + hit and miss = due + miss in
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
      match site pc with
      | None ->
        let next = pure () in
        fun regs ->
          set_reg regs d (Ops.apply_unop uop (reg regs a));
          next regs
      | Some s ->
        let next = settled pc in
        let hit = due + hit and miss = due + miss in
        fun regs ->
          Instance.burn inst fuel;
          let va = reg regs a in
          charge (if is_int va then hit else miss);
          Feedback.record_class s va;
          set_reg regs d (Ops.apply_unop uop va);
          next regs)
    | Get_prop (d, o, name) ->
      let site = site pc and next = settled pc in
      fun regs ->
        settle inst charge fuel due;
        (match reg regs o with
        | Value.Obj obj ->
          (* The slot load only: no shape-word read on this path. *)
          let slot = Shape.slot_of obj.Value.shape (Shape.find_sym shapes name) in
          if slot >= 0 then begin
            charge hit;
            (match site with
            | Some s -> Feedback.record_load_slot s obj.Value.shape.Shape.id slot
            | None -> ());
            set_reg regs d (Heap.load_slot heap obj slot)
          end
          else begin
            charge miss;
            set_reg regs d Value.Undef
          end
        | v ->
          (* Property reads on non-objects: only .length-bearing types
             give anything; everything else is undefined. *)
          charge miss;
          (match site with Some s -> Feedback.record_class s v | None -> ());
          set_reg regs d Value.Undef);
        next regs
    | Set_prop (o, name, v) ->
      let site = site pc and next = settled pc in
      fun regs ->
        settle inst charge fuel due;
        (match reg regs o with
        | Value.Obj obj -> (
          let sh = obj.Value.shape in
          let sym = Shape.intern shapes name in
          let slot = Shape.slot_of sh sym in
          charge (if slot >= 0 then hit else miss);
          Heap.set_prop_sym heap obj sym (reg regs v);
          match site with
          | Some s ->
            if slot >= 0 then Feedback.record_store_slot s sh.Shape.id slot
            else
              let nsh = obj.Value.shape in
              Feedback.record_transition s sh.Shape.id ~target:nsh.Shape.id
                (nsh.Shape.prop_count - 1)
          | None -> ())
        | v' -> raise (Runtime_error ("cannot set property on " ^ Value.type_name v')));
        next regs
    | Get_elem (d, a, i) ->
      let site = site pc and next = settled pc in
      fun regs ->
        settle inst charge fuel due;
        (match (reg regs a, reg regs i) with
        | (Value.Arr arr as va), (Value.Int idx as vi) ->
          let oob = idx < 0 || idx >= arr.Value.alen in
          let v = Heap.get_elem heap arr idx in
          (* The hole test is a second element load. *)
          let hole = (not oob) && is_hole (Heap.load_elem heap arr idx) in
          charge (if oob || hole then miss else hit);
          (match site with
          | Some s ->
            Feedback.record_class s va;
            Feedback.record_class s vi;
            if oob then Feedback.record_oob s;
            if hole then Feedback.record_hole s;
            Feedback.record_result s v
          | None -> ());
          set_reg regs d v
        | (Value.Arr arr as va), vi ->
          charge miss;
          (match site with
          | Some s ->
            Feedback.record_class s va;
            Feedback.record_class s vi
          | None -> ());
          set_reg regs d (elem_at_number heap arr vi)
        | (Value.Str str as va), Value.Int idx ->
          charge miss;
          (match site with Some s -> Feedback.record_class s va | None -> ());
          set_reg regs d (char_at heap str idx)
        | v, _ -> raise (Runtime_error ("cannot index " ^ Value.type_name v)));
        next regs
    | Set_elem (a, i, v) ->
      let site = site pc and next = settled pc in
      fun regs ->
        settle inst charge fuel due;
        (match (reg regs a, reg regs i) with
        | (Value.Arr arr as va), (Value.Int idx as vi) ->
          let elongates = idx >= arr.Value.alen in
          charge (if elongates then miss else hit);
          (match site with
          | Some s ->
            Feedback.record_class s va;
            Feedback.record_class s vi;
            if elongates then Feedback.record_elongation s
          | None -> ());
          Heap.set_elem heap arr idx (reg regs v)
        | Value.Arr arr, vi ->
          charge miss;
          set_elem_at_number heap arr vi (reg regs v)
        | v', _ -> raise (Runtime_error ("cannot index-assign " ^ Value.type_name v')));
        next regs
    | Get_length (d, x) ->
      let site = site pc and next = settled pc in
      fun regs ->
        settle inst charge fuel due;
        let vx = reg regs x in
        (match site with Some s -> Feedback.record_class s vx | None -> ());
        set_reg regs d
          (match vx with
          | Value.Str s ->
            charge hit;
            Value.int_ (String.length s.Value.sdata)
          | Value.Arr a ->
            charge hit;
            Value.int_ a.Value.alen
          | Value.Obj obj ->
            charge miss;
            Heap.get_prop heap obj "length"
          | v -> raise (Runtime_error ("no length on " ^ Value.type_name v)));
        next regs
    | New_array (d, len) ->
      let next = settled pc and due = due + hit in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        let len = Value.to_int32 (reg regs len) in
        if not (Heap.array_length_ok len) then raise (Runtime_error Heap.bad_array_length);
        set_reg regs d (Value.Arr (Heap.alloc_array heap len));
        next regs
    | Call (d, callee, args) ->
      let next = settled pc and due = due + hit and ids = Array.of_list args in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        set_reg regs d (call ~fid:callee ~this:Value.Undef ~args:(arg_values regs ids));
        next regs
    | New_call (d, callee, args) ->
      let next = settled pc and due = due + hit and ids = Array.of_list args in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        let obj = Value.Obj (Heap.alloc_object heap) in
        let r = call ~fid:callee ~this:obj ~args:(arg_values regs ids) in
        set_reg regs d (match r with Value.Undef -> obj | v -> v);
        next regs
    | Call_method (d, recv, name, args) ->
      let site = site pc and next = settled pc in
      let ids = Array.of_list args in
      let argc = Array.length ids in
      fun regs ->
        settle inst charge fuel due;
        let vrecv = reg regs recv in
        (match Intrinsics.method_lookup vrecv name with
        | Some intr ->
          charge (hit + Intrinsics.cost intr + Intrinsics.dynamic_cost_argc intr vrecv ~argc);
          (match site with Some s -> Feedback.record_class s vrecv | None -> ());
          set_reg regs d (eval_intrinsic heap intr vrecv regs ids)
        | None -> (
          match vrecv with
          | Value.Obj obj -> (
            (* Method dispatch reads the slot only, like [Get_prop]. *)
            let slot = Shape.slot_of obj.Value.shape (Shape.find_sym shapes name) in
            if slot < 0 then raise (Runtime_error ("no method " ^ name));
            match Heap.load_slot heap obj slot with
            | Value.Fun fid' ->
              charge hit;
              (match site with
              | Some s ->
                Feedback.record_class s vrecv;
                Feedback.record_load_slot s obj.Value.shape.Shape.id slot;
                Feedback.record_callee s fid'
              | None -> ());
              set_reg regs d (call ~fid:fid' ~this:vrecv ~args:(arg_values regs ids))
            | v ->
              raise
                (Runtime_error
                   (Printf.sprintf "%s is not a function (%s)" name (Value.type_name v))))
          | v ->
            raise
              (Runtime_error (Printf.sprintf "no method %s on %s" name (Value.type_name v)))));
        next regs
    | Call_intrinsic (d, intr, args) ->
      let next = settled pc and ids = Array.of_list args in
      let due =
        due + hit + Intrinsics.cost intr
        + Intrinsics.dynamic_cost_argc intr Value.Undef ~argc:(Array.length ids)
      in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        set_reg regs d (eval_intrinsic heap intr Value.Undef regs ids);
        next regs
    | Jump t ->
      let b = target ~from:pc t and due = due + hit in
      fun regs ->
        Instance.burn inst fuel;
        charge due;
        b.run regs
    | Jump_if_false (c, t) ->
      branch ~fuel ~due:(due + hit) c ~if_true:(target ~from:pc (pc + 1))
        ~if_false:(target ~from:pc t)
    | Jump_if_true (c, t) ->
      branch ~fuel ~due:(due + hit) c ~if_true:(target ~from:pc t)
        ~if_false:(target ~from:pc (pc + 1))
    | Return r -> (
      let due = due + hit in
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
    unchecked ([reg]). *)
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
