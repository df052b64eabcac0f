(** AST-walking interpreter over MiniJS — the stand-in for the slower
    scripting-language implementations in the paper's Figure 1.

    Where the bytecode engine models CPython-style bytecode dispatch, this
    engine models PHP/Ruby-style tree walking: variables live in hash
    tables, every node evaluation pays a dispatch cost, and (in the Ruby
    flavour) every operator is a dynamically-dispatched method send.  The
    semantics are identical — it reuses the same runtime (values, heap,
    operators, intrinsics) — so Figure 1 compares cost structure, not
    behaviour. *)

open Nomap_runtime
module Ast = Nomap_jsir.Ast

exception Runtime_error of string
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

type flavour = Php_like | Ruby_like

type env = {
  heap : Heap.t;
  flavour : flavour;
  charge : int -> unit;
  globals : (string, Value.t) Hashtbl.t;
  functions : (string, int) Hashtbl.t;
      (** a function's index in [Ast.functions], its [Value.Fun] id, as
          [Compile] numbers them *)
  funcs : Ast.func array;  (** by index *)
  mutable fuel : int;
}

let create ?(seed = 42) ?(fuel = max_int) ~flavour ~charge (prog : Ast.program) =
  let funcs = Array.of_list (Ast.functions prog) in
  let functions = Hashtbl.create 16 in
  Array.iteri (fun i (f : Ast.func) -> Hashtbl.replace functions f.Ast.fname i) funcs;
  {
    heap = Heap.create ~seed ();
    flavour;
    charge;
    globals = Hashtbl.create 32;
    functions;
    funcs;
    fuel;
  }

(* Cost model: every node pays tree-dispatch; Ruby additionally models
   operators as method sends.  Values informally calibrated so the Figure-1
   ordering (PHP ~3x, Ruby ~4.5x the bytecode interpreter) emerges. *)
let node_cost env base = env.charge (match env.flavour with Php_like -> base | Ruby_like -> base * 3 / 2)

let dispatch_cost env =
  node_cost env (match env.flavour with Php_like -> 12 | Ruby_like -> 18)

let send_cost env =
  (* Operator as method send (Ruby) vs switch on op (PHP). *)
  node_cost env (match env.flavour with Php_like -> 30 | Ruby_like -> 60)

let var_cost env = node_cost env 16  (* hash lookup *)

let burn env =
  env.fuel <- env.fuel - 1;
  if env.fuel < 0 then raise Instance.Out_of_fuel

type frame = { locals : (string, Value.t) Hashtbl.t; this : Value.t }

(* An array index is its int32 value only when that is exactly the index's
   number, as in the bytecode tiers; any other index reads undefined and
   its write is dropped. *)
let array_index vi =
  let idx = Value.to_int32 vi in
  if float_of_int idx = Value.to_number vi then Some idx else None

(* Locals, then functions, then globals: [Compile]'s resolution order. *)
let lookup_var env frame x =
  var_cost env;
  match Hashtbl.find_opt frame.locals x with
  | Some v -> v
  | None -> (
    match Hashtbl.find_opt env.functions x with
    | Some fid -> Value.Fun fid
    | None -> Option.value ~default:Value.Undef (Hashtbl.find_opt env.globals x))

let assign_var env frame x v =
  var_cost env;
  if Hashtbl.mem frame.locals x then Hashtbl.replace frame.locals x v
  else Hashtbl.replace env.globals x v

(* Function-scoped `var` declarations become locals of the frame. *)
let rec declare_vars frame block =
  let rec stmt (s : Ast.stmt) =
    match s with
    | Ast.Var_decl ds ->
      List.iter (fun (x, _) -> if not (Hashtbl.mem frame.locals x) then Hashtbl.replace frame.locals x Value.Undef) ds
    | Ast.If (_, a, b) ->
      declare_vars frame a;
      declare_vars frame b
    | Ast.While (_, b) | Ast.Do_while (b, _) -> declare_vars frame b
    | Ast.For (init, _, _, b) ->
      (match init with Some s -> stmt s | None -> ());
      declare_vars frame b
    | Ast.Block b -> declare_vars frame b
    | Ast.Expr _ | Ast.Return _ | Ast.Break | Ast.Continue -> ()
  in
  List.iter stmt block

let rec eval env frame (e : Ast.expr) : Value.t =
  burn env;
  dispatch_cost env;
  match e with
  | Ast.Number f -> Value.number f
  | Ast.Str s -> Heap.str env.heap s
  | Ast.Bool b -> Value.Bool b
  | Ast.Null -> Value.Null
  | Ast.Undefined -> Value.Undef
  | Ast.This -> frame.this
  | Ast.Var x -> lookup_var env frame x
  | Ast.Array_lit es ->
    let a = Heap.alloc_array env.heap 0 in
    List.iteri (fun i e -> Heap.set_elem env.heap a i (eval env frame e)) es;
    Value.Arr a
  | Ast.Object_lit fields ->
    let o = Heap.alloc_object env.heap in
    List.iter (fun (name, e) -> Heap.set_prop env.heap o name (eval env frame e)) fields;
    Value.Obj o
  | Ast.Index (a, i) ->
    let va = eval env frame a and vi = eval env frame i in
    get_index env va vi
  | Ast.Prop (Ast.Var base, prop) when Intrinsics.static_constant base prop <> None ->
    Option.get (Intrinsics.static_constant base prop)
  | Ast.Prop (o, p) -> get_prop env (eval env frame o) p
  | Ast.Call (name, args) ->
    let vargs = List.map (eval env frame) args in
    call_named env name Value.Undef vargs
  | Ast.Method_call (Ast.Var base, meth, args)
    when Intrinsics.static_lookup base meth <> None ->
    let intr = Option.get (Intrinsics.static_lookup base meth) in
    let vargs = List.map (eval env frame) args in
    send_cost env;
    env.charge (Intrinsics.cost intr);
    (try Intrinsics.eval env.heap intr Value.Undef vargs
     with Intrinsics.Type_error m -> raise (Runtime_error m))
  | Ast.Method_call (recv, meth, args) -> (
    let vrecv = eval env frame recv in
    let vargs = List.map (eval env frame) args in
    send_cost env;
    match Intrinsics.method_lookup vrecv meth with
    | Some intr ->
      env.charge (Intrinsics.cost intr + Intrinsics.dynamic_cost intr vrecv vargs);
      (try Intrinsics.eval env.heap intr vrecv vargs
       with Intrinsics.Type_error m -> raise (Runtime_error m))
    | None -> (
      match vrecv with
      | Value.Obj obj when Shape.has_property env.heap.Heap.shapes obj.Value.shape meth -> (
        match Heap.get_prop env.heap obj meth with
        | Value.Fun fid -> call_func env fid vrecv vargs
        | v ->
          raise
            (Runtime_error (Printf.sprintf "%s is not a function (%s)" meth (Value.type_name v))))
      | Value.Obj _ -> raise (Runtime_error ("no method " ^ meth))
      | v -> raise (Runtime_error (Printf.sprintf "no method %s on %s" meth (Value.type_name v)))))
  | Ast.New (name, args) -> (
    let vargs = List.map (eval env frame) args in
    let o = Value.Obj (Heap.alloc_object env.heap) in
    match call_named env name o vargs with
    | Value.Undef -> o
    | v -> v)
  | Ast.New_array n ->
    let len = Value.to_int32 (eval env frame n) in
    if not (Heap.array_length_ok len) then raise (Runtime_error Heap.bad_array_length);
    Value.Arr (Heap.alloc_array env.heap len)
  | Ast.Unop (op, e) ->
    let v = eval env frame e in
    send_cost env;
    Ops.apply_unop op v
  | Ast.Binop (op, a, b) ->
    let va = eval env frame a in
    let vb = eval env frame b in
    send_cost env;
    Ops.apply_binop env.heap op va vb
  | Ast.And (a, b) ->
    let va = eval env frame a in
    if Value.truthy va then eval env frame b else va
  | Ast.Or (a, b) ->
    let va = eval env frame a in
    if Value.truthy va then va else eval env frame b
  | Ast.Cond (c, a, b) ->
    if Value.truthy (eval env frame c) then eval env frame a else eval env frame b
  | Ast.Assign (lv, e) -> assign env frame lv (fun () -> eval env frame e)
  | Ast.Op_assign (op, lv, e) ->
    modify env frame lv (fun cur ->
        let v = eval env frame e in
        send_cost env;
        Ops.apply_binop env.heap op cur v)
  | Ast.Incr (lv, delta, kind) ->
    let old = ref Value.Undef in
    let nv =
      modify env frame lv (fun cur ->
          old := cur;
          send_cost env;
          Ops.js_add env.heap cur (Value.Int delta))
    in
    (match kind with `Pre -> nv | `Post -> !old)

(* Read-modify-write, as [Compile] lowers it: evaluate the lvalue's base
   and index once, read the current value (a read node: fuel and dispatch,
   as [eval] charges an [Index] or [Prop]), compute the new value with
   [modify], and store it back into the same place. *)
and modify env frame lv modify =
  match lv with
  | Ast.Lvar x ->
    let nv = modify (lookup_var env frame x) in
    assign_var env frame x nv;
    nv
  | Ast.Lindex (a, i) ->
    burn env;
    dispatch_cost env;
    let va = eval env frame a and vi = eval env frame i in
    let nv = modify (get_index env va vi) in
    set_index env va vi nv;
    nv
  | Ast.Lprop (o, p) ->
    burn env;
    dispatch_cost env;
    let vo = eval env frame o in
    let nv = modify (get_prop env vo p) in
    set_prop env vo p nv;
    nv

and get_index env va vi =
  send_cost env;
  match (va, vi) with
  | Value.Arr arr, _ -> (
    match array_index vi with Some idx -> Heap.get_elem env.heap arr idx | None -> Value.Undef)
  | Value.Str s, Value.Int idx ->
    if idx >= 0 && idx < String.length s.Value.sdata then
      Heap.str env.heap (String.make 1 s.Value.sdata.[idx])
    else Value.Undef
  | v, _ -> raise (Runtime_error ("cannot index " ^ Value.type_name v))

and get_prop env vo p =
  send_cost env;
  match (vo, p) with
  | _, "length" -> (
    match Ops.js_length vo with
    | Some v -> v
    | None -> (
      match vo with
      | Value.Obj obj -> Heap.get_prop env.heap obj "length"
      | v -> raise (Runtime_error ("no length on " ^ Value.type_name v))))
  | Value.Obj obj, _ -> Heap.get_prop env.heap obj p
  | _ -> Value.Undef

and set_index env va vi v =
  send_cost env;
  match va with
  | Value.Arr arr -> Option.iter (fun idx -> Heap.set_elem env.heap arr idx v) (array_index vi)
  | v' -> raise (Runtime_error ("cannot index-assign " ^ Value.type_name v'))

and set_prop env vo p v =
  send_cost env;
  match vo with
  | Value.Obj obj -> Heap.set_prop env.heap obj p v
  | v' -> raise (Runtime_error ("cannot set property on " ^ Value.type_name v'))

(* Store [value ()] into [lv] and return it.  The lvalue's base and index
   are evaluated before the value, as [Compile] orders them: a value that
   writes a variable the index reads must not move the store. *)
and assign env frame lv value =
  match lv with
  | Ast.Lvar x ->
    let v = value () in
    assign_var env frame x v;
    v
  | Ast.Lindex (a, i) ->
    let va = eval env frame a and vi = eval env frame i in
    let v = value () in
    set_index env va vi v;
    v
  | Ast.Lprop (o, p) ->
    let vo = eval env frame o in
    let v = value () in
    set_prop env vo p v;
    v

and call_named env name this args =
  match Hashtbl.find_opt env.functions name with
  | None -> (
    match Intrinsics.global_lookup name with
    | Some intr ->
      env.charge (Intrinsics.cost intr);
      (try Intrinsics.eval env.heap intr Value.Undef args
       with Intrinsics.Type_error m -> raise (Runtime_error m))
    | None -> raise (Runtime_error ("undefined function " ^ name)))
  | Some fid -> call_func env fid this args

and call_func env fid this args =
  let f = env.funcs.(fid) in
  (* Frame setup: Ruby pays more for argument binding / method lookup. *)
  env.charge (match env.flavour with Php_like -> 40 | Ruby_like -> 80);
  let frame = { locals = Hashtbl.create 8; this } in
  List.iteri
    (fun i p ->
      Hashtbl.replace frame.locals p
        (match List.nth_opt args i with Some v -> v | None -> Value.Undef))
    f.Ast.params;
  declare_vars frame f.Ast.body;
  (try
     exec_block env frame f.Ast.body;
     Value.Undef
   with Return_exc v -> v)

and exec_stmt env frame (s : Ast.stmt) =
  burn env;
  dispatch_cost env;
  match s with
  | Ast.Expr e -> ignore (eval env frame e)
  | Ast.Var_decl ds ->
    List.iter
      (fun (x, init) ->
        match init with
        | None -> ()
        | Some e ->
          let v = eval env frame e in
          if Hashtbl.mem frame.locals x then Hashtbl.replace frame.locals x v
          else Hashtbl.replace env.globals x v)
      ds
  | Ast.If (c, a, b) ->
    if Value.truthy (eval env frame c) then exec_block env frame a
    else exec_block env frame b
  | Ast.While (c, body) -> (
    try
      while Value.truthy (eval env frame c) do
        try exec_block env frame body with Continue_exc -> ()
      done
    with Break_exc -> ())
  | Ast.Do_while (body, c) -> (
    try
      let continue_loop = ref true in
      while !continue_loop do
        (try exec_block env frame body with Continue_exc -> ());
        continue_loop := Value.truthy (eval env frame c)
      done
    with Break_exc -> ())
  | Ast.For (init, cond, step, body) -> (
    (match init with Some s -> exec_stmt env frame s | None -> ());
    let check () =
      match cond with Some c -> Value.truthy (eval env frame c) | None -> true
    in
    try
      while check () do
        (try exec_block env frame body with Continue_exc -> ());
        match step with Some e -> ignore (eval env frame e) | None -> ()
      done
    with Break_exc -> ())
  | Ast.Return None -> raise (Return_exc Value.Undef)
  | Ast.Return (Some e) -> raise (Return_exc (eval env frame e))
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc
  | Ast.Block b -> exec_block env frame b

and exec_block env frame block = List.iter (exec_stmt env frame) block

(** Run a program's top level (globals scope). *)
let run_program env (prog : Ast.program) =
  let frame = { locals = Hashtbl.create 1; this = Value.Undef } in
  try exec_block env frame (Ast.toplevel prog) with Return_exc _ -> ()

(** Call a named function from the top. *)
let call env name args = call_named env name Value.Undef args
