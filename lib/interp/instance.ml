(** A program instantiated against a heap: materialized constants, global
    storage, the bytecode tiers' host inline caches, and the execution
    watchdog.  Shared by every execution engine (interpreter, baseline,
    optimized machine code). *)

open Nomap_runtime
module Opcode = Nomap_bytecode.Opcode

type t = {
  prog : Opcode.program;
  heap : Heap.t;
  globals : Value.t array;
  consts : Value.t array array;  (** per function, materialized *)
  ics : Ic.t option array array;
      (** per function and pc: the host inline cache of a property or
          dynamic method site, [None] elsewhere and everywhere when the
          instance was created with [~host_ic:false].  Caches are mutable
          and keyed on this heap's shape ids, so they live here, per
          instance, never on the shared program (DESIGN.md §14). *)
  mutable fuel : int;  (** remaining bytecode ops / LIR instrs; guards runaways *)
}

exception Out_of_fuel

let materialize_const heap (c : Opcode.const) : Value.t =
  match c with
  | Cnum f -> Value.number f
  | Cstr s -> Heap.str heap s
  | Cbool b -> Value.Bool b
  | Cnull -> Value.Null
  | Cundef -> Value.Undef
  | Cfun fid -> Value.Fun fid

let site_ic (op : Opcode.op) =
  match op with
  | Get_prop _ | Set_prop _ | Get_length _ -> Some (Ic.create ())
  | Call_method (_, _, name, _) -> Some (Ic.for_method name)
  | _ -> None

let create ?(seed = 42) ?(fuel = max_int) ?(host_ic = true) (prog : Opcode.program) =
  let heap = Heap.create ~seed () in
  {
    prog;
    heap;
    globals = Array.make (max 1 (Array.length prog.globals)) Value.Undef;
    consts =
      Array.map (fun (f : Opcode.func) -> Array.map (materialize_const heap) f.consts) prog.funcs;
    ics =
      Array.map
        (fun (f : Opcode.func) ->
          if host_ic then Array.map site_ic f.code else Array.make (Array.length f.code) None)
        prog.funcs;
    fuel;
  }

let[@inline] burn t n =
  t.fuel <- t.fuel - n;
  if t.fuel < 0 then raise Out_of_fuel

let func t fid = t.prog.funcs.(fid)
