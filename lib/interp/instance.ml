(** A program instantiated against a heap: materialized constants, global
    storage, and the execution watchdog.  Shared by every execution engine
    (interpreter, baseline, optimized machine code). *)

open Nomap_runtime

type t = {
  prog : Nomap_bytecode.Opcode.program;
  heap : Heap.t;
  globals : Value.t array;
  consts : Value.t array array;  (** per function, materialized *)
  header_masks : bool array array;
      (** per function, [mask.(pc)] iff [pc] is a loop header — O(1) form of
          [List.mem pc f.loop_headers] for the interpreter's back-edge test *)
  mutable fuel : int;  (** remaining bytecode ops / LIR instrs; guards runaways *)
}

exception Out_of_fuel

let materialize_const heap (c : Nomap_bytecode.Opcode.const) : Value.t =
  match c with
  | Cnum f -> Value.number f
  | Cstr s -> Heap.str heap s
  | Cbool b -> Value.Bool b
  | Cnull -> Value.Null
  | Cundef -> Value.Undef
  | Cfun fid -> Value.Fun fid

let create ?(seed = 42) ?(fuel = max_int) (prog : Nomap_bytecode.Opcode.program) =
  let heap = Heap.create ~seed () in
  {
    prog;
    heap;
    globals = Array.make (max 1 (Array.length prog.globals)) Value.Undef;
    consts =
      Array.map (fun (f : Nomap_bytecode.Opcode.func) ->
          Array.map (materialize_const heap) f.consts)
        prog.funcs;
    header_masks =
      Array.map (fun (f : Nomap_bytecode.Opcode.func) ->
          let m = Array.make (max 1 (Array.length f.code)) false in
          List.iter (fun pc -> if pc >= 0 && pc < Array.length m then m.(pc) <- true)
            f.loop_headers;
          m)
        prog.funcs;
    fuel;
  }

let[@inline] burn t n =
  t.fuel <- t.fuel - n;
  if t.fuel < 0 then raise Out_of_fuel

let func t fid = t.prog.funcs.(fid)
