(** A program instantiated against a heap: materialized constants, global
    storage, the bytecode tiers' compiled code, and the execution
    watchdog.  Shared by every execution engine (interpreter, baseline,
    optimized machine code). *)

open Nomap_runtime
module Opcode = Nomap_bytecode.Opcode

(** The bytecode engine's modes ([Interp] documents what each charges);
    they key the code table. *)
type mode = Interp_tier | Baseline_tier | Native_tier

(** Code the bytecode compiler ([Interp]) made for one function in one
    mode.  The type is extensible so the compiler can cache its closures
    here without this module depending on it. *)
type code = ..

type t = {
  prog : Opcode.program;
  heap : Heap.t;
  globals : Value.t array;
  consts : Value.t array array;  (** per function, materialized *)
  code : code option array;
      (** per function and mode ([code_slot]): the bytecode compiler's
          closures, compiled on first call and kept for the instance's
          life unless the compiler drops them *)
  mutable fuel : int;  (** remaining bytecode ops / LIR instrs; guards runaways *)
}

let modes = 3

let code_slot mode fid =
  (modes * fid) + match mode with Interp_tier -> 0 | Baseline_tier -> 1 | Native_tier -> 2

exception Out_of_fuel

let materialize_const heap (c : Opcode.const) : Value.t =
  match c with
  | Cnum f -> Value.number f
  | Cstr s -> Heap.str heap s
  | Cbool b -> Value.Bool b
  | Cnull -> Value.Null
  | Cundef -> Value.Undef
  | Cfun fid -> Value.Fun fid

let create ?(seed = 42) ?(fuel = max_int) (prog : Opcode.program) =
  let heap = Heap.create ~seed () in
  {
    prog;
    heap;
    globals = Array.make (max 1 (Array.length prog.globals)) Value.Undef;
    (* Filled in place: [Array.map] starts from its first result, which
       may be freshly allocated, and an array over 256 slots made from a
       young element forces a minor collection. *)
    consts =
      Array.map
        (fun (f : Opcode.func) ->
          let consts = Array.make (Array.length f.consts) Value.Undef in
          Array.iteri (fun i c -> consts.(i) <- materialize_const heap c) f.consts;
          consts)
        prog.funcs;
    code = Array.make (modes * Array.length prog.funcs) None;
    fuel;
  }

let[@inline] burn t n =
  t.fuel <- t.fuel - n;
  if t.fuel < 0 then raise Out_of_fuel

(** Store [v] in global [g].  Globals live outside the heap and its
    footprint model, yet an aborted transaction must not leave its global
    stores behind: inside one, the old value is journaled through the
    heap's [journal] hook, which the rollback runs. *)
let[@inline] store_global t g (v : Value.t) =
  let globals = t.globals and hooks = t.heap.Heap.hooks in
  if hooks.Heap.active then begin
    let old = globals.(g) in
    hooks.Heap.journal (fun () -> globals.(g) <- old)
  end;
  if Nomap_util.Hot.checked then globals.(g) <- v else Array.unsafe_set globals g v

let func t fid = t.prog.funcs.(fid)
