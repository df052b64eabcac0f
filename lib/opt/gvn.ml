(** Global value numbering.

    - Pure computations (arithmetic, comparisons, constants) and pure
      value-predicate checks (int/number/string/array/fun-eq/overflow) are
      numbered over the dominator tree: a dominated duplicate is deleted and
      its uses rewired to the dominating instance.  Deduplicating a check
      this way is *check elimination*, which JavaScriptCore performs too —
      it requires no code motion, so SMPs do not block it.
    - Memory reads (loads, and the checks that read object/array metadata:
      shape, bounds, holes) are numbered only within a basic block, and the
      table is invalidated by aliasing stores, by clobbering calls and — the
      paper's key restriction — by deopt-exit checks (Stack Map Points act
      as full memory barriers).  Inside NoMap transactions checks are
      abort-exit and do not invalidate, which is how the redundant-load
      elimination the paper reports for S18 becomes possible. *)

module L = Nomap_lir.Lir
module Cfg = Nomap_lir.Cfg

let find leader v =
  let rec go v = if leader.(v) = v then v else go leader.(v) in
  go v

(* Value-numbering keys: an operator and its operands' leaders.  Immediate
   fields (slot, global, shape and function ids) sit in operand positions;
   the operator tells them apart. *)
type op =
  | Iadd | Isub | Iadd_wrap | Isub_wrap | Imul | Ineg
  | Fadd | Fsub | Fmul | Fdiv | Fmod | Fneg
  | Band | Bor | Bxor | Bnot | Shl | Shr | Ushr
  | Cmp of L.cmp
  | Not
  | Check_int | Check_number | Check_string | Check_array | Check_fun_eq | Check_overflow
  | Load_slot | Load_elem | Load_length | Str_length | Load_char_code | Load_global
  | Check_shape | Check_bounds | Check_str_bounds | Check_not_hole

type key =
  | Int of int
  | Num of int64  (** the bits; a NaN keys by its sign alone *)
  | Bool of bool
  | Str of string
  | Undef
  | Null
  | Fun of int
  | Op of op * int * int  (** a unary op pads with 0 *)

(* Key for globally-numberable (pure) expressions. *)
let pure_key leader kind =
  let l v = find leader v in
  let op1 op a = Some (Op (op, l a, 0)) and op2 op a b = Some (Op (op, l a, l b)) in
  let comm op a b =
    let a = l a and b = l b in
    Some (Op (op, min a b, max a b))
  in
  match kind with
  | L.Const c -> (
    match c with
    | Nomap_runtime.Value.Int i -> Some (Int i)
    | Nomap_runtime.Value.Num fl ->
      Some (Num (Int64.bits_of_float (if Float.is_nan fl then Float.copy_sign Float.nan fl else fl)))
    | Nomap_runtime.Value.Bool b -> Some (Bool b)
    | Nomap_runtime.Value.Str s -> Some (Str s.Nomap_runtime.Value.sdata)
    | Nomap_runtime.Value.Undef -> Some Undef
    | Nomap_runtime.Value.Null -> Some Null
    | Nomap_runtime.Value.Fun fid -> Some (Fun fid)
    | _ -> None)
  | L.Iadd (a, b) -> comm Iadd a b
  | L.Isub (a, b) -> op2 Isub a b
  | L.Iadd_wrap (a, b) -> comm Iadd_wrap a b
  | L.Isub_wrap (a, b) -> op2 Isub_wrap a b
  | L.Imul (a, b) -> comm Imul a b
  | L.Ineg a -> op1 Ineg a
  | L.Fadd (a, b) -> comm Fadd a b
  | L.Fsub (a, b) -> op2 Fsub a b
  | L.Fmul (a, b) -> comm Fmul a b
  | L.Fdiv (a, b) -> op2 Fdiv a b
  | L.Fmod (a, b) -> op2 Fmod a b
  | L.Fneg a -> op1 Fneg a
  | L.Band (a, b) -> comm Band a b
  | L.Bor (a, b) -> comm Bor a b
  | L.Bxor (a, b) -> comm Bxor a b
  | L.Bnot a -> op1 Bnot a
  | L.Shl (a, b) -> op2 Shl a b
  | L.Shr (a, b) -> op2 Shr a b
  | L.Ushr (a, b) -> op2 Ushr a b
  | L.Cmp (c, a, b) -> op2 (Cmp c) a b
  | L.Not a -> op1 Not a
  (* Pure value-predicate checks (no memory read). *)
  | L.Check_int (a, _) -> op1 Check_int a
  | L.Check_number (a, _) -> op1 Check_number a
  | L.Check_string (a, _) -> op1 Check_string a
  | L.Check_array (a, _) -> op1 Check_array a
  | L.Check_fun_eq (a, fid, _) -> Some (Op (Check_fun_eq, l a, fid))
  | L.Check_overflow (a, _) -> op1 Check_overflow a
  | _ -> None

(* Key + alias class for block-locally-numberable memory reads. *)
let load_key leader kind =
  let l v = find leader v in
  match kind with
  | L.Load_slot (o, s) -> Some (Op (Load_slot, l o, s), L.A_slot s)
  | L.Load_elem (a, i) -> Some (Op (Load_elem, l a, l i), L.A_elem)
  | L.Load_length a -> Some (Op (Load_length, l a, 0), L.A_array_header)
  | L.Str_length a -> Some (Op (Str_length, l a, 0), L.A_string)
  | L.Load_char_code (s, i) -> Some (Op (Load_char_code, l s, l i), L.A_string)
  | L.Load_global g -> Some (Op (Load_global, g, 0), L.A_global g)
  | L.Check_shape (o, sid, _) -> Some (Op (Check_shape, l o, sid), L.A_shape)
  | L.Check_bounds (a, i, _) -> Some (Op (Check_bounds, l a, l i), L.A_array_header)
  | L.Check_str_bounds (a, i, _) -> Some (Op (Check_str_bounds, l a, l i), L.A_string)
  | L.Check_not_hole (a, i, _) -> Some (Op (Check_not_hole, l a, l i), L.A_elem)
  | _ -> None

(** Run GVN; returns the number of instructions removed. *)
let run f =
  let doms = Cfg.compute_doms f in
  let n = Nomap_util.Vec.length f.L.instrs in
  let leader = Array.init n Fun.id in
  let table : (key, int) Hashtbl.t = Hashtbl.create 64 in
  let loads : (key, int * L.alias_class) Hashtbl.t = Hashtbl.create 16 in
  let victims = ref [] in
  let children = Array.make (Cfg.nblocks f) [] in
  Array.iteri
    (fun b idom -> if idom >= 0 && idom <> b then children.(idom) <- b :: children.(idom))
    doms.Cfg.idom;
  let rec visit blk =
    let pushed = ref [] in
    Hashtbl.clear loads;
    let invalidate_loads cls_opt =
      match cls_opt with
      | None -> Hashtbl.clear loads
      | Some cls ->
        Hashtbl.filter_map_inplace
          (fun _ ((_, lcls) as e) -> if L.may_alias cls lcls then None else Some e)
          loads
    in
    List.iter
      (fun v ->
        let i = L.instr f v in
        let kind = i.L.kind in
        (match pure_key leader kind with
        | Some key -> (
          match Hashtbl.find_opt table key with
          | Some w ->
            leader.(v) <- w;
            victims := v :: !victims
          | None ->
            Hashtbl.add table key v;
            pushed := key :: !pushed)
        | None -> (
          match load_key leader kind with
          | Some (key, cls) -> (
            match Hashtbl.find_opt loads key with
            | Some (w, _) ->
              leader.(v) <- w;
              victims := v :: !victims
            | None -> Hashtbl.replace loads key (v, cls))
          | None -> ()));
        (* Apply this instruction's clobbering effect to the local table. *)
        if L.is_smp_barrier kind then invalidate_loads None
        else
          match L.memory_effect kind with
          | L.Eff_store cls -> invalidate_loads (Some cls)
          | L.Eff_clobber -> invalidate_loads None
          | L.Eff_none | L.Eff_load _ | L.Eff_alloc -> ())
      (L.block f blk).L.instrs;
    List.iter visit children.(blk);
    List.iter (Hashtbl.remove table) !pushed
  in
  visit f.L.entry;
  let removed = List.length !victims in
  (* The leader chains may point through other victims; resolve fully and
     apply the whole substitution in one pass over the function. *)
  Passes.delete_and_replace_all f (List.map (fun v -> (v, find leader v)) !victims);
  removed
