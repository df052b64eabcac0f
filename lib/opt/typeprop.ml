(** Forward type inference over SSA values (a small sparse conditional type
    propagation) followed by redundant-check elimination: a check whose
    input provably satisfies its predicate is deleted and its uses rewired
    to the input.

    This models the check-elimination JavaScriptCore already performs
    (TypeCheckHoistingPhase and friends); crucially it is *dataflow*, not
    code motion, so it is equally legal with or without SMPs — the checks it
    cannot prove away are exactly the residual checks the paper measures. *)

module L = Nomap_lir.Lir

type ty = Bot | Tint | Tnum | Tbool | Tstr | Tarr | Tobj of int option | Tfun | Tany

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Tint, Tint -> Tint
  | (Tint | Tnum), (Tint | Tnum) -> Tnum
  | Tbool, Tbool -> Tbool
  | Tstr, Tstr -> Tstr
  | Tarr, Tarr -> Tarr
  | Tobj a, Tobj b -> if Option.equal Int.equal a b then Tobj a else Tobj None
  | Tfun, Tfun -> Tfun
  | _ -> Tany

let equal a b =
  match (a, b) with Tobj a, Tobj b -> Option.equal Int.equal a b | _ -> a == b

let of_const (c : Nomap_runtime.Value.t) =
  match c with
  | Int _ -> Tint
  | Num _ -> Tnum
  | Str _ -> Tstr
  | Bool _ -> Tbool
  | Arr _ -> Tarr
  | Obj o -> Tobj (Some o.Nomap_runtime.Value.shape.Nomap_runtime.Shape.id)
  | Fun _ -> Tfun
  | Undef | Null | Hole -> Tany

let transfer types = function
  | L.Const c -> of_const c
  | L.Phi ins -> List.fold_left (fun acc (_, v) -> join acc types.(v)) Bot ins
  | L.Iadd _ | L.Isub _ | L.Imul _ | L.Ineg _ | L.Iadd_wrap _ | L.Isub_wrap _
  | L.Band _ | L.Bor _ | L.Bxor _ | L.Bnot _ | L.Shl _ | L.Shr _ -> Tint
  | L.Ushr _ -> Tnum
  | L.Fadd _ | L.Fsub _ | L.Fmul _ | L.Fdiv _ | L.Fmod _ | L.Fneg _ -> Tnum
  | L.Cmp _ | L.Not _ -> Tbool
  | L.Load_length _ | L.Str_length _ | L.Load_char_code _ -> Tint
  | L.Check_int (v, _) -> join Bot (match types.(v) with Tint -> Tint | _ -> Tint)
  | L.Check_number (v, _) -> (match types.(v) with Tint -> Tint | _ -> Tnum)
  | L.Check_string _ -> Tstr
  | L.Check_array _ -> Tarr
  | L.Check_shape (_, s, _) -> Tobj (Some s)
  | L.Check_fun_eq _ -> Tfun
  | L.Check_bounds _ | L.Check_str_bounds _ | L.Check_not_hole _ -> Tint
  | L.Check_overflow (v, _) -> (match types.(v) with Bot -> Bot | _ -> Tint)
  | L.Check_cond (v, _, _) -> types.(v)
  | L.Alloc_object -> Tobj None
  | L.Alloc_array _ -> Tarr
  | L.Ctor_call _ -> Tobj None
  | L.Intrinsic (Nomap_runtime.Intrinsics.Global_is_nan, _) -> Tbool
  | L.Intrinsic _ -> Tnum
  | _ -> Tany

(** Infer a type for every SSA value (fixpoint over phis). *)
let infer f =
  let n = Nomap_util.Vec.length f.L.instrs in
  let types = Array.make n Bot in
  let changed = ref true in
  while !changed do
    changed := false;
    L.iter_instrs f (fun _ i ->
        let t = transfer types i.L.kind in
        let t' = join types.(i.L.id) t in
        if not (equal t' types.(i.L.id)) then begin
          types.(i.L.id) <- t';
          changed := true
        end)
  done;
  types

let satisfies types kind =
  match kind with
  | L.Check_int (v, _) -> types.(v) == Tint
  | L.Check_number (v, _) -> ( match types.(v) with Tint | Tnum -> true | _ -> false)
  | L.Check_string (v, _) -> types.(v) == Tstr
  | L.Check_array (v, _) -> types.(v) == Tarr
  | L.Check_shape (v, s, _) -> equal types.(v) (Tobj (Some s))
  | _ -> false

(** Remove checks whose predicate the type analysis discharges.  Returns the
    number of checks removed. *)
let run f =
  let types = infer f in
  let removed = ref 0 in
  let victims = ref [] in
  L.iter_instrs f (fun _ i ->
      if satisfies types i.L.kind then
        match L.checked_value i.L.kind with
        | Some operand -> victims := (i.L.id, operand) :: !victims
        | None -> ());
  removed := List.length !victims;
  Passes.delete_and_replace_all f !victims;
  !removed
