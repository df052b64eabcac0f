(** The speculative bytecode → LIR compiler shared by the DFG and FTL tiers.

    Follows JavaScriptCore's structure: type feedback from Baseline decides
    what to speculate (int32 arithmetic, monomorphic shapes, in-bounds array
    accesses, known callees), and every speculation is guarded by a check
    whose failure OSR-exits to the Baseline tier at the current bytecode
    index — a Stack Map Point carrying a live map computed from bytecode
    liveness.

    SSA is built directly during translation with the Braun et al. algorithm
    (local value numbering per block + on-demand phi insertion with block
    sealing), followed by a trivial-phi elimination fixpoint. *)

module Opcode = Nomap_bytecode.Opcode
module Liveness = Nomap_bytecode.Liveness
module Feedback = Nomap_profile.Feedback
module Value = Nomap_runtime.Value
module Intrinsics = Nomap_runtime.Intrinsics
module L = Nomap_lir.Lir
module Ast = Nomap_jsir.Ast

(* ------------------------------------------------------------------ *)
(* Static types of SSA values, used to suppress provably-unneeded checks at
   emission time (the Typeprop pass removes the rest after phi types are
   known). *)

type ty = Tint | Tnum | Tbool | Tstr | Tarr | Tobj of int option | Tfun | Tany

let type_of_kind = function
  | L.Const c -> (
    match c with
    | Value.Int _ -> Tint
    | Value.Num _ -> Tnum
    | Value.Str _ -> Tstr
    | Value.Bool _ -> Tbool
    | Value.Arr _ -> Tarr
    | Value.Obj _ -> Tobj None
    | Value.Fun _ -> Tfun
    | Value.Undef | Value.Null | Value.Hole -> Tany)
  | L.Iadd _ | L.Isub _ | L.Imul _ | L.Ineg _ | L.Iadd_wrap _ | L.Isub_wrap _
  | L.Band _ | L.Bor _ | L.Bxor _ | L.Bnot _ | L.Shl _ | L.Shr _ -> Tint
  | L.Ushr _ -> Tnum
  | L.Fadd _ | L.Fsub _ | L.Fmul _ | L.Fdiv _ | L.Fmod _ | L.Fneg _ -> Tnum
  | L.Cmp _ | L.Not _ -> Tbool
  | L.Load_length _ | L.Str_length _ | L.Load_char_code _ -> Tint
  | L.Check_int _ -> Tint
  | L.Check_number _ -> Tnum
  | L.Check_string _ -> Tstr
  | L.Check_array _ -> Tarr
  | L.Check_shape (_, s, _) -> Tobj (Some s)
  | L.Check_fun_eq _ -> Tfun
  | L.Check_bounds _ | L.Check_str_bounds _ | L.Check_not_hole _ | L.Check_overflow _ -> Tint
  | L.Alloc_object -> Tobj None
  | L.Alloc_array _ -> Tarr
  | L.Ctor_call _ -> Tobj None
  | L.Intrinsic (i, _) -> (
    match i with
    | Intrinsics.Global_is_nan -> Tbool
    | _ -> Tnum)
  | _ -> Tany

let is_int_ty = function Tint -> true | _ -> false
let is_num_ty = function Tint | Tnum -> true | _ -> false

(* ------------------------------------------------------------------ *)

(** Engine-compiled executable forms of a [compiled] function.  The type is
    extensible so an execution engine (a layer above this one) can cache its
    own artifact on the record without the tiers layer depending on it;
    adaptation throwing the record away ([version.ftl <- None]) discards the
    cached engine code with it. *)
type artifact = ..

type compiled = {
  lir : L.func;
  block_pc : (int, int) Hashtbl.t;  (** LIR block id -> bytecode leader pc *)
  header_blocks : (int * int) list;  (** (bytecode loop-header pc, LIR block id) *)
  entry_states : (int, (int * L.v) list) Hashtbl.t;
      (** loop-header LIR block -> live (reg, value-at-entry) pairs *)
  mutable decoded : Nomap_lir.Decode.t option;
      (** pre-decoded executable form, built lazily by the machine on first
          execution (i.e. after all transform/optimizer passes have run);
          the LIR must not be mutated once this is set *)
  mutable engine_code : artifact option;
      (** engine-specific compiled form (e.g. the threaded engine's closure
          chains), cached lazily under the same no-mutation contract *)
}

(* Per-block state is indexed by LIR block id, and [current_def] by
   [block * nregs + reg]; -1 marks "no definition yet". *)
type builder = {
  bc : Opcode.func;
  consts : Value.t array;
  profile : Feedback.func_profile;
  live : Liveness.t;
  lir : L.func;
  nregs : int;
  mutable cur : int;
  current_def : L.v array;
  sealed : bool array;
  incomplete : (int * L.v) list array;  (** block -> (reg, phi), newest first *)
  body_rev : L.v list array;  (** block -> reversed non-phi instrs *)
  phis_of : L.v list array;  (** block -> phis, newest first *)
  entry_states : (int, (int * L.v) list) Hashtbl.t;
}

(* --- block-leader discovery ---------------------------------------- *)

(* The block leaders in ascending pc order. *)
let leaders (bc : Opcode.func) =
  let n = Array.length bc.Opcode.code in
  let is_leader = Array.make (n + 1) false in
  is_leader.(0) <- true;
  Array.iteri
    (fun pc op ->
      match op with
      | Opcode.Jump t -> is_leader.(t) <- true
      | Opcode.Jump_if_false (_, t) | Opcode.Jump_if_true (_, t) ->
        is_leader.(t) <- true;
        if pc + 1 < n then is_leader.(pc + 1) <- true
      | Opcode.Return _ -> if pc + 1 < n then is_leader.(pc + 1) <- true
      | _ -> ())
    bc.Opcode.code;
  let acc = ref [] in
  for pc = n downto 0 do
    if is_leader.(pc) then acc := pc :: !acc
  done;
  Array.of_list !acc

(* --- emission ------------------------------------------------------- *)

let emit b kind =
  let i = L.new_instr b.lir kind in
  i.L.block <- b.cur;
  b.body_rev.(b.cur) <- i.L.id :: b.body_rev.(b.cur);
  i.L.id

let emit_phi_in b blk =
  let i = L.new_instr b.lir (L.Phi []) in
  i.L.block <- blk;
  b.phis_of.(blk) <- i.L.id :: b.phis_of.(blk);
  i.L.id

(* --- Braun SSA construction ----------------------------------------- *)

let write_var b blk reg v = b.current_def.((blk * b.nregs) + reg) <- v

let rec read_var b blk reg =
  let v = b.current_def.((blk * b.nregs) + reg) in
  if v >= 0 then v else read_var_recursive b blk reg

and read_var_recursive b blk reg =
  let v =
    if not b.sealed.(blk) then begin
      let phi = emit_phi_in b blk in
      b.incomplete.(blk) <- (reg, phi) :: b.incomplete.(blk);
      phi
    end
    else
      match (L.block b.lir blk).L.preds with
      | [] ->
        (* Unreachable block: any placeholder will do. *)
        let saved = b.cur in
        b.cur <- blk;
        let v = emit b (L.Const Value.Undef) in
        b.cur <- saved;
        v
      | [ p ] -> read_var b p reg
      | _ ->
        let phi = emit_phi_in b blk in
        write_var b blk reg phi;
        add_phi_operands b reg phi
  in
  write_var b blk reg v;
  v

and add_phi_operands b reg phi =
  let blk = (L.instr b.lir phi).L.block in
  let ins = List.map (fun p -> (p, read_var b p reg)) (L.block b.lir blk).L.preds in
  (L.instr b.lir phi).L.kind <- L.Phi ins;
  phi

let seal_block b blk =
  if not b.sealed.(blk) then begin
    b.sealed.(blk) <- true;
    let pending = b.incomplete.(blk) in
    b.incomplete.(blk) <- [];
    List.iter (fun (reg, phi) -> ignore (add_phi_operands b reg phi)) pending
  end

(* --- check/exit helpers ---------------------------------------------- *)

let make_exit b pc : L.exit =
  let live = Liveness.map_live b.live pc (read_var b b.cur) in
  { L.ekind = L.Deopt; smp = L.fresh_smp b.lir ~resume_pc:pc ~live }

let ty b v = type_of_kind (L.kind_of b.lir v)

let ensure_int b pc v =
  if is_int_ty (ty b v) then v else emit b (L.Check_int (v, make_exit b pc))

let ensure_num b pc v =
  if is_num_ty (ty b v) then v else emit b (L.Check_number (v, make_exit b pc))

let ensure_str b pc v =
  match ty b v with Tstr -> v | _ -> emit b (L.Check_string (v, make_exit b pc))

let ensure_arr b pc v =
  match ty b v with Tarr -> v | _ -> emit b (L.Check_array (v, make_exit b pc))

let ensure_shape b pc v shape_id =
  match ty b v with
  | Tobj (Some s) when s = shape_id -> v
  | _ -> emit b (L.Check_shape (v, shape_id, make_exit b pc))

let undef_const b = emit b (L.Const Value.Undef)

(* --- per-op speculation decisions ------------------------------------ *)

let is_pure_math = function
  | Intrinsics.Math_floor | Intrinsics.Math_ceil | Intrinsics.Math_round
  | Intrinsics.Math_sqrt | Intrinsics.Math_abs | Intrinsics.Math_sin | Intrinsics.Math_cos
  | Intrinsics.Math_tan | Intrinsics.Math_asin | Intrinsics.Math_acos | Intrinsics.Math_atan
  | Intrinsics.Math_atan2 | Intrinsics.Math_pow | Intrinsics.Math_log | Intrinsics.Math_exp
  | Intrinsics.Math_min | Intrinsics.Math_max | Intrinsics.Math_random
  | Intrinsics.Global_is_nan -> true
  | _ -> false

let cmp_of_binop = function
  | Ast.Lt -> Some L.Clt
  | Ast.Le -> Some L.Cle
  | Ast.Gt -> Some L.Cgt
  | Ast.Ge -> Some L.Cge
  | Ast.Eq -> Some L.Ceq
  | Ast.Ne -> Some L.Cne
  | _ -> None

let translate_binop b pc (op : Ast.binop) va vb (site : Feedback.site) =
  let rt () = emit b (L.Call_runtime (L.Rt_binop op, undef_const b, [ va; vb ])) in
  let int_ok = Feedback.int_only site in
  let num_ok = Feedback.number_only site in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul ->
    if int_ok then begin
      let a = ensure_int b pc va and b' = ensure_int b pc vb in
      let raw =
        emit b
          (match op with
          | Ast.Add -> L.Iadd (a, b')
          | Ast.Sub -> L.Isub (a, b')
          | _ -> L.Imul (a, b'))
      in
      emit b (L.Check_overflow (raw, make_exit b pc))
    end
    else if num_ok then begin
      let a = ensure_num b pc va and b' = ensure_num b pc vb in
      emit b
        (match op with
        | Ast.Add -> L.Fadd (a, b')
        | Ast.Sub -> L.Fsub (a, b')
        | _ -> L.Fmul (a, b'))
    end
    else rt ()
  | Ast.Div | Ast.Mod ->
    if num_ok then begin
      let a = ensure_num b pc va and b' = ensure_num b pc vb in
      emit b (match op with Ast.Div -> L.Fdiv (a, b') | _ -> L.Fmod (a, b'))
    end
    else rt ()
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
    if num_ok then begin
      let a = ensure_num b pc va and b' = ensure_num b pc vb in
      let c = match cmp_of_binop op with Some c -> c | None -> assert false in
      emit b (L.Cmp (c, a, b'))
    end
    else rt ()
  | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr | Ast.Ushr ->
    (* Bitwise operators ToInt32 their operands; with number feedback the
       conversion is an inline truncation (JSC's ValueToInt32), so only
       non-number operands need the generic path. *)
    if int_ok || num_ok then begin
      let a = (if int_ok then ensure_int b pc va else ensure_num b pc va) in
      let b' = (if int_ok then ensure_int b pc vb else ensure_num b pc vb) in
      emit b
        (match op with
        | Ast.Band -> L.Band (a, b')
        | Ast.Bor -> L.Bor (a, b')
        | Ast.Bxor -> L.Bxor (a, b')
        | Ast.Shl -> L.Shl (a, b')
        | Ast.Shr -> L.Shr (a, b')
        | _ -> L.Ushr (a, b'))
    end
    else rt ()

let translate_unop b pc (op : Ast.unop) va (site : Feedback.site) =
  let rt () = emit b (L.Call_runtime (L.Rt_unop op, undef_const b, [ va ])) in
  match op with
  | Ast.Neg ->
    if Feedback.int_only site then begin
      let a = ensure_int b pc va in
      let raw = emit b (L.Ineg a) in
      emit b (L.Check_overflow (raw, make_exit b pc))
    end
    else if Feedback.number_only site then emit b (L.Fneg (ensure_num b pc va))
    else rt ()
  | Ast.Plus ->
    if Feedback.number_only site then ensure_num b pc va else rt ()
  | Ast.Not -> emit b (L.Not va)
  | Ast.Bitnot ->
    if Feedback.int_only site then emit b (L.Bnot (ensure_int b pc va)) else rt ()

(* String receivers whose methods the FTL fast-paths. *)
let translate_method b pc name vrecv vargs (site : Feedback.site) =
  let generic () =
    emit b (L.Call_runtime (L.Rt_method name, vrecv, vargs))
  in
  match site.Feedback.classes with
  | [ Feedback.Cls_str ] -> (
    match (name, vargs) with
    | "charCodeAt", [ vi ]
      when site.Feedback.result_classes = [ Feedback.Cls_int ] ->
      (* Always returned an int so far => always in bounds: inline it. *)
      let s = ensure_str b pc vrecv in
      let i = ensure_int b pc vi in
      let ib = emit b (L.Check_str_bounds (s, i, make_exit b pc)) in
      emit b (L.Load_char_code (s, ib))
    | _ -> (
      match Intrinsics.method_lookup (Value.Str { sid = -1; sdata = ""; saddr = 0 }) name with
      | Some intr -> emit b (L.Call_runtime (L.Rt_intrinsic intr, vrecv, vargs))
      | None -> generic ()))
  | [ Feedback.Cls_arr ] -> (
    match
      Intrinsics.method_lookup
        (Value.Arr { aid = -1; elems = [||]; alen = 0; aaddr = 0; elems_addr = 0 })
        name
    with
    | Some intr -> emit b (L.Call_runtime (L.Rt_intrinsic intr, vrecv, vargs))
    | None -> generic ())
  | [ Feedback.Cls_obj ] -> (
    match (Feedback.monomorphic_shape site, Feedback.monomorphic_callee site) with
    | Some (shape_id, Feedback.Load_slot slot), Some fid ->
      let o = ensure_shape b pc vrecv shape_id in
      let fv = emit b (L.Load_slot (o, slot)) in
      let fv' = emit b (L.Check_fun_eq (fv, fid, make_exit b pc)) in
      ignore fv';
      emit b (L.Call_method (fid, o, vargs))
    | _ -> generic ())
  | _ -> generic ()

(* --- main translation ------------------------------------------------ *)

let compile ~(bc : Opcode.func) ~(consts : Value.t array) ~(profile : Feedback.func_profile) :
    compiled =
  let lir = L.create_func ~fid:bc.Opcode.fid in
  let live = Liveness.compute bc in
  let ncode = Array.length bc.Opcode.code in
  let leader_pcs = leaders bc in
  let nleaders = Array.length leader_pcs in
  (* Block 0 is the entry (it seeds the registers); leader [i] gets block
     [i + 1]. *)
  let nblocks = nleaders + 1 in
  let nregs = bc.Opcode.nregs in
  let b =
    {
      bc;
      consts;
      profile;
      live;
      lir;
      nregs;
      cur = 0;
      current_def = Array.make (nblocks * nregs) (-1);
      sealed = Array.make nblocks false;
      incomplete = Array.make nblocks [];
      body_rev = Array.make nblocks [];
      phis_of = Array.make nblocks [];
      entry_states = Hashtbl.create 4;
    }
  in
  let entry = L.new_block lir in
  lir.L.entry <- entry.L.bid;
  let leader_block = Array.make (ncode + 1) (-1) in
  Array.iter (fun pc -> leader_block.(pc) <- (L.new_block lir).L.bid) leader_pcs;
  let block_of pc = leader_block.(pc) in
  (* One past the last pc of leader [i]'s block. *)
  let block_end i = if i + 1 < nleaders then leader_pcs.(i + 1) else ncode in
  (* Bytecode-level successors between leaders: follow the block from its
     leader to the first control transfer (dead code after an unconditional
     jump is skipped, matching how the block is filled). *)
  let bc_succs i =
    let e = block_end i in
    let rec go pc =
      if pc >= e then if e < ncode then [ e ] else []
      else
        match bc.Opcode.code.(pc) with
        | Opcode.Jump t -> [ t ]
        | Opcode.Jump_if_false (_, t) | Opcode.Jump_if_true (_, t) -> [ pc + 1; t ]
        | Opcode.Return _ -> []
        | _ -> go (pc + 1)
    in
    go leader_pcs.(i) |> List.filter (fun t -> t < ncode)
  in
  (* bc_preds.(blk): the leader blocks that flow into [blk], latest first. *)
  let bc_preds = Array.make nblocks [] in
  Array.iteri
    (fun i leader ->
      List.iter
        (fun succ ->
          let s = block_of succ in
          bc_preds.(s) <- block_of leader :: bc_preds.(s))
        (bc_succs i))
    leader_pcs;
  (* LIR preds mirror the bytecode CFG (entry precedes leader 0). *)
  (L.block lir (block_of 0)).L.preds <- [ entry.L.bid ];
  Array.iter
    (fun leader ->
      let blk = L.block lir (block_of leader) in
      blk.L.preds <- blk.L.preds @ List.sort_uniq compare bc_preds.(blk.L.bid))
    leader_pcs;
  (* Seed the entry block. *)
  b.cur <- entry.L.bid;
  b.sealed.(entry.L.bid) <- true;
  for r = 0 to nregs - 1 do
    let v =
      if r <= bc.Opcode.nparams then emit b (L.Param r) else emit b (L.Const Value.Undef)
    in
    write_var b entry.L.bid r v
  done;
  entry.L.term <- L.Jump (block_of 0);
  (* Sealing discipline: a block is sealed once all its bytecode preds are
     filled, in ascending leader order. *)
  let filled = Array.make nblocks false in
  let try_seal_all () =
    for blk = 1 to nleaders do
      if List.for_all (fun p -> filled.(p)) bc_preds.(blk) then seal_block b blk
    done
  in
  try_seal_all ();
  (* Fill blocks in pc order. *)
  Array.iteri
    (fun li leader ->
      let blk = block_of leader in
      b.cur <- blk;
      (* Record entry state for loop headers (for NoMap Tx_begin SMPs). *)
      if List.mem leader bc.Opcode.loop_headers then begin
        Hashtbl.replace b.entry_states blk (Liveness.map_live live leader (read_var b blk))
      end;
      let e = block_end li in
      let pc = ref leader in
      let terminated = ref false in
      while !pc < e && not !terminated do
        let cur_pc = !pc in
        let site = profile.Feedback.sites.(cur_pc) in
        let op = bc.Opcode.code.(cur_pc) in
        (match op with
        | Opcode.Load_const (d, i) -> write_var b blk d (emit b (L.Const consts.(i)))
        | Opcode.Move (d, s) -> write_var b blk d (read_var b blk s)
        | Opcode.Load_global (d, g) -> write_var b blk d (emit b (L.Load_global g))
        | Opcode.Store_global (g, s) ->
          ignore (emit b (L.Store_global (g, read_var b blk s)))
        | Opcode.Binop (bop, d, x, y) ->
          let va = read_var b blk x and vb = read_var b blk y in
          write_var b blk d (translate_binop b cur_pc bop va vb site)
        | Opcode.Unop (uop, d, x) ->
          let va = read_var b blk x in
          write_var b blk d (translate_unop b cur_pc uop va site)
        | Opcode.Get_prop (d, o, name) -> (
          let vo = read_var b blk o in
          match Feedback.monomorphic_shape site with
          | Some (shape_id, Feedback.Load_slot slot) ->
            let o' = ensure_shape b cur_pc vo shape_id in
            write_var b blk d (emit b (L.Load_slot (o', slot)))
          | _ ->
            write_var b blk d
              (emit b (L.Call_runtime (L.Rt_get_prop name, vo, []))))
        | Opcode.Set_prop (o, name, x) -> (
          let vo = read_var b blk o and vx = read_var b blk x in
          match Feedback.monomorphic_shape site with
          | Some (shape_id, Feedback.Store_slot slot) ->
            let o' = ensure_shape b cur_pc vo shape_id in
            ignore (emit b (L.Store_slot (o', slot, vx)))
          | Some (shape_id, Feedback.Transition (_, slot)) ->
            (* Constructor pattern: adding the property transitions the
               shape; compile the transition inline (JSC does the same). *)
            let o' = ensure_shape b cur_pc vo shape_id in
            ignore (emit b (L.Store_transition (o', name, slot, vx)))
          | _ -> ignore (emit b (L.Call_runtime (L.Rt_set_prop name, vo, [ vx ]))))
        | Opcode.Get_elem (d, a, i) ->
          let va = read_var b blk a and vi = read_var b blk i in
          let fast =
            List.for_all
              (fun c -> c = Feedback.Cls_arr || c = Feedback.Cls_int)
              site.Feedback.classes
            && site.Feedback.classes <> []
            && (not site.Feedback.saw_oob)
            && not site.Feedback.saw_hole
          in
          if fast then begin
            let a' = ensure_arr b cur_pc va in
            let i' = ensure_int b cur_pc vi in
            let ib = emit b (L.Check_bounds (a', i', make_exit b cur_pc)) in
            let _nh = emit b (L.Check_not_hole (a', ib, make_exit b cur_pc)) in
            write_var b blk d (emit b (L.Load_elem (a', ib)))
          end
          else
            write_var b blk d (emit b (L.Call_runtime (L.Rt_get_elem, va, [ vi ])))
        | Opcode.Set_elem (a, i, x) ->
          let va = read_var b blk a and vi = read_var b blk i and vx = read_var b blk x in
          let fast =
            List.for_all
              (fun c -> c = Feedback.Cls_arr || c = Feedback.Cls_int)
              site.Feedback.classes
            && site.Feedback.classes <> []
            && not site.Feedback.saw_elongation
          in
          if fast then begin
            let a' = ensure_arr b cur_pc va in
            let i' = ensure_int b cur_pc vi in
            let ib = emit b (L.Check_bounds (a', i', make_exit b cur_pc)) in
            ignore (emit b (L.Store_elem (a', ib, vx)))
          end
          else ignore (emit b (L.Call_runtime (L.Rt_set_elem, va, [ vi; vx ])))
        | Opcode.Get_length (d, x) -> (
          let vx = read_var b blk x in
          match site.Feedback.classes with
          | [ Feedback.Cls_arr ] ->
            let a' = ensure_arr b cur_pc vx in
            write_var b blk d (emit b (L.Load_length a'))
          | [ Feedback.Cls_str ] ->
            let s' = ensure_str b cur_pc vx in
            write_var b blk d (emit b (L.Str_length s'))
          | _ ->
            write_var b blk d (emit b (L.Call_runtime (L.Rt_get_length, vx, []))))
        | Opcode.New_object d -> write_var b blk d (emit b L.Alloc_object)
        | Opcode.New_array (d, n) ->
          let vn = read_var b blk n in
          write_var b blk d (emit b (L.Alloc_array (ensure_int b cur_pc vn)))
        | Opcode.Call (d, fid, args) ->
          let vargs = List.map (read_var b blk) args in
          write_var b blk d (emit b (L.Call_func (fid, vargs)))
        | Opcode.New_call (d, fid, args) ->
          let vargs = List.map (read_var b blk) args in
          write_var b blk d (emit b (L.Ctor_call (fid, vargs)))
        | Opcode.Call_method (d, recv, name, args) ->
          let vrecv = read_var b blk recv in
          let vargs = List.map (read_var b blk) args in
          write_var b blk d (translate_method b cur_pc name vrecv vargs site)
        | Opcode.Call_intrinsic (d, intr, args) ->
          let vargs = List.map (read_var b blk) args in
          if is_pure_math intr then write_var b blk d (emit b (L.Intrinsic (intr, vargs)))
          else
            write_var b blk d
              (emit b (L.Call_runtime (L.Rt_intrinsic intr, undef_const b, vargs)))
        | Opcode.Jump t ->
          (L.block lir blk).L.term <- L.Jump (block_of t);
          terminated := true
        | Opcode.Jump_if_false (c, t) ->
          let vc = read_var b blk c in
          (L.block lir blk).L.term <- L.Br (vc, block_of (cur_pc + 1), block_of t);
          terminated := true
        | Opcode.Jump_if_true (c, t) ->
          let vc = read_var b blk c in
          (L.block lir blk).L.term <- L.Br (vc, block_of t, block_of (cur_pc + 1));
          terminated := true
        | Opcode.Return r ->
          let rv = Option.map (read_var b blk) r in
          (L.block lir blk).L.term <- L.Ret rv;
          terminated := true);
        incr pc
      done;
      (* Fallthrough to the next leader. *)
      if not !terminated then
        (L.block lir blk).L.term <-
          (if e < Array.length bc.Opcode.code then L.Jump (block_of e) else L.Ret None);
      filled.(blk) <- true;
      try_seal_all ())
    leader_pcs;
  for blk = 1 to nleaders do
    seal_block b blk
  done;
  (* Finalize block instruction lists: phis first, then body. *)
  Nomap_util.Vec.iter
    (fun (blk : L.block) ->
      blk.L.instrs <- List.rev_append b.phis_of.(blk.L.bid) (List.rev b.body_rev.(blk.L.bid)))
    lir.L.blocks;
  (* Trivial-phi elimination to a fixpoint.  A removed phi records its
     replacement in [subst]; later phis read their operands through it,
     and one substitution at the end rewrites every use.  The
     substitution also covers the entry-state side table the NoMap
     transaction placer reads, which [L.apply_substitution] cannot see. *)
  let subst = Array.make (Nomap_util.Vec.length lir.L.instrs) (-1) in
  let rec resolve v = if subst.(v) < 0 then v else resolve subst.(v) in
  let touched = Array.make nblocks false in
  let changed = ref true in
  while !changed do
    changed := false;
    Nomap_util.Vec.iter
      (fun i ->
        match i.L.kind with
        | L.Phi ins ->
          let ops =
            List.sort_uniq compare
              (List.filter_map
                 (fun (_, v) ->
                   let v = resolve v in
                   if v <> i.L.id then Some v else None)
                 ins)
          in
          (match ops with
          | [ same ] ->
            i.L.kind <- L.Nop;
            touched.(i.L.block) <- true;
            i.L.block <- -1;
            subst.(i.L.id) <- same;
            changed := true
          | _ -> ())
        | _ -> ())
      lir.L.instrs
  done;
  L.iter_blocks lir (fun blk ->
      if touched.(blk.L.bid) then blk.L.instrs <- List.filter (fun v -> subst.(v) < 0) blk.L.instrs);
  L.apply_substitution lir resolve;
  Hashtbl.filter_map_inplace
    (fun _ state -> Some (List.map (fun (reg, v) -> (reg, resolve v)) state))
    b.entry_states;
  Nomap_lir.Cfg.compute_preds lir;
  let block_pc = Hashtbl.create nleaders in
  Array.iter (fun pc -> Hashtbl.replace block_pc (block_of pc) pc) leader_pcs;
  let header_blocks =
    List.map (fun pc -> (pc, block_of pc)) bc.Opcode.loop_headers
  in
  {
    lir;
    block_pc;
    header_blocks;
    entry_states = b.entry_states;
    decoded = None;
    engine_code = None;
  }
