(** The reference execution engine: direct interpretation of pre-decoded
    LIR, one [match] over [Lir.kind] per instruction.

    This is the engine every other engine is measured against — its
    per-instruction protocol *defines* the simulated-metric contract:

    - free instructions (ghost-mode tx markers, NoMap_BC-elided checks)
      burn fuel but neither tick the transaction watchdog nor charge
      instructions/cycles — yet their semantics (including guard failure)
      still execute;
    - everything else burns, ticks, then charges its pre-computed cost at
      the tier's CPI *before* its semantics run;
    - each block terminator charges one instruction, also before it runs.

    The [Threaded] engine compiles this exact protocol into closures; keep
    the two in lockstep (the fuzzer's engine axis diffs them instruction
    count for instruction count). *)

module Value = Nomap_runtime.Value
module Heap = Nomap_runtime.Heap
module Ops = Nomap_runtime.Ops
module Shape = Nomap_runtime.Shape
module Intrinsics = Nomap_runtime.Intrinsics
module Instance = Nomap_interp.Instance
module L = Nomap_lir.Lir
module D = Nomap_lir.Decode
module Htm = Nomap_htm.Htm
module Specialize = Nomap_tiers.Specialize
module Hot = Nomap_util.Hot
open Machine
open Hot (* get/set/fget: the audited unchecked register-file accessors *)

let exec_func env (c : Specialize.compiled) ~tier ~this ~args : Value.t =
  let d = decoded c in
  let lir = c.Specialize.lir in
  let inst = env.instance in
  let heap = inst.Instance.heap in
  let cpi = cpi_of tier in
  let frame = enter_call env ~tier in
  let n = max 1 d.D.nvalues in
  let values = Array.make n Value.Undef in
  let overflowed = Array.make n false in
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  let run () =
    let prev_block = ref (-1) in
    let cur_block = ref d.D.entry in
    let running = ref true in
    let result = ref Value.Undef in
    while !running do
      let b = get d.D.dblocks !cur_block in
      (* Phis: the pre-resolved copy table for the incoming edge, applied as
         a parallel assignment (read phase, then write phase). *)
      let edges = b.D.phi_edges in
      let n_edges = Array.length edges in
      if n_edges > 0 then begin
        let prev = !prev_block in
        let rec find_edge i =
          if i >= n_edges then -1
          else if (get edges i).D.pred = prev then i
          else find_edge (i + 1)
        in
        let ei = find_edge 0 in
        if ei >= 0 then begin
          let e = get edges ei in
          let dsts = e.D.dsts and srcs = e.D.srcs in
          let scratch = d.D.scratch in
          let np = Array.length dsts in
          for i = 0 to np - 1 do
            set scratch i (get values (get srcs i))
          done;
          for i = 0 to np - 1 do
            set values (get dsts i) (get scratch i)
          done
        end
      end;
      let body = b.D.body in
      for idx = 0 to Array.length body - 1 do
        let di = get body idx in
        let v = di.D.id in
        if (di.D.is_tx_marker && env.htm_mode = Htm.Ghost) || di.D.elided then
          (* Free instructions: region markers under the Base config, and
             checks the NoMap_BC limit study elided (they keep their guard
             semantics below but model zero hardware instructions, so no
             transaction tick and no cycle charge). *)
          Instance.burn inst 1
        else begin
          Instance.burn inst 1;
          tx_tick env;
          charge env ~frame ~cpi di.D.cost
        end;
        match di.D.kind with
        | L.Nop | L.Phi _ -> ()
        | L.Param r ->
          set values v
            (if r = 0 then this
             else if r - 1 < nargs then get argv (r - 1)
             else Value.Undef)
        | L.Const c -> set values v c
        | L.Iadd (a, b) ->
          set values v
            (int_result env overflowed v (as_int (get values a) + as_int (get values b)))
        | L.Isub (a, b) ->
          set values v
            (int_result env overflowed v (as_int (get values a) - as_int (get values b)))
        | L.Iadd_wrap (a, b) ->
          set values v
            (Value.int_ (wrap_int32 (as_int (get values a) + as_int (get values b))))
        | L.Isub_wrap (a, b) ->
          set values v
            (Value.int_ (wrap_int32 (as_int (get values a) - as_int (get values b))))
        | L.Imul (a, b) ->
          set values v
            (int_result env overflowed v (as_int (get values a) * as_int (get values b)))
        | L.Ineg a ->
          let x = as_int (get values a) in
          (* -0 and -int32_min are not int32-representable results. *)
          if x = 0 || x = Value.int32_min then begin
            set overflowed v true;
            (match env.tx with
            | Some tx when env.sof_enabled -> tx.Htm.sof <- true
            | _ -> ());
            set values v (Value.int_ (wrap_int32 (-x)))
          end
          else set values v (Value.int_ (-x))
        | L.Fadd (a, b) ->
          set values v (Value.number (as_num (get values a) +. as_num (get values b)))
        | L.Fsub (a, b) ->
          set values v (Value.number (as_num (get values a) -. as_num (get values b)))
        | L.Fmul (a, b) ->
          set values v (Value.number (as_num (get values a) *. as_num (get values b)))
        | L.Fdiv (a, b) ->
          set values v (Value.number (as_num (get values a) /. as_num (get values b)))
        | L.Fmod (a, b) ->
          set values v
            (Value.number (Float.rem (as_num (get values a)) (as_num (get values b))))
        | L.Fneg a -> set values v (Value.number (-.as_num (get values a)))
        | L.Band (a, b) ->
          set values v
            (Value.int_ (wrap_int32 (as_int (get values a) land as_int (get values b))))
        | L.Bor (a, b) ->
          set values v
            (Value.int_ (wrap_int32 (as_int (get values a) lor as_int (get values b))))
        | L.Bxor (a, b) ->
          set values v
            (Value.int_ (wrap_int32 (as_int (get values a) lxor as_int (get values b))))
        | L.Bnot a -> set values v (Value.int_ (wrap_int32 (lnot (as_int (get values a)))))
        | L.Shl (a, b) ->
          set values v
            (Value.int_
               (wrap_int32 (as_int (get values a) lsl (as_int (get values b) land 31))))
        | L.Shr (a, b) ->
          set values v
            (Value.int_ (as_int (get values a) asr (as_int (get values b) land 31)))
        | L.Ushr (a, b) -> set values v (Ops.js_ushr (get values a) (get values b))
        | L.Cmp (c, a, b) ->
          let x = as_num (get values a) and y = as_num (get values b) in
          let r =
            match c with
            | L.Ceq -> x = y
            | L.Cne -> x <> y (* JS: NaN != anything is true *)
            | L.Clt -> x < y
            | L.Cle -> x <= y
            | L.Cgt -> x > y
            | L.Cge -> x >= y
          in
          set values v (Value.bool_ r)
        | L.Not a -> set values v (Value.bool_ (not (Value.truthy (get values a))))
        | L.Load_slot (o, slot) -> (
          match get values o with
          | Value.Obj obj when slot < Array.length obj.Value.slots ->
            set values v (Heap.load_slot heap obj slot)
          | _ -> set values v Value.Undef)
        | L.Store_slot (o, slot, x) -> (
          match get values o with
          | Value.Obj obj when slot < Array.length obj.Value.slots ->
            Heap.store_slot heap obj slot (get values x)
          | _ -> ())
        | L.Store_transition (o, name, slot, x) -> (
          match get values o with
          | Value.Obj obj ->
            (* The guarding shape check ran just before; resolve the
               (memoized, site-cached) transition and install shape + value. *)
            let new_shape = ic_transition env heap di.D.ic obj name in
            if new_shape.Shape.prop_count - 1 = slot then
              Heap.transition_store heap obj new_shape slot (get values x)
            else
              (* Shape drifted (possible only in a doomed transaction). *)
              Heap.set_prop heap obj name (get values x)
          | _ -> ())
        | L.Load_elem (a, i') -> (
          match get values a with
          | Value.Arr arr -> set values v (Heap.load_elem heap arr (as_int (get values i')))
          | _ -> set values v Value.Undef)
        | L.Store_elem (a, i', x) -> (
          match get values a with
          | Value.Arr arr -> Heap.store_elem heap arr (as_int (get values i')) (get values x)
          | _ -> ())
        | L.Load_length a -> (
          match get values a with
          | Value.Arr arr ->
            Heap.note_load heap arr.Value.aaddr 8;
            set values v (Value.int_ arr.Value.alen)
          | _ -> set values v (Value.Int 0))
        | L.Str_length a -> (
          match get values a with
          | Value.Str s -> set values v (Value.int_ (String.length s.Value.sdata))
          | _ -> set values v (Value.Int 0))
        | L.Load_char_code (s, i') -> (
          match get values s with
          | Value.Str str ->
            set values v (Value.int_ (Ops.string_char_code heap str (as_int (get values i'))))
          | _ -> set values v (Value.Int 0))
        | L.Load_global g -> set values v inst.Instance.globals.(g)
        | L.Store_global (g, x) -> inst.Instance.globals.(g) <- get values x
        (* Elided checks (NoMap_BC) guard exactly as charged ones do, but
           model zero hardware instructions: no check-category count, no
           cache-visible load of the metadata they test. *)
        | L.Check_int (a, e) -> (
          match get values a with
          | Value.Int _ ->
            if not di.D.elided then Counters.bump_check env.counters ci_type;
            set values v (get values a)
          | _ -> check_fail env values e L.Type)
        | L.Check_number (a, e) -> (
          match get values a with
          | Value.Int _ | Value.Num _ ->
            if not di.D.elided then Counters.bump_check env.counters ci_type;
            set values v (get values a)
          | _ -> check_fail env values e L.Type)
        | L.Check_string (a, e) -> (
          match get values a with
          | Value.Str _ ->
            if not di.D.elided then Counters.bump_check env.counters ci_type;
            set values v (get values a)
          | _ -> check_fail env values e L.Type)
        | L.Check_array (a, e) -> (
          match get values a with
          | Value.Arr _ ->
            if not di.D.elided then Counters.bump_check env.counters ci_type;
            set values v (get values a)
          | _ -> check_fail env values e L.Type)
        | L.Check_shape (a, shape_id, e) -> (
          match get values a with
          | Value.Obj o when o.Value.shape.Shape.id = shape_id ->
            if not di.D.elided then begin
              Heap.note_load heap o.Value.oaddr 8;
              Counters.bump_check env.counters ci_property
            end;
            set values v (get values a)
          | _ -> check_fail env values e L.Property)
        | L.Check_fun_eq (a, fid, e) -> (
          match get values a with
          | Value.Fun f when f = fid ->
            if not di.D.elided then Counters.bump_check env.counters ci_path;
            set values v (get values a)
          | _ -> check_fail env values e L.Path)
        | L.Check_bounds (a, i', e) -> (
          let idx = as_int (get values i') in
          match get values a with
          | Value.Arr arr when idx >= 0 && idx < arr.Value.alen ->
            if not di.D.elided then begin
              Heap.note_load heap arr.Value.aaddr 8;
              Counters.bump_check env.counters ci_bounds
            end;
            set values v (Value.int_ idx)
          | _ -> check_fail env values e L.Bounds)
        | L.Check_str_bounds (s, i', e) -> (
          let idx = as_int (get values i') in
          match get values s with
          | Value.Str str when idx >= 0 && idx < String.length str.Value.sdata ->
            if not di.D.elided then Counters.bump_check env.counters ci_bounds;
            set values v (Value.int_ idx)
          | _ -> check_fail env values e L.Bounds)
        | L.Check_not_hole (a, i', e) -> (
          let idx = as_int (get values i') in
          match get values a with
          | Value.Arr arr
            when idx >= 0
                 && idx < Array.length arr.Value.elems
                 && Heap.load_elem heap arr idx <> Value.Hole ->
            if not di.D.elided then Counters.bump_check env.counters ci_hole;
            set values v (Value.int_ idx)
          | _ -> check_fail env values e L.Hole)
        | L.Check_overflow (a, e) ->
          if get overflowed a then check_fail env values e L.Overflow
          else begin
            if not di.D.elided then Counters.bump_check env.counters ci_overflow;
            set values v (get values a)
          end
        | L.Check_cond (a, expected, e) ->
          if Value.truthy (get values a) = expected then begin
            if not di.D.elided then Counters.bump_check env.counters ci_path;
            set values v (get values a)
          end
          else check_fail env values e L.Path
        | L.Call_func (fid, _) ->
          set values v
            (env.call ~fid ~this:Value.Undef ~args:(arg_values values di.D.args))
        | L.Call_method (fid, thisv, _) ->
          set values v
            (env.call ~fid ~this:(get values thisv) ~args:(arg_values values di.D.args))
        | L.Ctor_call (fid, _) ->
          let obj = Value.Obj (Heap.alloc_object heap) in
          let r = env.call ~fid ~this:obj ~args:(arg_values values di.D.args) in
          set values v (match r with Value.Undef -> obj | x -> x)
        | L.Call_runtime (rt, recv, _) ->
          set values v
            (exec_runtime env ~ic:di.D.ic rt (get values recv) di.D.args values)
        | L.Intrinsic (intr, _) ->
          if not di.D.elided then begin
            let ftl_c, rt_c = intrinsic_cost intr in
            charge env ~frame ~cpi ftl_c;
            charge_runtime env rt_c
          end;
          set values v (eval_intrinsic heap intr Value.Undef di.D.args values)
        | L.Alloc_object -> set values v (Value.Obj (Heap.alloc_object heap))
        | L.Alloc_array len ->
          let n = as_int (get values len) in
          if n < 0 || n > 1 lsl 24 then begin
            match env.tx with
            | Some _ -> raise (Htm.Abort Htm.Watchdog)
            | None -> raise (Nomap_interp.Interp.Runtime_error "bad array length")
          end;
          set values v (Value.Arr (Heap.alloc_array heap n))
        | L.Tx_begin smp -> exec_tx_begin env values ~frame smp
        | L.Tx_end -> exec_tx_end env
      done;
      charge env ~frame ~cpi 1;
      (* terminator *)
      match b.D.dterm with
      | L.Jump t ->
        prev_block := !cur_block;
        cur_block := t
      | L.Br (cv, bt, bf) ->
        prev_block := !cur_block;
        cur_block := (if Value.truthy (get values cv) then bt else bf)
      | L.Ret r ->
        result := (match r with Some rv -> get values rv | None -> Value.Undef);
        running := false
      | L.Unreachable -> raise (Nomap_interp.Interp.Runtime_error "reached unreachable block")
    done;
    !result
  in
  run_with_exits env ~fid:lir.L.fid ~frame run
