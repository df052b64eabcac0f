(** Pre-decoded executable form of an LIR function.

    The abstract machine used to re-traverse each block's [instrs] list on
    every execution: [Vec.get] per instruction (bounds-checked), a
    [List.assoc_opt] per phi input per edge, and a [List.iter] closure per
    block.  Decoding flattens a compiled function once into dense arrays so
    the hot loop is array indexing only:

    - each block's non-phi body as a [dinstr array], with the per-instruction
      machine cost and call-argument value ids pre-resolved;
    - the block-leading phi group as one [phi_edge] per incoming edge — the
      (destination, source) pairs that edge copies, in parallel-assignment
      order;
    - the terminator by value.

    Semantics are bit-identical to direct interpretation: phis and [Nop]s
    never burned fuel, ticked transactions, or charged cycles, so dropping
    them from the decoded body changes no simulated metric.  Phis appearing
    after the first real instruction of a block were already dead (the
    machine never executed them) and decode drops them the same way.

    Decoding snapshots [kind]s by reference: callers must not mutate the LIR
    (optimizer passes, NoMap transforms) after the function has been
    decoded.  The tier pipeline satisfies this — every recompilation builds
    a fresh [Lir.func]. *)

module Value = Nomap_runtime.Value
module Ic = Nomap_runtime.Ic

type phi_edge = {
  pred : int;  (** incoming block id this edge handles *)
  dsts : int array;  (** phi value ids assigned when entering via [pred] *)
  srcs : int array;  (** source value ids, parallel to [dsts] *)
  staged : bool;
      (** some destination is read by a later source of the group, so the
          copies must stage through [scratch] (read phase, then write
          phase).  Otherwise copying pair by pair, in order, already gives
          the parallel assignment's result. *)
}

type dinstr = {
  id : int;  (** SSA value the instruction defines *)
  kind : Lir.kind;
  cost : int;  (** pre-computed machine-instruction cost of [kind] *)
  is_tx_marker : bool;  (** [Tx_begin]/[Tx_end]: free under ghost HTM mode *)
  elided : bool;
      (** executes for free: full semantics, no machine instructions,
          cycles, transaction ticks or check-category counts.  Set for
          instructions the NoMap_BC limit study marked [Lir.elided], plus
          pure feeders that outright deletion followed by DCE would have
          erased (computed in [free_map]). *)
  pure : bool;
      (** fusion candidate: [pure_kind kind].  The instruction can neither
          raise nor observe/alter transaction state, so an engine may batch
          its accounting with its straight-line neighbours'. *)
  args : int array;  (** pre-resolved call/intrinsic argument value ids *)
  ic : Ic.t option;
      (** host inline cache for property/method sites (DESIGN.md §14);
          caches die with the decoded artifact on recompilation *)
}

type dblock = {
  phi_edges : phi_edge array;
  body : dinstr array;  (** non-phi, non-Nop instructions in order *)
  dterm : Lir.terminator;
}

type t = {
  nvalues : int;  (** size of the SSA value space (register file to allocate) *)
  entry : int;
  dblocks : dblock array;
  scratch : Value.t array;
      (** phi-copy staging buffer, sized to the largest phi group.  Safe to
          share across (re-entrant) activations: the read and write phases
          of a parallel copy complete without any intervening call. *)
}

(** Whether an edge's copies must go through the staging buffer: the
    in-order copy clobbers a source before it is read exactly when some
    [dsts.(i)] equals a [srcs.(j)] with [j > i]. *)
let needs_staging dsts srcs =
  let n = Array.length dsts in
  let rec clash i j = j < n && (dsts.(i) = srcs.(j) || clash i (j + 1)) in
  let rec any i = i < n && (clash i (i + 1) || any (i + 1)) in
  any 0

(** Which values execute for free.  The BC limit study used to *delete*
    its checks (rewiring uses to the checked operand) and let DCE sweep up
    feeders that only existed for a check; eliding instead keeps the guards
    executable, so to preserve the study's instruction accounting this
    computes exactly the set deletion-plus-DCE would have erased: the
    elided checks themselves, plus every pure instruction that is dead once
    uses are resolved through elided checks (an elided check contributes no
    uses; its consumers are treated as reading the checked operand, as the
    deletion's rewiring did). *)
let free_map (f : Lir.func) =
  let n = Nomap_util.Vec.length f.Lir.instrs in
  let elided = Array.make n false in
  let seeded = ref false in
  Lir.iter_instrs f (fun _ i ->
      if i.Lir.elided then begin
        elided.(i.Lir.id) <- true;
        seeded := true
      end);
  if not !seeded then elided
  else begin
    (* What deletion would have rewired a use of [v] to.  A check's operand
       is defined before it, so the chain terminates. *)
    let rec resolve v =
      if not elided.(v) then v
      else
        match Lir.checked_value (Lir.instr f v).Lir.kind with
        | Some c -> resolve c
        | None -> v
    in
    let live = Array.make n false in
    let work = ref [] in
    let mark v =
      let v = resolve v in
      if not live.(v) then begin
        live.(v) <- true;
        work := v :: !work
      end
    in
    (* Roots, as in DCE: effectful instructions (minus the elided checks,
       which deletion would have removed) and terminator operands. *)
    Lir.iter_instrs f (fun _ i ->
        if
          (not elided.(i.Lir.id))
          && i.Lir.kind <> Lir.Nop
          && not (Lir.removable_if_unused i.Lir.kind)
        then begin
          live.(i.Lir.id) <- true;
          List.iter mark (Lir.uses i.Lir.kind);
          List.iter mark (Lir.smp_uses i.Lir.kind)
        end);
    Lir.iter_blocks f (fun b ->
        match b.Lir.term with
        | Lir.Br (c, _, _) -> mark c
        | Lir.Ret (Some r) -> mark r
        | Lir.Jump _ | Lir.Ret None | Lir.Unreachable -> ());
    let rec drain () =
      match !work with
      | [] -> ()
      | v :: rest ->
        work := rest;
        let k = (Lir.instr f v).Lir.kind in
        List.iter mark (Lir.uses k);
        List.iter mark (Lir.smp_uses k);
        drain ()
    in
    drain ();
    Array.init n (fun v -> elided.(v) || not live.(v))
  end

(** Fusion-candidate classifier.  A kind is [pure] when executing it can
    neither raise (no checks, no calls, no allocation failure paths) nor
    touch heap hooks (which abort transactions on capacity overflow) nor
    change the transaction/ghost category (no tx markers).  Within a run
    of pure instructions the machine's per-instruction accounting —
    category, in-transaction flag, watchdog headroom — is invariant, so an
    engine may execute the run as one superinstruction provided it
    replicates the per-instruction cycle-accumulation order bit-exactly.

    Note [Load_global]/[Store_global] qualify: the global table is not
    routed through heap hooks (globals live outside the transactional
    footprint model).  [Str_length] reads a cached length, no hook;
    [Load_char_code] does fire a load hook and stays out. *)
let pure_kind = function
  | Lir.Nop | Lir.Phi _ | Lir.Param _ | Lir.Const _ | Lir.Iadd _ | Lir.Isub _ | Lir.Imul _
  | Lir.Ineg _ | Lir.Iadd_wrap _ | Lir.Isub_wrap _ | Lir.Fadd _ | Lir.Fsub _
  | Lir.Fmul _ | Lir.Fdiv _ | Lir.Fmod _ | Lir.Fneg _ | Lir.Band _
  | Lir.Bor _ | Lir.Bxor _ | Lir.Bnot _ | Lir.Shl _ | Lir.Shr _ | Lir.Ushr _
  | Lir.Cmp _ | Lir.Not _ | Lir.Str_length _ | Lir.Load_global _
  | Lir.Store_global _ ->
    true
  | _ -> false

let no_args = [||]

(** Sites that get a host inline cache. *)
let ic_of = function
  | Lir.Call_runtime ((Lir.Rt_get_prop _ | Lir.Rt_set_prop _ | Lir.Rt_get_length), _, _)
  | Lir.Store_transition _ ->
    Some (Ic.create ())
  | Lir.Call_runtime (Lir.Rt_method name, _, _) -> Some (Ic.for_method name)
  | _ -> None

let args_of = function
  | Lir.Call_func (_, args) | Lir.Ctor_call (_, args) | Lir.Intrinsic (_, args)
  | Lir.Call_method (_, _, args)
  | Lir.Call_runtime (_, _, args) ->
    Array.of_list args
  | _ -> no_args

(** [decode ~cost f] flattens [f]; [cost] is the executing machine's
    per-instruction cost model (kept out of this module so the IR layer
    stays cost-agnostic). *)
let decode ~(cost : Lir.kind -> int) (f : Lir.func) : t =
  let free = free_map f in
  let nblocks = Nomap_util.Vec.length f.Lir.blocks in
  let max_phis = ref 0 in
  let dblocks =
    Array.init nblocks (fun bid ->
        let b = Lir.block f bid in
        (* Split the leading run of phis (Nops interleaved are skipped) from
           the body; later phis/Nops are dead and dropped. *)
        let rec split phis = function
          | v :: rest -> (
            match (Lir.instr f v).Lir.kind with
            | Lir.Phi ins -> split ((v, ins) :: phis) rest
            | Lir.Nop -> split phis rest
            | _ -> (List.rev phis, v :: rest))
          | [] -> (List.rev phis, [])
        in
        let phis, body_ids = split [] b.Lir.instrs in
        max_phis := max !max_phis (List.length phis);
        (* One edge per predecessor appearing in any phi's input list. *)
        let preds =
          List.sort_uniq compare
            (List.concat_map (fun (_, ins) -> List.map fst ins) phis)
        in
        let phi_edges =
          Array.of_list
            (List.map
               (fun pred ->
                 let copies =
                   List.filter_map
                     (fun (v, ins) ->
                       match List.assoc_opt pred ins with
                       | Some src -> Some (v, src)
                       | None -> None)
                     phis
                 in
                 let dsts = Array.of_list (List.map fst copies)
                 and srcs = Array.of_list (List.map snd copies) in
                 { pred; dsts; srcs; staged = needs_staging dsts srcs })
               preds)
        in
        let body =
          body_ids
          |> List.filter_map (fun v ->
                 let k = (Lir.instr f v).Lir.kind in
                 match k with
                 | Lir.Nop | Lir.Phi _ -> None
                 | _ ->
                   Some
                     {
                       id = v;
                       kind = k;
                       cost = (if free.(v) then 0 else cost k);
                       is_tx_marker =
                         (match k with Lir.Tx_begin _ | Lir.Tx_end -> true | _ -> false);
                       elided = free.(v);
                       pure = pure_kind k;
                       args = args_of k;
                       ic = ic_of k;
                     })
          |> Array.of_list
        in
        { phi_edges; body; dterm = b.Lir.term })
  in
  {
    nvalues = Nomap_util.Vec.length f.Lir.instrs;
    entry = f.Lir.entry;
    dblocks;
    scratch = Array.make (max 1 !max_phis) Value.Undef;
  }
