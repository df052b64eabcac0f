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
    - the terminator by value;
    - the register layout ([layout]): each value's representation (int32,
      boolean or boxed) and its dense slot in the matching register file.

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

(** The phi copies of one CFG edge [pred -> b], for the block [b] that
    holds it.  The engine compiles each edge into its own closure, which
    runs these copies and then enters [b]'s body. *)
type phi_edge = {
  pred : int;  (** incoming block id this edge handles *)
  dsts : int array;  (** phi value ids assigned when entering via [pred] *)
  srcs : int array;  (** source value ids, parallel to [dsts] *)
  staged : bool;
      (** some destination is read by a later source of the group, so the
          copies must stage through [scratch] (read phase, then write
          phase).  Otherwise copying pair by pair, in order, already gives
          the parallel assignment's result, and so does each in-order
          subsequence on its own: the engine runs the copies into each
          register file as one such group. *)
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
}

type dblock = {
  phi_edges : phi_edge array;
  body : dinstr array;  (** non-phi, non-Nop instructions in order *)
  dterm : Lir.terminator;
}

(** A value's representation in the engine's typed register files. *)
type rep =
  | Int32  (** always a [Value.Int]: kept unboxed in the int file *)
  | Boolean  (** always a [Value.Bool]: kept in the int file as 0/1 *)
  | Boxed  (** anything else: a [Value.t] in the boxed file *)

type layout = {
  rep : rep array;  (** per value id *)
  slot : int array;
      (** per value id: its index into the int file ([Int32] and
          [Boolean]) or the boxed file; -1 for a value nothing reads or
          writes *)
  n_int : int;  (** int file size *)
  n_boxed : int;  (** boxed file size *)
  int_sink : int;
  boxed_sink : int;
      (** the slot every written-but-never-read value of that file shares,
          or -1 if there is none *)
}

type t = {
  nvalues : int;  (** size of the SSA value id space *)
  entry : int;
  dblocks : dblock array;
  layout : layout;
  scratch : Value.t array;
      (** phi-copy staging buffer for staged edges (every edge in the
          engine's exact mode), sized to the largest phi group.  Safe to
          share across (re-entrant) activations: an edge's read and write
          phases complete without any intervening call. *)
  iscratch : int array;  (** the same, for copies between int-file slots *)
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

    Note [Load_global]/[Store_global] qualify: globals live outside the
    transactional footprint model, so the global table has no footprint
    hooks.  Inside a transaction [Store_global] journals the old value
    through the heap's [journal] hook ([Instance.store_global]), which
    neither raises nor counts, so an abort restores it.  [Str_length]
    reads a cached length, no hook; [Load_char_code] does fire a load
    hook and stays out. *)
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

(* ------------------------------------------------------------------ *)
(* Register layout *)

(** The representation a kind's result always has, or [None] when it
    depends on other values ([Phi], and the checks that pass their operand
    through).  Every [Int32] kind produces a [Value.Int] in every path,
    every [Boolean] kind a [Value.Bool].  [Ushr] stays boxed: its result
    can exceed 2^31-1. *)
let kind_rep = function
  | Lir.Iadd _ | Lir.Isub _ | Lir.Imul _ | Lir.Ineg _ | Lir.Iadd_wrap _ | Lir.Isub_wrap _
  | Lir.Band _ | Lir.Bor _ | Lir.Bxor _ | Lir.Bnot _ | Lir.Shl _ | Lir.Shr _
  | Lir.Load_length _ | Lir.Str_length _ | Lir.Load_char_code _ | Lir.Check_int _
  | Lir.Check_bounds _ | Lir.Check_str_bounds _ | Lir.Check_not_hole _
  | Lir.Const (Value.Int _) ->
    Some Int32
  | Lir.Cmp _ | Lir.Not _ | Lir.Const (Value.Bool _) -> Some Boolean
  | Lir.Phi _ | Lir.Check_overflow _ | Lir.Check_cond _ | Lir.Check_number _ -> None
  | _ -> Some Boxed

(** Kinds whose engine closure writes no register. *)
let writes_result = function
  | Lir.Nop | Lir.Store_slot _ | Lir.Store_transition _ | Lir.Store_elem _
  | Lir.Store_global _ | Lir.Tx_begin _ | Lir.Tx_end ->
    false
  | _ -> true

(** Every value id the engine may read while executing [k]: its operands
    and the live map of its exit (of either kind: an abort exit with no
    live transaction deopts) or transaction snapshot. *)
let reads k =
  let live (smp : Lir.smp) = List.map snd smp.Lir.live in
  Lir.uses k
  @
  match (Lir.exit_of k, k) with
  | Some e, _ -> live e.Lir.smp
  | None, Lir.Tx_begin smp -> live smp
  | None, _ -> []

(** Assign every value a representation and a dense slot in its file.

    A value no executed instruction writes is [Boxed], so a read of it
    still sees the file's initial [Undef].  A phi is [Int32] (or
    [Boolean]) only if every input is; the pass-through checks take their
    operand's representation ([Check_number] only [Int32]'s).  An
    optimistic fixpoint decides these: unknown inputs are ignored until
    nothing changes, then whatever is still unknown becomes [Boxed] and the
    fixpoint runs again.  Only values something reads get a slot of their
    own; the written-but-unread values of a file share one sink slot. *)
let layout ~nvalues (dblocks : dblock array) : layout =
  let n = nvalues in
  (* 0 unknown, 1 Int32, 2 Boolean, 3 Boxed: a join semilattice. *)
  let code = Array.make n 3 in
  let deps = ref [] in
  let define v k =
    match kind_rep k with
    | Some Int32 -> code.(v) <- 1
    | Some Boolean -> code.(v) <- 2
    | Some Boxed -> code.(v) <- 3
    | None ->
      code.(v) <- 0;
      deps := (v, k) :: !deps
  in
  let phi_ins = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      Array.iter
        (fun e ->
          Array.iteri
            (fun i d ->
              if not (Hashtbl.mem phi_ins d) then define d (Lir.Phi []);
              Hashtbl.replace phi_ins d
                (e.srcs.(i) :: Option.value ~default:[] (Hashtbl.find_opt phi_ins d)))
            e.dsts)
        b.phi_edges;
      Array.iter (fun di -> if writes_result di.kind then define di.id di.kind) b.body)
    dblocks;
  let join x y = if x = 0 then y else if y = 0 || x = y then x else 3 in
  let eval (v, k) =
    match k with
    | Lir.Phi _ ->
      List.fold_left (fun acc s -> join acc code.(s)) 0
        (Option.value ~default:[] (Hashtbl.find_opt phi_ins v))
    | Lir.Check_number (a, _) -> if code.(a) <= 1 then code.(a) else 3
    | Lir.Check_overflow (a, _) | Lir.Check_cond (a, _, _) -> code.(a)
    | _ -> 3
  in
  let rec settle () =
    let changed = ref false in
    List.iter
      (fun ((v, _) as dep) ->
        let c = eval dep in
        if c <> code.(v) then begin
          code.(v) <- c;
          changed := true
        end)
      !deps;
    if !changed then settle ()
    else if List.exists (fun (v, _) -> code.(v) = 0) !deps then begin
      List.iter (fun (v, _) -> if code.(v) = 0 then code.(v) <- 3) !deps;
      settle ()
    end
  in
  settle ();
  let rep = Array.map (function 1 -> Int32 | 2 -> Boolean | _ -> Boxed) code in
  let read = Array.make n false in
  let written = Array.make n false in
  let mark v = read.(v) <- true in
  Array.iter
    (fun b ->
      Array.iter
        (fun e ->
          Array.iter mark e.srcs;
          Array.iter (fun d -> written.(d) <- true) e.dsts)
        b.phi_edges;
      Array.iter
        (fun di ->
          List.iter mark (reads di.kind);
          if writes_result di.kind then written.(di.id) <- true)
        b.body;
      match b.dterm with
      | Lir.Br (c, _, _) -> mark c
      | Lir.Ret (Some r) -> mark r
      | Lir.Jump _ | Lir.Ret None | Lir.Unreachable -> ())
    dblocks;
  let slot = Array.make n (-1) in
  let n_int = ref 0 and n_boxed = ref 0 in
  let next r = match r with Boxed -> n_boxed | Int32 | Boolean -> n_int in
  let take r =
    let c = next r in
    incr c;
    !c - 1
  in
  Array.iteri (fun v r -> if read.(v) then slot.(v) <- take r) rep;
  let int_sink = ref (-1) and boxed_sink = ref (-1) in
  Array.iteri
    (fun v r ->
      if written.(v) && not read.(v) then begin
        let sink = match r with Boxed -> boxed_sink | Int32 | Boolean -> int_sink in
        if !sink < 0 then sink := take r;
        slot.(v) <- !sink
      end)
    rep;
  {
    rep;
    slot;
    n_int = !n_int;
    n_boxed = !n_boxed;
    int_sink = !int_sink;
    boxed_sink = !boxed_sink;
  }

let rep_name = function Int32 -> "int32" | Boolean -> "boolean" | Boxed -> "boxed"

(** The register layout as text: the file sizes, then one line per value
    with a slot, giving its representation and slot ("sink" marks the
    shared slot of written-but-unread values). *)
let layout_to_string (l : layout) =
  let b = Buffer.create 256 in
  Printf.bprintf b "register layout: int file %d slots, boxed file %d slots (%d value ids)\n"
    l.n_int l.n_boxed (Array.length l.rep);
  Array.iteri
    (fun v s ->
      if s >= 0 then begin
        let r = l.rep.(v) in
        let sink = if r = Boxed then l.boxed_sink else l.int_sink in
        Printf.bprintf b "  v%d: %s %s[%d]%s\n" v (rep_name r)
          (if r = Boxed then "boxed" else "int")
          s
          (if s = sink then " sink" else "")
      end)
    l.slot;
  Buffer.contents b

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
        max_phis := Int.max !max_phis (List.length phis);
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
                     })
          |> Array.of_list
        in
        { phi_edges; body; dterm = b.Lir.term })
  in
  let nvalues = Nomap_util.Vec.length f.Lir.instrs in
  {
    nvalues;
    entry = f.Lir.entry;
    dblocks;
    layout = layout ~nvalues dblocks;
    scratch = Array.make (Int.max 1 !max_phis) Value.Undef;
    iscratch = Array.make (Int.max 1 !max_phis) 0;
  }
