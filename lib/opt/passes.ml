(** Shared pass utilities: deletion, insertion, use counting. *)

module L = Nomap_lir.Lir

(** Delete instruction [v], rewiring every use to [replacement]. *)
let delete_and_replace f v ~replacement =
  let i = L.instr f v in
  if i.L.block >= 0 then begin
    let b = L.block f i.L.block in
    b.L.instrs <- List.filter (fun x -> x <> v) b.L.instrs
  end;
  i.L.kind <- L.Nop;
  i.L.block <- -1;
  L.replace_uses f ~old_v:v ~new_v:replacement

(** Delete all [victims], rewiring uses through the mapping in one pass:
    each block that held a victim is filtered once, and one substitution
    rewrites only the instructions that used one. *)
let delete_and_replace_all f (victims : (L.v * L.v) list) =
  if victims <> [] then begin
    let repl = Array.make (Nomap_util.Vec.length f.L.instrs) (-1) in
    List.iter (fun (v, r) -> repl.(v) <- r) victims;
    (* Resolve chains (a victim replaced by another victim). *)
    let rec resolve v =
      let w = repl.(v) in
      if w < 0 || w = v then v else resolve w
    in
    let touched = Array.make (Nomap_util.Vec.length f.L.blocks) false in
    List.iter
      (fun (v, _) ->
        let i = L.instr f v in
        if i.L.block >= 0 then touched.(i.L.block) <- true;
        i.L.kind <- L.Nop;
        i.L.block <- -1)
      victims;
    L.iter_blocks f (fun b ->
        if touched.(b.L.bid) then b.L.instrs <- List.filter (fun x -> repl.(x) < 0) b.L.instrs);
    L.apply_substitution f resolve
  end

(** Delete instruction [v] outright (no uses may remain). *)
let delete f v =
  let i = L.instr f v in
  if i.L.block >= 0 then begin
    let b = L.block f i.L.block in
    b.L.instrs <- List.filter (fun x -> x <> v) b.L.instrs
  end;
  i.L.kind <- L.Nop;
  i.L.block <- -1

(** Append instruction [v] at the end of block [blk] (before terminator). *)
let append_to_block f v blk =
  let i = L.instr f v in
  i.L.block <- blk;
  let b = L.block f blk in
  b.L.instrs <- b.L.instrs @ [ v ]

(** Insert instruction [v] at the head of block [blk], after any phis. *)
let prepend_to_block f v blk =
  let i = L.instr f v in
  i.L.block <- blk;
  let b = L.block f blk in
  let rec insert = function
    | x :: rest when (match (L.instr f x).L.kind with L.Phi _ -> true | _ -> false) ->
      x :: insert rest
    | rest -> v :: rest
  in
  b.L.instrs <- insert b.L.instrs

(** Does the loop contain a deopt-exit check (a Stack Map Point)?  This is
    the paper's optimization blocker: when true, memory motion in/out of the
    loop is illegal because the Baseline tier may resume mid-loop and must
    observe memory exactly as its own execution would have left it. *)
let loop_has_smp f (loop : Nomap_lir.Cfg.loop) =
  List.exists
    (fun bid ->
      List.exists
        (fun v -> L.is_smp_barrier (L.kind_of f v))
        (L.block f bid).L.instrs)
    loop.Nomap_lir.Cfg.body

(** Memory behaviour of the loop: (any store/clobber, clobber-only). *)
let loop_clobbers f (loop : Nomap_lir.Cfg.loop) =
  let stores = ref [] in
  let clobber = ref false in
  let alloc = ref false in
  List.iter
    (fun bid ->
      List.iter
        (fun v ->
          match L.memory_effect (L.kind_of f v) with
          | L.Eff_store cls -> stores := cls :: !stores
          | L.Eff_clobber -> clobber := true
          | L.Eff_alloc -> alloc := true
          | L.Eff_none | L.Eff_load _ -> ())
        (L.block f bid).L.instrs)
    loop.Nomap_lir.Cfg.body;
  (!stores, !clobber, !alloc)
