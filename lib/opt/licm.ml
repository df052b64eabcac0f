(** Loop-invariant code motion.

    Hoisting rules (the paper's mechanism, made explicit):
    - pure computations with invariant operands always hoist;
    - abort-exit checks with invariant operands hoist: a transactional abort
      may fire anywhere in the region, so moving it is legal (paper §IV-C);
      deopt-exit checks are Stack Map Points and never move.  An abort
      check is kept inside its transaction: if the loop body contains the
      Tx_begin (the region starts strictly inside the loop), nothing
      transactional may leave it;
    - memory loads with invariant operands hoist only when the loop contains
      no aliasing store, no clobbering call, and no Stack Map Point — the
      last condition is what cripples Base and what NoMap's SMP→abort
      conversion lifts.

    All preheaders are materialized before any motion so that loop bodies
    (including inner preheaders) are computed once, consistently; loops are
    then processed innermost-first so invariants bubble outward. *)

module L = Nomap_lir.Lir
module Cfg = Nomap_lir.Cfg

let hoistable ~has_smp ~has_tx_begin ~stores ~clobber kind =
  let abort_check =
    match L.exit_of kind with
    | Some { L.ekind = L.Abort; _ } -> true
    | Some { L.ekind = L.Deopt; _ } -> false
    | None -> false
  in
  let check_ok = if L.is_check kind then abort_check && not has_tx_begin else true in
  match kind with
  | L.Phi _ | L.Param _ | L.Tx_begin _ | L.Tx_end | L.Nop -> false
  | _ -> (
    match L.memory_effect kind with
    | L.Eff_none -> check_ok
    | L.Eff_load cls ->
      (not has_smp) && (not clobber)
      && (not (List.exists (fun s -> L.may_alias s cls) stores))
      && check_ok
    | L.Eff_store _ | L.Eff_clobber | L.Eff_alloc -> false)

(** Run LICM; returns the number of instructions hoisted. *)
let run f =
  (* Materialize every preheader first so loop bodies are stable. *)
  let loops0 = Cfg.natural_loops f (Cfg.compute_doms f) in
  List.iter (fun l -> ignore (Cfg.ensure_preheader f l)) loops0;
  let doms = Cfg.compute_doms f in
  let loops = Cfg.natural_loops f doms in
  let loops = List.sort (fun a b -> compare b.Cfg.depth a.Cfg.depth) loops in
  let hoisted_total = ref 0 in
  List.iter
    (fun loop ->
      match Cfg.preheader f loop with
      | None -> ()  (* irreducible edge pattern; skip conservatively *)
      | Some ph ->
        let body = Array.make (Cfg.nblocks f) false in
        List.iter (fun b -> body.(b) <- true) loop.Cfg.body;
        let in_loop v =
          let b = (L.instr f v).L.block in
          b >= 0 && body.(b)
        in
        let has_smp = Passes.loop_has_smp f loop in
        let has_tx_begin =
          List.exists
            (fun bid ->
              List.exists
                (fun v -> match L.kind_of f v with L.Tx_begin _ -> true | _ -> false)
                (L.block f bid).L.instrs)
            loop.Cfg.body
        in
        let stores, clobber, _alloc = Passes.loop_clobbers f loop in
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun bid ->
              let blk = L.block f bid in
              let to_hoist =
                List.filter
                  (fun v ->
                    let kind = (L.instr f v).L.kind in
                    (not (L.exists_use in_loop kind))
                    (* SMP-live operands are uses too: an exit check whose
                       live map names loop-defined values must not be lifted
                       above their definitions. *)
                    && (not (List.exists in_loop (L.smp_uses kind)))
                    && hoistable ~has_smp ~has_tx_begin ~stores ~clobber kind)
                  blk.L.instrs
              in
              if to_hoist <> [] then begin
                List.iter (fun v -> (L.instr f v).L.block <- ph) to_hoist;
                blk.L.instrs <- List.filter (fun v -> (L.instr f v).L.block = bid) blk.L.instrs;
                let phb = L.block f ph in
                phb.L.instrs <- phb.L.instrs @ to_hoist;
                hoisted_total := !hoisted_total + List.length to_hoist;
                changed := true
              end)
            loop.Cfg.body
        done)
    loops;
  !hoisted_total
