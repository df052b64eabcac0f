(** SSA well-formedness checker.  Run by tests after construction and after
    every optimization pass: catching a malformed graph here is vastly
    cheaper than debugging a miscompiled benchmark. *)

exception Ill_formed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Ill_formed s)) fmt

let verify (f : Lir.func) =
  let nb = Nomap_util.Vec.length f.Lir.blocks in
  let check_block_id b ctx =
    if b < 0 || b >= nb then fail "%s: bad block id b%d" ctx b
  in
  check_block_id f.Lir.entry "entry";
  Cfg.compute_preds f;
  let doms = Cfg.compute_doms f in
  let reach = Cfg.reachable f in
  (* Map: value -> defining block, and position within block. *)
  let def_block = Hashtbl.create 64 in
  let def_pos = Hashtbl.create 64 in
  Lir.iter_blocks f (fun b ->
      List.iteri
        (fun pos v ->
          let i = Lir.instr f v in
          if i.Lir.kind <> Lir.Nop then begin
            if Hashtbl.mem def_block v then fail "v%d defined twice" v;
            if i.Lir.block <> b.Lir.bid then
              fail "v%d: block field %d but listed in b%d" v i.Lir.block b.Lir.bid;
            Hashtbl.replace def_block v b.Lir.bid;
            Hashtbl.replace def_pos v pos
          end)
        b.Lir.instrs);
  let defined v = Hashtbl.mem def_block v in
  (* Phis must be at the head of their block; their inputs must exactly
     cover the predecessors. *)
  Lir.iter_blocks f (fun b ->
      if reach.(b.Lir.bid) then begin
        let seen_non_phi = ref false in
        List.iter
          (fun v ->
            let i = Lir.instr f v in
            match i.Lir.kind with
            | Lir.Phi ins ->
              if !seen_non_phi then fail "v%d: phi after non-phi in b%d" v b.Lir.bid;
              let in_blocks = List.sort compare (List.map fst ins) in
              let preds = List.sort compare b.Lir.preds in
              if in_blocks <> preds then
                fail "v%d: phi inputs [%s] do not match preds [%s] of b%d" v
                  (String.concat "," (List.map string_of_int in_blocks))
                  (String.concat "," (List.map string_of_int preds))
                  b.Lir.bid
            | Lir.Nop -> ()
            | _ -> seen_non_phi := true)
          b.Lir.instrs
      end);
  (* Uses must be defined and dominated by their definitions. *)
  let dominates_use ~def_v ~use_block ~use_pos =
    let db = Hashtbl.find def_block def_v in
    if db = use_block then Hashtbl.find def_pos def_v < use_pos
    else Cfg.dominates doms db use_block
  in
  Lir.iter_blocks f (fun b ->
      if reach.(b.Lir.bid) then begin
        List.iteri
          (fun pos v ->
            let i = Lir.instr f v in
            match i.Lir.kind with
            | Lir.Nop -> ()
            | Lir.Phi ins ->
              List.iter
                (fun (pred, x) ->
                  if not (defined x) then fail "v%d: phi input v%d undefined" v x;
                  (* Phi input must dominate the end of the predecessor. *)
                  let db = Hashtbl.find def_block x in
                  if not (db = pred || Cfg.dominates doms db pred) then
                    fail "v%d: phi input v%d (b%d) does not dominate pred b%d" v x db pred)
                ins
            | k ->
              List.iter
                (fun u ->
                  if not (defined u) then fail "v%d uses undefined v%d" v u;
                  if not (dominates_use ~def_v:u ~use_block:b.Lir.bid ~use_pos:pos) then
                    fail "v%d: use of v%d not dominated by its definition" v u)
                (Lir.uses k);
              (* SMP live maps are real uses: the deopt path materializes
                 them, so each must be dominated by its definition too. *)
              List.iter
                (fun u ->
                  if not (defined u) then fail "v%d: smp live v%d undefined" v u;
                  if not (dominates_use ~def_v:u ~use_block:b.Lir.bid ~use_pos:pos) then
                    fail "v%d: smp live v%d not dominated by its definition" v u)
                (Lir.smp_uses k))
          b.Lir.instrs;
        (* Terminator: operands read after every instruction in the block. *)
        let term_pos = List.length b.Lir.instrs in
        let check_term_operand what u =
          if not (defined u) then fail "b%d: %s of undefined v%d" b.Lir.bid what u;
          if not (dominates_use ~def_v:u ~use_block:b.Lir.bid ~use_pos:term_pos) then
            fail "b%d: %s v%d not dominated by its definition" b.Lir.bid what u
        in
        (match b.Lir.term with
        | Lir.Br (c, _, _) -> check_term_operand "branch on" c
        | Lir.Ret (Some r) -> check_term_operand "return of" r
        | _ -> ());
        List.iter (fun s -> check_block_id s "terminator") (Lir.successors b.Lir.term)
      end)
