(** Transaction placement (paper §V-C).

    By default a transaction wraps a whole loop nest containing SMPs.  If
    the estimated write footprint (store count per entry × profiled trip
    counts) exceeds the HTM's budget, placement descends into inner loops;
    an innermost loop that still does not fit gets a per-iteration
    transaction (the limit case of the paper's tiling).  A loop that makes
    calls and does not fit gets no transaction at all (the paper assumes
    the callee caused the overflow and removes the transaction).

    Within a placed region, every deopt-exit check is converted to an
    abort-exit check (SMP → abort, paper §IV-B).  The Tx_begin carries the
    SMP that restarts the region in Baseline after an abort. *)

module L = Nomap_lir.Lir
module Cfg = Nomap_lir.Cfg
module Specialize = Nomap_tiers.Specialize
module Feedback = Nomap_profile.Feedback

type level =
  | Whole  (** one transaction around the entire loop *)
  | Chunked of int  (** commit + restart every N iterations (the tile) *)

type region = {
  loop : Cfg.loop;
  level : level;
  begin_blocks : int list;
  end_blocks : int list;
}

(** Per-function placement preference, adapted by the VM after capacity
    aborts: [Auto] estimates; [Max_chunk n] caps the tile size after a
    runtime capacity abort; [Disabled] when even small tiles overflowed. *)
type placement = Auto | Max_chunk of int | Disabled

let with_exit kind (e : L.exit) =
  match kind with
  | L.Check_int (a, _) -> L.Check_int (a, e)
  | L.Check_number (a, _) -> L.Check_number (a, e)
  | L.Check_string (a, _) -> L.Check_string (a, e)
  | L.Check_array (a, _) -> L.Check_array (a, e)
  | L.Check_shape (a, s, _) -> L.Check_shape (a, s, e)
  | L.Check_fun_eq (a, fid, _) -> L.Check_fun_eq (a, fid, e)
  | L.Check_bounds (a, i, _) -> L.Check_bounds (a, i, e)
  | L.Check_str_bounds (a, i, _) -> L.Check_str_bounds (a, i, e)
  | L.Check_not_hole (a, i, _) -> L.Check_not_hole (a, i, e)
  | L.Check_overflow (a, _) -> L.Check_overflow (a, e)
  | L.Check_cond (a, d, _) -> L.Check_cond (a, d, e)
  | k -> k

(* ------------------------------------------------------------------ *)
(* Footprint estimation *)

let header_pc (c : Specialize.compiled) header_block =
  match Hashtbl.find_opt c.Specialize.block_pc header_block with
  | Some pc -> pc
  | None -> 0

let trip_count c profile loop =
  let pc = header_pc c loop.Cfg.header in
  Float.max 1.0 (Feedback.avg_trip_count profile pc)

(* Direct (non-nested) store / load / call counts of a loop. *)
let direct_counts f loops loop =
  let children = List.filter (fun l -> l.Cfg.parent <> None && List.mem l.Cfg.header loop.Cfg.body && l.Cfg.header <> loop.Cfg.header) loops in
  let in_child b = List.exists (fun ch -> List.mem b ch.Cfg.body) children in
  let stores = ref 0 and loads = ref 0 and calls = ref 0 in
  List.iter
    (fun bid ->
      if not (in_child bid) then
        List.iter
          (fun v ->
            match L.kind_of f v with
            | L.Call_func _ | L.Call_method _ | L.Ctor_call _
            | L.Call_runtime (L.Rt_method _, _, _) -> incr calls
            | k -> (
              match L.memory_effect k with
              | L.Eff_store _ -> incr stores
              | L.Eff_clobber -> incr stores  (* e.g. push: counts as a write *)
              | L.Eff_load _ -> incr loads
              | L.Eff_none | L.Eff_alloc -> ()))
          (L.block f bid).L.instrs)
    loop.Cfg.body;
  (!stores, !loads, !calls)

(* Estimated (write bytes, read bytes, has calls) per entry of [loop]. *)
let rec estimate f c profile loops loop =
  let trip = trip_count c profile loop in
  let stores, loads, calls = direct_counts f loops loop in
  let children =
    List.filter
      (fun l ->
        (match l.Cfg.parent with Some _ -> true | None -> false)
        && List.mem l.Cfg.header loop.Cfg.body
        && l.Cfg.header <> loop.Cfg.header
        && (* direct children only: their parent loop's header is ours *)
        true)
      loops
  in
  (* Approximate: treat every nested loop as a direct child (nesting deeper
     than two levels double-counts trips, which only makes the estimate more
     conservative). *)
  let child_w, child_r, child_calls =
    List.fold_left
      (fun (w, r, cc) ch ->
        let cw, cr, c' = estimate f c profile loops ch in
        (w +. cw, r +. cr, cc || c'))
      (0.0, 0.0, false) children
  in
  ( trip *. ((float_of_int stores *. 8.0) +. child_w),
    trip *. ((float_of_int loads *. 8.0) +. child_r),
    calls > 0 || child_calls )

(* ------------------------------------------------------------------ *)
(* Region wiring *)

let loop_has_deopt_check f loop =
  List.exists
    (fun bid ->
      List.exists
        (fun v ->
          match L.exit_of (L.kind_of f v) with
          | Some { L.ekind = L.Deopt; _ } -> true
          | _ -> false)
        (L.block f bid).L.instrs)
    loop.Cfg.body

(* Live map for a Tx_begin placed on the edge [pred -> header]: resolve the
   header's entry state along that edge (phi inputs from [pred]). *)
let edge_live f (c : Specialize.compiled) header pred =
  match Hashtbl.find_opt c.Specialize.entry_states header with
  | None -> []
  | Some state ->
    List.map
      (fun (reg, v) ->
        let v' =
          match L.kind_of f v with
          | L.Phi ins when (L.instr f v).L.block = header -> (
            match List.assoc_opt pred ins with Some x -> x | None -> v)
          | _ -> v
        in
        (reg, v'))
      state

let convert_checks f blocks =
  let converted = ref 0 in
  List.iter
    (fun bid ->
      List.iter
        (fun v ->
          let i = L.instr f v in
          match L.exit_of i.L.kind with
          | Some ({ L.ekind = L.Deopt; _ } as e) ->
            i.L.kind <- with_exit i.L.kind { e with L.ekind = L.Abort };
            incr converted
          | _ -> ())
        (L.block f bid).L.instrs)
    blocks;
  !converted

(** Wrap the whole [loop] in one transaction. *)
let wrap_whole f c ~ghost loop =
  let ph = Cfg.ensure_preheader f loop in
  let pc = header_pc c loop.Cfg.header in
  let live = edge_live f c loop.Cfg.header ph in
  let smp = L.fresh_smp f ~resume_pc:pc ~live in
  let tb = L.new_instr f (L.Tx_begin smp) in
  Nomap_opt.Passes.append_to_block f tb.L.id ph;
  let end_blocks =
    List.map
      (fun (src, dst) ->
        let eb = Cfg.split_edge f ~from:src ~to_:dst in
        let te = L.new_instr f L.Tx_end in
        Nomap_opt.Passes.append_to_block f te.L.id eb;
        eb)
      loop.Cfg.exits
  in
  if not ghost then ignore (convert_checks f loop.Cfg.body);
  { loop; level = Whole; begin_blocks = [ ph ]; end_blocks }

(** Chunked (tiled) transaction: like [wrap_whole], plus a commit + restart
    on the latch every [chunk] iterations (paper §V-C's tiling, expressed as
    strip-mined commits).  An iteration counter phi is threaded through the
    header; each latch tests [(c+1) & (chunk-1)] and, on zero, commits and
    immediately begins a fresh transaction whose SMP resumes at the loop
    header with the values flowing along that back edge. *)
let wrap_chunked f c ~ghost loop ~chunk =
  let region = wrap_whole f c ~ghost loop in
  let ph = List.hd region.begin_blocks in
  let pc = header_pc c loop.Cfg.header in
  (* Constants live in the preheader (it dominates the loop). *)
  let zero = L.new_instr f (L.Const (Nomap_runtime.Value.Int 0)) in
  let mask = L.new_instr f (L.Const (Nomap_runtime.Value.Int (chunk - 1))) in
  Nomap_opt.Passes.append_to_block f zero.L.id ph;
  Nomap_opt.Passes.append_to_block f mask.L.id ph;
  let counter = L.new_instr f (L.Phi []) in
  Nomap_opt.Passes.prepend_to_block f counter.L.id loop.Cfg.header;
  let latches = List.filter (fun l -> l <> loop.Cfg.header) loop.Cfg.latches in
  let per_latch =
    List.map
      (fun latch ->
        (* Split the back edge; K tests the counter. *)
        let k = Cfg.split_edge f ~from:latch ~to_:loop.Cfg.header in
        (* Values flowing to the header along this edge, for the fresh
           transaction's restart SMP. *)
        let live = edge_live f c loop.Cfg.header k in
        let one = L.new_instr f (L.Const (Nomap_runtime.Value.Int 1)) in
        Nomap_opt.Passes.append_to_block f one.L.id ph;
        let c2 = L.new_instr f (L.Iadd_wrap (counter.L.id, one.L.id)) in
        Nomap_opt.Passes.append_to_block f c2.L.id k;
        let band = L.new_instr f (L.Band (c2.L.id, mask.L.id)) in
        Nomap_opt.Passes.append_to_block f band.L.id k;
        let is_zero = L.new_instr f (L.Cmp (L.Ceq, band.L.id, zero.L.id)) in
        Nomap_opt.Passes.append_to_block f is_zero.L.id k;
        (* Commit block: TxEnd; TxBegin; jump to header. *)
        let kc = L.new_block f in
        let te = L.new_instr f L.Tx_end in
        Nomap_opt.Passes.append_to_block f te.L.id kc.L.bid;
        let smp = L.fresh_smp f ~resume_pc:pc ~live in
        let tb = L.new_instr f (L.Tx_begin smp) in
        Nomap_opt.Passes.append_to_block f tb.L.id kc.L.bid;
        kc.L.term <- L.Jump loop.Cfg.header;
        (L.block f k).L.term <- L.Br (is_zero.L.id, kc.L.bid, loop.Cfg.header);
        (* Header phis gain an input from kc mirroring the one from k. *)
        List.iter
          (fun v ->
            let i = L.instr f v in
            match i.L.kind with
            | L.Phi ins when i.L.block = loop.Cfg.header && v <> counter.L.id -> (
              match List.assoc_opt k ins with
              | Some x -> i.L.kind <- L.Phi ((kc.L.bid, x) :: ins)
              | None -> ())
            | _ -> ())
          (L.block f loop.Cfg.header).L.instrs;
        (k, kc.L.bid, c2.L.id))
      latches
  in
  (* Counter phi inputs: 0 from outside and from each commit block (the
     count restarts per chunk), c2 from each plain back edge. *)
  Cfg.compute_preds f;
  let inputs =
    List.map
      (fun p ->
        match List.find_opt (fun (k, _, _) -> p = k) per_latch with
        | Some (_, _, c2) -> (p, c2)
        | None -> (p, zero.L.id))
      (L.block f loop.Cfg.header).L.preds
  in
  (L.instr f counter.L.id).L.kind <- L.Phi inputs;
  {
    region with
    level = Chunked chunk;
    end_blocks = region.end_blocks @ List.map (fun (_, kc, _) -> kc) per_latch;
  }

(** Place transactions in [c] per [config]; returns the regions created.
    With [ghost:true] (the Base configuration) the markers are placed
    identically but no SMP is converted — the machine uses them purely for
    instruction-category accounting. *)
let run (config : Config.t) ~(placement : placement) ~(profile : Feedback.func_profile)
    (c : Specialize.compiled) : region list =
  let f = c.Specialize.lir in
  let ghost = not (Config.convert_smps config) in
  if placement = Disabled then []
  else begin
    let doms = Cfg.compute_doms f in
    let loops = Cfg.natural_loops f doms in
    let write_budget = float_of_int (Config.write_budget config) in
    let read_budget =
      match Config.read_budget config with
      | Some b -> float_of_int b
      | None -> Float.infinity
    in
    let regions = ref [] in
    (* Returns true if a region was placed covering [loop]. *)
    let rec place loop =
      if not (loop_has_deopt_check f loop) then false
      else begin
        let w, r, has_calls = estimate f c profile loops loop in
        let fits = w <= write_budget && r <= read_budget in
        let children =
          List.filter
            (fun l ->
              l.Cfg.header <> loop.Cfg.header
              && List.mem l.Cfg.header loop.Cfg.body
              && l.Cfg.depth = loop.Cfg.depth + 1)
            loops
        in
        (* A loop whose own (non-nested) code makes calls gains little from
           a transaction — the callees execute unaware of it (TMUnopt) and
           their own transactions would be flattened away.  Prefer wrapping
           the child loops so the callees' transactions stay effective. *)
        let _, _, direct_calls = direct_counts f loops loop in
        if fits && placement = Auto && (direct_calls = 0 || children = []) then begin
          regions := wrap_whole f c ~ghost loop :: !regions;
          true
        end
        else begin
          (* Descend into direct children. *)
          let placed_child = List.exists Fun.id (List.map place children) in
          if placed_child then true
          else if has_calls then false  (* paper: overflow blamed on the callee *)
          else begin
            (* Per-iteration needs a real body: a header with an in-loop
               successor distinct from itself, and no self-latch. *)
            let header_succs = L.successors (L.block f loop.Cfg.header).L.term in
            let has_body =
              List.exists
                (fun s -> List.mem s loop.Cfg.body && s <> loop.Cfg.header)
                header_succs
              && List.for_all (fun l -> l <> loop.Cfg.header) loop.Cfg.latches
            in
            (* Tile: chunk size sized so a tile's writes fit the budget. *)
            let trip = trip_count c profile loop in
            let bytes_per_iter = Float.max 1.0 (w /. trip) in
            let rec pow2_below x acc = if acc * 2 > x then acc else pow2_below x (acc * 2) in
            let chunk = pow2_below (int_of_float (write_budget /. bytes_per_iter)) 1 in
            let chunk =
              match placement with Max_chunk m -> min chunk m | _ -> chunk
            in
            if has_body && chunk >= 2 then begin
              regions := wrap_chunked f c ~ghost loop ~chunk :: !regions;
              true
            end
            else false
          end
        end
      end
    in
    List.iter (fun l -> if l.Cfg.depth = 1 then ignore (place l)) loops;
    f.L.tx_aware <- not ghost;
    !regions
  end
