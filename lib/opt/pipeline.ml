(** Pass pipelines per tier.

    DFG runs a light pipeline (type propagation, value numbering, DCE); FTL
    runs the full set including code motion and promotion — our analogue of
    LLVM -O2 versus the DFG's own optimizer (paper §II-A).

    Both pipelines are plain pass lists: adding a pass is one list entry
    naming its knob, its run function, and the [stats] field it feeds. *)

type stats = {
  mutable checks_removed : int;
  mutable overflow_elided : int;
  mutable gvn_removed : int;
  mutable licm_hoisted : int;
  mutable promoted : int;
  mutable dce_removed : int;
}

let empty_stats () =
  {
    checks_removed = 0;
    overflow_elided = 0;
    gvn_removed = 0;
    licm_hoisted = 0;
    promoted = 0;
    dce_removed = 0;
  }

(** Pass toggles, for ablation studies: every knob defaults to on. *)
type knobs = {
  typeprop : bool;
  elide : bool;
  gvn : bool;
  licm : bool;
  promote : bool;
  dce : bool;
}

let all_on = { typeprop = true; elide = true; gvn = true; licm = true; promote = true; dce = true }

type pass = {
  name : string;
  enabled : knobs -> bool;
  run : Nomap_lir.Lir.func -> int;
  record : stats -> int -> unit;
}

let p_typeprop =
  {
    name = "typeprop";
    enabled = (fun k -> k.typeprop);
    run = Typeprop.run;
    record = (fun s n -> s.checks_removed <- s.checks_removed + n);
  }

let p_elide =
  {
    name = "elide";
    enabled = (fun k -> k.elide);
    run = Elide.run;
    record = (fun s n -> s.overflow_elided <- s.overflow_elided + n);
  }

let p_gvn =
  {
    name = "gvn";
    enabled = (fun k -> k.gvn);
    run = Gvn.run;
    record = (fun s n -> s.gvn_removed <- s.gvn_removed + n);
  }

let p_licm =
  {
    name = "licm";
    enabled = (fun k -> k.licm);
    run = Licm.run;
    record = (fun s n -> s.licm_hoisted <- s.licm_hoisted + n);
  }

let p_promote =
  {
    name = "promote";
    enabled = (fun k -> k.promote);
    run = Promote.run;
    record = (fun s n -> s.promoted <- s.promoted + n);
  }

let p_dce =
  {
    name = "dce";
    enabled = (fun k -> k.dce);
    run = Dce.run;
    record = (fun s n -> s.dce_removed <- s.dce_removed + n);
  }

(* Type propagation runs first: the redundant type checks it removes hold
   stack maps whose live sets would otherwise pin intermediates and block
   overflow-check elision. *)
let dfg_passes = [ p_typeprop; p_elide; p_gvn; p_dce ]

(* Motion (licm/promote) exposes new redundancies, hence the second gvn. *)
let ftl_passes = [ p_typeprop; p_elide; p_gvn; p_licm; p_promote; p_gvn; p_dce ]

(** [verify] re-verifies SSA well-formedness after every pass, so an
    ill-formed graph is caught at the pass that produced it instead of
    surfacing later as a miscompile.  Too slow for measurement runs; the
    differential fuzzer and the tier tests turn it on ([Vm.create ~verify]). *)
let run_passes passes ?(stats = empty_stats ()) ?(knobs = all_on) ?(verify = false) f =
  List.iter
    (fun p ->
      if p.enabled knobs then begin
        p.record stats (p.run f);
        if verify then
          try Nomap_lir.Verify.verify f
          with Nomap_lir.Verify.Ill_formed msg ->
            raise (Nomap_lir.Verify.Ill_formed (Printf.sprintf "after %s: %s" p.name msg))
      end)
    passes;
  stats

let dfg ?stats ?knobs ?verify f = run_passes dfg_passes ?stats ?knobs ?verify f
let ftl ?stats ?knobs ?verify f = run_passes ftl_passes ?stats ?knobs ?verify f
