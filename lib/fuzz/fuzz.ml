(** Fuzzing campaign driver.

    Generates [iters] programs from per-case seeds derived from the campaign
    seed, runs each through the differential {!Oracle}, and shrinks any
    divergence to a minimal reproducer.  Cases are independent, so batches
    run on OCaml 5 domains via the harness scheduler. *)

module Ast = Nomap_jsir.Ast
module Scheduler = Nomap_harness.Scheduler

type failure = {
  seed : int;  (** per-case seed: replay with [--seed N --iters 1] *)
  program : Ast.program;
  divergences : Oracle.divergence list;
  agents : (string * string) option;
      (** multi-agent replay mismatch: the two observations that should
          have been bit-identical (empty [divergences] is possible — a
          determinism leak needn't miscompute anything solo) *)
  shrunk : Ast.program option;
  compared : bool;  (** the oracle reached a verdict, so the AST axis ran *)
}

type summary = {
  tested : int;
  agreed : int;
  skipped : int;
      (** reference itself crashed or ran out of fuel, or [Ast_interp] ran
          out of fuel, on BOTH the normal and the boosted-fuel attempt *)
  retried : int;  (** seeds that skipped once and were retried with boosted fuel *)
  recovered : int;  (** retried seeds that reached a verdict on the retry *)
  skip_seeds : (int * string) list;  (** seed × reason for every final skip *)
  failures : failure list;
  compared : int;  (** cases checked against [Ast_interp]: every one not skipped *)
}

(** Per-case seed: decorrelate neighbouring indices (golden-ratio stride)
    while keeping the mapping stable, so a failure's seed alone reproduces
    it regardless of [iters] or job count. *)
let case_seed ~seed index = seed + ((index + 1) * 0x9E3779B9)

let shrink_failure ?ftl_mutate ~max_checks ~cfgs program =
  (* Re-check only against the configurations that actually diverged:
     shrinking probes the property hundreds of times and the full matrix
     would multiply that by ~9 VM runs. *)
  let keep p =
    match Oracle.check ~cfgs ?ftl_mutate p with Oracle.Diverge _ -> true | _ -> false
  in
  Shrink.shrink ~max_checks ~keep program

let run_case ?cfgs ?(fuel_boost = 1) ?ftl_mutate ?(agents = 0) ~shrink ~shrink_checks seed
    =
  let program = Gen.program_of_seed ~seed in
  (* The agents axis uses the case seed as the schedule seed, so replaying
     a failure by seed replays its schedule too.  Sabotaged runs are
     excluded: injected miscompiles are deterministic, so they would pass
     replay while wasting four FTL runs per case. *)
  let agents_div =
    if agents >= 2 && ftl_mutate = None then
      Oracle.check_agents ~agents ~schedule_seed:seed program
    else None
  in
  match (Oracle.check ?cfgs ~fuel_boost ?ftl_mutate program, agents_div) with
  | Oracle.Agree, None -> `Agree
  | Oracle.Skip msg, None -> `Skip (seed, msg)
  | verdict, agents_div ->
    let divergences = match verdict with Oracle.Diverge ds -> ds | _ -> [] in
    let shrunk =
      if (not shrink) || divergences = [] then None
      else
        (* Close the narrowed matrix under the engine axis: a counters-only
           engine divergence is invisible without the partner engine's run
           to compare against. *)
        let diverging =
          Oracle.with_engine_partners
            (List.filter_map
               (fun d ->
                 match d.Oracle.subject with Oracle.Cfg c -> Some c | Oracle.Ast_axis -> None)
               divergences)
        in
        Some (shrink_failure ?ftl_mutate ~max_checks:shrink_checks ~cfgs:diverging program)
    in
    let compared = match verdict with Oracle.Skip _ -> false | _ -> true in
    `Diverge { seed; program; divergences; agents = agents_div; shrunk; compared }

(** Run a campaign.  [on_case] (if given) is called after each case with
    (index, outcome) for progress reporting; with [jobs > 1] calls arrive
    in batch order, not real time.

    A seed whose reference run skipped (out of fuel / crash) is not
    dropped: it is retried once with [Oracle.skip_retry_boost]× fuel — a
    heavy-but-terminating program then reaches a real verdict, and the
    retry's outcome (including a fresh divergence) replaces the skip.
    [on_case] sees the retry as a second call at the same index. *)
let run ?cfgs ?ftl_mutate ?agents ?(jobs = 1) ?(shrink = true) ?(shrink_checks = 300)
    ?on_case ~seed ~iters () =
  let outcomes =
    Scheduler.parallel_map ~jobs
      (fun index ->
        (index, run_case ?cfgs ?ftl_mutate ?agents ~shrink ~shrink_checks (case_seed ~seed index)))
      (List.init iters Fun.id)
  in
  (match on_case with Some f -> List.iter (fun (i, o) -> f i o) outcomes | None -> ());
  let first_skips =
    List.filter_map
      (fun (i, o) -> match o with `Skip (s, _) -> Some (i, s) | _ -> None)
      outcomes
  in
  let retries =
    Scheduler.parallel_map ~jobs
      (fun (index, case) ->
        ( index,
          run_case ?cfgs ~fuel_boost:Oracle.skip_retry_boost ?ftl_mutate ?agents ~shrink
            ~shrink_checks case ))
      first_skips
  in
  (match on_case with Some f -> List.iter (fun (i, o) -> f i o) retries | None -> ());
  let final = List.filter (fun (_, o) -> match o with `Skip _ -> false | _ -> true) outcomes @ retries in
  let count p l = List.length (List.filter p l) in
  let agreed = count (fun (_, o) -> o = `Agree) final in
  let skip_seeds =
    List.filter_map (fun (_, o) -> match o with `Skip (s, m) -> Some (s, m) | _ -> None) retries
  in
  let failures =
    List.filter_map (fun (_, o) -> match o with `Diverge f -> Some f | _ -> None) final
  in
  let retried = List.length first_skips in
  let compared = agreed + List.length (List.filter (fun (f : failure) -> f.compared) failures) in
  {
    tested = iters;
    agreed;
    skipped = List.length skip_seeds;
    retried;
    recovered = retried - List.length skip_seeds;
    skip_seeds;
    failures;
    compared;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let failure_to_string f =
  let b = Buffer.create 256 in
  Printf.bprintf b "seed %d diverged:\n" f.seed;
  List.iter (fun d -> Printf.bprintf b "%s\n" (Oracle.divergence_to_string d)) f.divergences;
  (match f.agents with
  | Some (first, second) ->
    Printf.bprintf b
      "  multi-agent replay not deterministic:\n  first    %s\n  second   %s\n" first second
  | None -> ());
  (match f.shrunk with
  | Some p ->
    Printf.bprintf b "shrunk reproducer (%d nodes, kernel %d):\n%s" (Shrink.size p)
      (Shrink.kernel_size p) (Gen.to_source p)
  | None -> Printf.bprintf b "original program:\n%s" (Gen.to_source f.program));
  Buffer.contents b

let summary_to_string s =
  let retry =
    if s.retried = 0 then ""
    else Printf.sprintf " (%d retried with %dx fuel, %d recovered)" s.retried
        Oracle.skip_retry_boost s.recovered
  in
  let skip_detail =
    if s.skip_seeds = [] then ""
    else
      "\nskipped seeds:"
      ^ String.concat ""
          (List.map (fun (seed, msg) -> Printf.sprintf "\n  seed %d: %s" seed msg)
             s.skip_seeds)
  in
  Printf.sprintf "%d tested: %d agreed, %d skipped%s, %d diverged; %d compared against Ast_interp%s"
    s.tested s.agreed s.skipped retry (List.length s.failures) s.compared skip_detail

(* ------------------------------------------------------------------ *)
(* Deliberate miscompile, for self-test (--sabotage and the acceptance
   criterion "an injected bug is caught and shrunk"). *)

(** Swap the operands of every subtraction in FTL-compiled LIR: [a - b]
    becomes [b - a].  Semantics-preserving for [a = b] only, so generated
    programs catch it quickly; the graph stays verifier-well-formed, which
    is the point — only *differential* checking can see it. *)
let sabotage_swap_sub (f : Nomap_lir.Lir.func) =
  let module L = Nomap_lir.Lir in
  L.iter_instrs f (fun _ i ->
      match i.L.kind with
      | L.Isub (a, b) -> i.L.kind <- L.Isub (b, a)
      | L.Isub_wrap (a, b) -> i.L.kind <- L.Isub_wrap (b, a)
      | L.Fsub (a, b) -> i.L.kind <- L.Fsub (b, a)
      | _ -> ())
