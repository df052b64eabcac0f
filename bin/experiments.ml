(** CLI for regenerating the paper's tables and figures.

    Usage: experiments.exe [EXPERIMENT] [-j N] — where EXPERIMENT is a name
    from the experiment catalogue ([Experiments.all_names], listed by
    [--help]), [fig3] for both fig3a and fig3b, or [all] (the default).
    Measurements are planned up front, deduplicated, and executed on N
    domains (default: the machine's recommended domain count); tables
    render afterwards, in order, and are bit-identical at any N. *)

module E = Nomap_harness.Experiments
module Scheduler = Nomap_harness.Scheduler
module Clock = Nomap_util.Clock

open Cmdliner

let run_experiment name jobs =
  let names =
    match name with
    | "fig3" -> [ "fig3a"; "fig3b" ]
    | "all" -> E.all_names
    | n -> [ n ]
  in
  match List.filter (fun n -> Option.is_none (E.find n)) names with
  | missing :: _ ->
    prerr_endline ("unknown experiment: " ^ missing);
    exit 1
  | [] ->
    let t0 = Clock.now_s () in
    ignore (E.run ~jobs names);
    Printf.eprintf "[%s: %.1fs wall, -j %d]\n" name (Clock.now_s () -. t0) jobs

let experiment =
  let doc =
    Printf.sprintf "Experiment to run: %s, fig3 (fig3a and fig3b), or all."
      (String.concat ", " E.all_names)
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)

let jobs =
  let doc = "Number of domains to execute measurements on." in
  Arg.(
    value
    & opt int (Scheduler.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cmd =
  let doc = "Regenerate the NoMap paper's tables and figures from the simulator" in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run_experiment $ experiment $ jobs)

let () = exit (Cmd.eval cmd)
