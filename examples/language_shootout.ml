(** Language shootout: one kernel, five implementations (paper Figure 1).

    Runs the `sieve` Shootout kernel under the five language stand-ins —
    ideal native ("C"), our full JIT ("JavaScript"), the bytecode
    interpreter ("Python"), and the two AST-walking interpreters ("PHP",
    "Ruby") — and prints simulated time normalized to C.

    Run with: dune exec examples/language_shootout.exe *)

module Runner = Nomap_harness.Runner
module Scheduler = Nomap_harness.Scheduler
module Registry = Nomap_workloads.Registry
module Counters = Nomap_machine.Counters

let () =
  let bench = Option.get (Registry.by_name "sieve") in
  print_endline "== sieve of Eratosthenes, five language implementations ==\n";
  let c = Counters.cycles (Scheduler.run_language ~lang:Runner.Lang_c bench).Runner.counters in
  List.iter
    (fun lang ->
      let m = Scheduler.run_language ~lang bench in
      let cycles = Counters.cycles m.Runner.counters in
      Printf.printf "  %-11s %10.0f cycles   %6.2fx C   (checksum %s)\n"
        (Runner.language_name lang) cycles (cycles /. c) m.Runner.checksum)
    [ Runner.Lang_c; Runner.Lang_js; Runner.Lang_python; Runner.Lang_php; Runner.Lang_ruby ];
  print_endline
    "\nSame ordering as the paper's Figure 1: the JIT sits a small factor from C;\n\
     the interpreters sit an order of magnitude (or more) away."
