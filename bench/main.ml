(** Benchmark harness: regenerates every table and figure of the paper,
    then times warm VM execution per engine.

    Phase 1 runs every experiment of the catalogue ([Experiments.experiments])
    cold and serially, printing the paper-style tables — this is the
    artifact-evaluation output recorded in EXPERIMENTS.md — and records
    per-experiment wall times plus the serial sweep total.  Phase 2 resets
    the scheduler store and re-runs the whole sweep through the
    domain-parallel scheduler ([-j N], default: the machine's recommended
    domain count), recording the parallel sweep wall time for comparison;
    with [-j 1] the re-sweep would time the identical serial execution, so
    it is skipped and the report carries [null].  Phase 3 measures warm VM
    *execution* per engine and per host-helper setting: steady-state calls
    of every suite benchmark under the decoded and the threaded engine,
    each with the host fast paths (per-site inline caches, DESIGN.md §14)
    on and off.  It prints one row per kernel and reports per-suite sums
    with the threaded-over-decoded and helpers-on-over-off speedups.  The
    simulated counters are identical across all four cells — only
    wall-clock moves.

    All wall times read the monotonic [Nomap_util.Clock], so NTP
    adjustments can't skew the report.

    [--engine decoded|threaded] pins the engine used by phases 1-2 (the
    simulated metrics are engine-invariant; only wall-clock moves).
    [--json <path>] additionally writes the measurements to [path] as one
    machine-readable report (schema [nomap-bench-v7], keyed by the
    catalogue's experiment names; see DESIGN.md §9), so wall-clock
    regressions of the simulator itself can be tracked across commits; the
    report records the host context (OCaml version, word size, recommended
    domain count) the numbers were taken on.  Any other argument is a usage
    error (exit 2). *)

module E = Nomap_harness.Experiments
module Runner = Nomap_harness.Runner
module Scheduler = Nomap_harness.Scheduler
module Registry = Nomap_workloads.Registry
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Engine = Nomap_machine.Engine
module Clock = Nomap_util.Clock

(* Swallow stdout while running [f] (the drivers print their tables; the
   parallel re-sweep would print them all a second time). *)
let quietly f =
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  flush stdout;
  Unix.dup2 devnull Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)
    f

(* ------------------------------------------------------------------ *)
(* JSON report (hand-rolled: the report is flat and we add no deps). *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One kernel's (or, summed, one suite pass's) warm execution time in ns,
   in each engine x host-inline-cache cell. *)
type cells = { dec : float; thr : float; dec_off : float; thr_off : float }

type engine_exec_row = {
  ee_name : string;  (** experiment the suite backs (fig8/fig9) *)
  ee_pass : cells;  (** one warm pass over the suite *)
}

let write_json path ~serial_wall_s ~parallel_wall_s ~jobs ~engine
    ~(rows : (string * float) list) ~(engine_exec : engine_exec_row list) =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"schema\": \"nomap-bench-v7\",\n";
  Printf.fprintf oc "  \"engine\": \"%s\",\n" (Engine.name engine);
  Printf.fprintf oc
    "  \"host\": {\"ocaml_version\": \"%s\", \"word_size\": %d, \
     \"recommended_domains\": %d},\n"
    (json_escape Sys.ocaml_version) Sys.word_size
    (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"sweep_wall_s_serial\": %.6f,\n" serial_wall_s;
  (match parallel_wall_s with
  | Some w -> Printf.fprintf oc "  \"sweep_wall_s_parallel\": %.6f,\n" w
  | None -> output_string oc "  \"sweep_wall_s_parallel\": null,\n");
  Printf.fprintf oc "  \"parallel_jobs\": %d,\n" jobs;
  output_string oc "  \"experiments\": [\n";
  List.iteri
    (fun i (name, wall_s) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"wall_s\": %.6f}%s\n" (json_escape name)
        wall_s
        (if i < List.length rows - 1 then "," else ""))
    rows;
  output_string oc "  ],\n";
  output_string oc "  \"engine_exec\": [\n";
  List.iteri
    (fun i r ->
      let c = r.ee_pass in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"engines\": [{\"engine\": \"decoded\", \
         \"warm_ns_per_run\": %.1f, \"warm_ns_per_run_helpers_off\": %.1f, \
         \"helper_speedup\": %.3f}, {\"engine\": \"threaded\", \"warm_ns_per_run\": \
         %.1f, \"warm_ns_per_run_helpers_off\": %.1f, \"helper_speedup\": %.3f}], \
         \"speedup_threaded_over_decoded\": %.3f}%s\n"
        (json_escape r.ee_name) c.dec c.dec_off (c.dec_off /. c.dec) c.thr c.thr_off
        (c.thr_off /. c.thr) (c.dec /. c.thr)
        (if i < List.length engine_exec - 1 then "," else ""))
    engine_exec;
  output_string oc "  ],\n";
  (* Multi-agent shared-segment contention (DESIGN.md §16) — simulated
     metrics, so they are wall-clock-free and comparable across hosts.
     The memoized rows were computed during the phase-1 sweep. *)
  output_string oc "  \"shared_agents\": [\n";
  let contention = E.contention_rows () in
  List.iteri
    (fun i (r : E.contention_row) ->
      Printf.fprintf oc
        "    {\"kernel\": \"%s\", \"agents\": %d, \"tx_commits\": %d, \
         \"conflict_aborts\": %d, \"abort_pct\": %.2f, \"adds_applied\": %d}%s\n"
        (json_escape r.E.ct_kernel) r.E.ct_agents r.E.ct_commits r.E.ct_conflicts
        r.E.ct_abort_pct r.E.ct_adds
        (if i < List.length contention - 1 then "," else ""))
    contention;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d experiments)\n" path (List.length rows)

(* ------------------------------------------------------------------ *)
(* Phase 3: genuine warm execution per engine.  One steady-state VM per
   (benchmark, cell) — run main, warm up past the FTL threshold, then
   time [exec_measure] calls of benchmark().  A suite's number is one warm
   pass over the suite (sum of per-benchmark ns per call), comparable
   across engines because both run the identical call sequence.  The four
   cells are measured back-to-back per benchmark (not one full pass per
   cell) so slow machine drift hits every side equally; the timed count
   is higher than the harness default because the per-call times are tens
   of microseconds and a 1-core container schedules noisily. *)

let exec_measure = 50

let warm_exec_ns ~engine ~host_ic bench =
  let prog = Registry.compile bench in
  let vm =
    Vm.create ~fuel:4_000_000_000 ~engine ~host_ic ~config:(Config.create Config.Base)
      ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  for _ = 1 to Runner.default_warmup do
    ignore (Vm.call_function vm "benchmark" [])
  done;
  let t0 = Clock.now_s () in
  for _ = 1 to exec_measure do
    ignore (Vm.call_function vm "benchmark" [])
  done;
  (Clock.now_s () -. t0) /. float_of_int exec_measure *. 1e9

let print_cells label c =
  Printf.printf "  %-24s %12.0f %12.0f %12.0f %12.0f %7.2fx\n%!" label c.dec c.dec_off c.thr
    c.thr_off (c.dec /. c.thr)

let measure_engine_exec name suite =
  Printf.printf "  %-24s %12s %12s %12s %12s %8s\n" (name ^ " (ns/call)") "decoded" "ic off"
    "threaded" "ic off" "thr/dec";
  let pass =
    List.fold_left
      (fun acc b ->
        let cell engine host_ic = warm_exec_ns ~engine ~host_ic b in
        let dec = cell Engine.Decoded true in
        let thr = cell Engine.Threaded true in
        let dec_off = cell Engine.Decoded false in
        let thr_off = cell Engine.Threaded false in
        print_cells b.Registry.name { dec; thr; dec_off; thr_off };
        {
          dec = acc.dec +. dec;
          thr = acc.thr +. thr;
          dec_off = acc.dec_off +. dec_off;
          thr_off = acc.thr_off +. thr_off;
        })
      { dec = 0.0; thr = 0.0; dec_off = 0.0; thr_off = 0.0 }
      (Registry.of_suite suite)
  in
  print_cells "suite pass" pass;
  Printf.printf "  helper speedup (ic off / on): decoded %.2fx, threaded %.2fx\n\n%!"
    (pass.dec_off /. pass.dec) (pass.thr_off /. pass.thr);
  { ee_name = name; ee_pass = pass }

let json_path, jobs, engine =
  let json = ref None
  and jobs = ref (Scheduler.default_jobs ())
  and engine = ref Engine.default in
  let usage msg =
    prerr_endline ("error: " ^ msg);
    prerr_endline "usage: main.exe [--json PATH] [-j N] [--engine decoded|threaded]";
    exit 2
  in
  let rec scan = function
    | [ "--json" ] -> usage "--json requires a path"
    | [ "-j" ] | [ "--jobs" ] -> usage "-j requires a count"
    | [ "--engine" ] -> usage "--engine requires a name (decoded|threaded)"
    | "--json" :: path :: rest ->
      json := Some path;
      scan rest
    | "--engine" :: name :: rest ->
      (match Engine.of_string name with
      | Some e -> engine := e
      | None -> usage ("unknown engine " ^ name ^ " (decoded|threaded)"));
      scan rest
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> jobs := n
      | _ -> usage ("bad job count: " ^ n));
      scan rest
    | arg :: _ -> usage ("unknown argument " ^ arg)
    | [] -> ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  (!json, !jobs, !engine)

let () =
  Runner.engine := engine;
  print_endline "==================================================================";
  Printf.printf " NoMap reproduction: full experiment sweep (engine: %s)\n"
    (Engine.name engine);
  print_endline "==================================================================\n";
  let t0 = Clock.now_s () in
  let wall_times =
    List.map
      (fun (e : E.experiment) ->
        let start = Clock.now_s () in
        ignore (e.E.render ());
        let dt = Clock.now_s () -. start in
        Printf.printf "[%s took %.1fs]\n\n" e.E.name dt;
        (e.E.name, dt))
      E.experiments
  in
  let serial_wall_s = Clock.now_s () -. t0 in
  Printf.printf "full sweep, serial: %.1fs\n\n" serial_wall_s;
  let parallel_wall_s =
    if jobs <= 1 then begin
      (* A -j 1 re-sweep times the identical serial execution; recording it
         as "parallel" would fake a comparison, so skip it. *)
      print_endline "==================================================================";
      print_endline " Parallel re-sweep skipped (-j 1: identical to the serial sweep)";
      print_endline "==================================================================\n";
      None
    end
    else begin
      print_endline "==================================================================";
      Printf.printf " Parallel re-sweep from cold (-j %d, scheduler fan-out)\n" jobs;
      print_endline "==================================================================";
      Scheduler.reset ();
      let t1 = Clock.now_s () in
      ignore (quietly (fun () -> E.run_all ~jobs ()));
      let w = Clock.now_s () -. t1 in
      Printf.printf "full sweep, -j %d: %.1fs (serial was %.1fs)\n\n" jobs w serial_wall_s;
      Some w
    end
  in
  print_endline "==================================================================";
  print_endline " Engine execution timings (warm call per kernel, per engine)";
  print_endline "==================================================================";
  (* List.map applies left to right: the suites run in report order. *)
  let engine_exec =
    List.map
      (fun (name, suite) -> measure_engine_exec name suite)
      [ ("fig8", Registry.Sunspider); ("fig9", Registry.Kraken) ]
  in
  (match json_path with
  | Some path ->
    write_json path ~serial_wall_s ~parallel_wall_s ~jobs ~engine ~engine_exec ~rows:wall_times
  | None -> ());
  print_endline "\ndone."
