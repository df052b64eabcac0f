(** Counter-determinism harness guarding the machine hot-loop rewrite.

    For every registered workload × every architecture, a fixed execution
    protocol (lowered tier-up thresholds so all tiers engage, then a fixed
    number of benchmark calls) must reproduce the committed golden counter
    table bit-for-bit: instruction categories, executed checks, cycles
    (integer milli-cycles, so exact), commits/aborts with reason breakdown,
    and the Table IV write-set statistics.  Both engine modes must match it: the
    fused default and the exact reference.  Any change to simulated
    metrics — an optimization of the simulator that is supposed to be
    observation-preserving, or an accidental cost-model change — shows up
    here as a one-line diff naming the mode, workload and architecture.
    Each row is checked as soon as it completes, under a fuel budget a
    few times the heaviest row's use, so a miscompile that keeps a loop
    from exiting fails its row within seconds instead of hanging the
    suite.

    Regenerate (from the default mode) after an *intentional* metric
    change with:
      NOMAP_UPDATE_GOLDEN=$PWD/test/determinism.expected dune exec \
        test/test_main.exe -- test determinism *)

module Registry = Nomap_workloads.Registry
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Vm = Nomap_vm.Vm
module Engine = Nomap_machine.Engine
module Scheduler = Nomap_harness.Scheduler
module Instance = Nomap_interp.Instance

(* Domains used for the sweep.  Settable with `-j N` on the test binary
   (test_main strips the flag before Alcotest sees argv) or the NOMAP_JOBS
   environment variable; the golden comparison must hold at any value. *)
let jobs =
  ref
    (match Sys.getenv_opt "NOMAP_JOBS" with
    | Some n -> (match int_of_string_opt n with Some n when n >= 1 -> n | _ -> 1)
    | None -> Scheduler.default_jobs ())

(* Low thresholds so Interpreter → Baseline → DFG → FTL all engage within
   few calls; 8 calls also exercise recompilation/demotion adaptations. *)
let thresholds = { Vm.baseline_at = 1; dfg_at = 2; ftl_at = 4 }
let calls = 8

(* `dune runtest` runs in the test directory (the file is a declared dep);
   `dune exec test/test_main.exe` runs from the project root. *)
let golden_file () =
  List.find_opt Sys.file_exists
    [ "determinism.expected"; Filename.concat "test" "determinism.expected" ]

let canonical = Counters.to_canonical_string

(* Fuel per row.  The heaviest rows (K01) burn 8.03M fuel (LIR
   instructions and bytecode ops executed) and charge 43.1M modeled
   instructions; the budget is 4x that burn, so a loop that never exits
   runs out within a second or two of host time.  A row that uses more
   than half the budget fails too, so a heavier workload asks for a larger
   budget instead of running out mid-sweep. *)
let fuel_budget = 32_000_000

let rows () =
  List.concat_map (fun bench -> List.map (fun arch -> (bench, arch)) Config.all) Registry.all

(* One golden row; with [expected], it is checked as soon as it exists.
   Rows run on worker domains, where Alcotest's checks are not safe to
   call, so a failing row raises [Failure], which [parallel_map] hands to
   the calling domain. *)
let run_one ?engine ?expected bench arch =
  let name = Printf.sprintf "%s/%s" bench.Registry.id (Config.name arch) in
  let label = (match engine with Some e -> Engine.name e ^ " " | None -> "") ^ name in
  let prog = Registry.compile bench in
  let vm =
    Vm.create ~fuel:fuel_budget ~thresholds ?engine ~config:(Config.create arch)
      ~tier_cap:Vm.Cap_ftl prog
  in
  (try
     ignore (Vm.run_main vm);
     for _ = 1 to calls do
       ignore (Vm.call_function vm "benchmark" [])
     done
   with
   | Instance.Out_of_fuel ->
     failwith
       (Printf.sprintf "%s: out of fuel after %d (a loop that never exits?)" label fuel_budget)
   | e -> failwith (Printf.sprintf "%s: raised %s" label (Printexc.to_string e)));
  let used = fuel_budget - (Vm.instance vm).Instance.fuel in
  if 2 * used > fuel_budget then
    failwith
      (Printf.sprintf "%s: used %d of the %d fuel budget; raise [fuel_budget]" label used
         fuel_budget);
  let row = Printf.sprintf "%s %s" name (canonical (Vm.counters vm)) in
  Option.iter
    (fun expected ->
      if row <> expected then
        failwith (Printf.sprintf "%s differs from the golden:\nexpected %s\ngot      %s" label
             expected row))
    expected;
  row

(* Each (bench, arch) run is an independent single-domain VM, so the sweep
   fans out across domains; order is preserved by [parallel_map], and a
   failing row stops the sweep at the workers' next row. *)
let compute_table ?(jobs = 1) ?engine ?golden () =
  let rows = rows () in
  let expected =
    match golden with
    | None -> List.map (fun _ -> None) rows
    | Some lines -> List.map Option.some lines
  in
  Scheduler.parallel_map ~jobs
    (fun ((bench, arch), expected) -> run_one ?engine ?expected bench arch)
    (List.combine rows expected)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let golden_lines () = Option.map read_lines (golden_file ())

(** Every row, in mode [engine] (the default mode if omitted), checked
    against its golden line as soon as it completes. *)
let check_against_golden ?(jobs = 1) ?engine () =
  match golden_lines () with
  | None -> Alcotest.fail "missing golden table determinism.expected"
  | Some golden ->
    Alcotest.(check int) "runs covered" (List.length golden) (List.length (rows ()));
    ignore (compute_table ~jobs ?engine ~golden ())

let test_counter_determinism () =
  match Sys.getenv_opt "NOMAP_UPDATE_GOLDEN" with
  | Some path ->
    let table = compute_table ~jobs:!jobs () in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) table;
    close_out oc;
    Printf.printf "wrote %d golden lines to %s\n" (List.length table) path
  | None -> List.iter (fun engine -> check_against_golden ~jobs:!jobs ~engine ()) Engine.all

let tests =
  [ Alcotest.test_case "counters bit-identical across workloads x archs" `Slow
      test_counter_determinism ]
