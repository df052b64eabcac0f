(** Counter-determinism harness guarding the machine hot-loop rewrite.

    For every registered workload × every architecture, a fixed execution
    protocol (lowered tier-up thresholds so all tiers engage, then a fixed
    number of benchmark calls) must reproduce the committed golden counter
    table bit-for-bit: instruction categories, executed checks, cycles
    (hex-float, so exact), commits/aborts with reason breakdown, and the
    Table IV write-set statistics.  Both engine modes must match it: the
    fused default and the exact reference.  Any change to simulated
    metrics — an optimization of the simulator that is supposed to be
    observation-preserving, or an accidental cost-model change — shows up
    here as a one-line diff naming the mode, workload and architecture.

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

let run_one ?engine bench arch =
  let prog = Registry.compile bench in
  let vm =
    Vm.create ~fuel:2_000_000_000 ~thresholds ?engine ~config:(Config.create arch)
      ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  for _ = 1 to calls do
    ignore (Vm.call_function vm "benchmark" [])
  done;
  Printf.sprintf "%s/%s %s" bench.Registry.id (Config.name arch) (canonical (Vm.counters vm))

(* Each (bench, arch) run is an independent single-domain VM, so the sweep
   fans out across domains; order is preserved by [parallel_map]. *)
let compute_table ?(jobs = 1) ?engine () =
  Scheduler.parallel_map ~jobs
    (fun (bench, arch) -> run_one ?engine bench arch)
    (List.concat_map
       (fun bench -> List.map (fun arch -> (bench, arch)) Config.all)
       Registry.all)

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

let check_against_golden ?(label = "") table =
  match golden_lines () with
  | None -> Alcotest.fail "missing golden table determinism.expected"
  | Some golden ->
    Alcotest.(check int) (label ^ "runs covered") (List.length golden) (List.length table);
    List.iter2
      (fun expected got ->
        let name = String.sub got 0 (String.index got ' ') in
        Alcotest.(check string) (label ^ name) expected got)
      golden table

let test_counter_determinism () =
  match Sys.getenv_opt "NOMAP_UPDATE_GOLDEN" with
  | Some path ->
    let table = compute_table ~jobs:!jobs () in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) table;
    close_out oc;
    Printf.printf "wrote %d golden lines to %s\n" (List.length table) path
  | None ->
    List.iter
      (fun engine ->
        check_against_golden ~label:(Engine.name engine ^ " ")
          (compute_table ~jobs:!jobs ~engine ()))
      Engine.all

let tests =
  [ Alcotest.test_case "counters bit-identical across workloads x archs" `Slow
      test_counter_determinism ]
