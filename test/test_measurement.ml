(** Tests for the measurement plumbing: the per-reason abort breakdown
    surviving [Counters.diff], window-local write-set maxima, and the
    runner's protocol keeping warm-up outside the measured window. *)

module Counters = Nomap_machine.Counters
module Htm = Nomap_htm.Htm
module Runner = Nomap_harness.Runner
module Scheduler = Nomap_harness.Scheduler
module Registry = Nomap_workloads.Registry
module Config = Nomap_nomap.Config
module Vm = Nomap_vm.Vm

let test_diff_abort_reasons () =
  let c = Counters.create () in
  (* Warmup activity that must not leak into the window. *)
  Counters.record_abort c Htm.Capacity_write;
  Counters.record_abort c Htm.Capacity_write;
  Counters.record_abort c (Htm.Check_failed Nomap_lir.Lir.Type);
  let before = Counters.begin_window c in
  Counters.record_abort c Htm.Capacity_write;
  Counters.record_abort c Htm.Watchdog;
  let w = Counters.diff ~now:c ~before in
  Alcotest.(check int) "window aborts" 2 w.Counters.tx_aborts;
  let reason = Counters.abort_count w in
  Alcotest.(check int) "capacity-write in window" 1 (reason Htm.Capacity_write);
  Alcotest.(check int) "watchdog in window" 1 (reason Htm.Watchdog);
  Alcotest.(check int) "warmup-only reason absent" 0
    (reason (Htm.Check_failed Nomap_lir.Lir.Type));
  Alcotest.(check (list (pair string int)))
    "named only when rendered" [ ("capacity-write", 1); ("watchdog", 1) ]
    (Counters.abort_breakdown w)

let test_abort_reasons_indexed () =
  (* Every reason has its own slot: recording reason i (i+1) times reads
     back i+1 for it alone, and each renders under its own name. *)
  let c = Counters.create () in
  let reasons =
    List.map (fun k -> Htm.Check_failed k) Counters.check_kinds
    @ Htm.[ Capacity_write; Capacity_read; Sof_overflow; Irrevocable; Watchdog; Conflict ]
  in
  List.iteri (fun i r -> for _ = 0 to i do Counters.record_abort c r done) reasons;
  List.iteri
    (fun i r ->
      Alcotest.(check int) (Htm.abort_reason_name r) (i + 1) (Counters.abort_count c r))
    reasons;
  Alcotest.(check (list string))
    "one named entry per reason"
    (List.sort compare (List.map Htm.abort_reason_name reasons))
    (List.map fst (Counters.abort_breakdown c))

let test_diff_window_maxima () =
  let c = Counters.create () in
  (* A huge warmup transaction (e.g. first iteration building tables). *)
  Counters.record_commit c ~write_bytes:28_160 ~assoc:14;
  let before = Counters.begin_window c in
  Counters.record_commit c ~write_bytes:2_048 ~assoc:3;
  Counters.record_commit c ~write_bytes:4_608 ~assoc:5;
  let w = Counters.diff ~now:c ~before in
  Alcotest.(check int) "window samples" 2 w.Counters.tx_samples;
  Alcotest.(check (float 1e-9)) "max write-set is window max" 4.5 (Counters.tx_write_kb_max w);
  Alcotest.(check int) "max associativity is window max" 5 w.Counters.tx_assoc_max;
  Alcotest.(check (float 1e-9)) "sums still differenced" 6.5 (Counters.tx_write_kb_sum w)

(* A tiny private benchmark so the runner tests don't pay for a real
   workload.  The id must not collide with the registry ("T" prefix is
   reserved for tests): [Registry.compile] keys on it. *)
let tiny_bench =
  {
    Registry.id = "T90";
    name = "tiny-loop";
    suite = Registry.Shootout;
    source =
      {js|
        function benchmark() {
          var s = 0;
          for (var i = 0; i < 500; i++) s = s + i;
          return s;
        }
        benchmark();
      |js};
    in_avg_s = false;
  }

(* The runner's counters are exactly a hand-built VM's over the measured
   calls after the warm-up ones: the warm-up (and its tier-up compiles)
   stays outside the window. *)
let test_warmup_outside_window () =
  let m = Scheduler.measurement (Scheduler.Key.arch ~arch:Config.Base tiny_bench) in
  let vm =
    Vm.create ~fuel:Runner.fuel_budget ~config:(Config.create Config.Base) ~tier_cap:Vm.Cap_ftl
      (Registry.compile tiny_bench)
  in
  ignore (Vm.run_main vm);
  for _ = 1 to Runner.default_warmup do
    ignore (Vm.call_function vm "benchmark" [])
  done;
  let before = Vm.begin_measurement vm in
  for _ = 1 to Runner.default_measure do
    ignore (Vm.call_function vm "benchmark" [])
  done;
  let window = Counters.diff ~now:(Vm.counters vm) ~before in
  Alcotest.(check string) "window counters"
    (Counters.to_canonical_string window)
    (Counters.to_canonical_string m.Runner.counters);
  Alcotest.(check bool) "the warm-up counted outside it" true
    (Counters.total_instrs (Vm.counters vm) > Counters.total_instrs window)

let tests =
  [
    Alcotest.test_case "diff keeps per-reason abort breakdown" `Quick test_diff_abort_reasons;
    Alcotest.test_case "abort reasons counted separately" `Quick test_abort_reasons_indexed;
    Alcotest.test_case "diff reports window-local maxima" `Quick test_diff_window_maxima;
    Alcotest.test_case "warm-up stays outside the window" `Quick
      test_warmup_outside_window;
  ]
