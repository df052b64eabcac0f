(** Scheduler tests: key dedup across experiment plans, one run for every
    spelling of a key, exactly-once execution under a race, golden-counter
    equality of the parallel sweep against the committed serial table,
    worker-exception propagation (a [Checksum_mismatch] in a domain must
    fail the caller, not hang or vanish), and the experiment catalogue's
    names. *)

module Scheduler = Nomap_harness.Scheduler
module Experiments = Nomap_harness.Experiments
module Runner = Nomap_harness.Runner
module Registry = Nomap_workloads.Registry
module Config = Nomap_nomap.Config
module Key = Scheduler.Key

(* Tiny private benchmarks so these tests don't pay for a real workload,
   one per test so each starts from keys no other test has run.  Ids must
   be unique process-wide ("T" prefix is reserved for tests; T90 is taken
   by test_measurement). *)
let tiny id =
  {
    Registry.id;
    name = "tiny-loop-sched-" ^ id;
    suite = Registry.Shootout;
    source =
      {js|
        function benchmark() {
          var s = 0;
          for (var i = 0; i < 400; i++) s = s + i;
          return s;
        }
        benchmark();
      |js};
    in_avg_s = false;
  }

let tiny_bench = tiny "T91"
let key () = Key.arch ~arch:Config.Base tiny_bench

(* N experiments requesting the same key must execute it once: the plan
   union carries three copies, prefetch dedups to one execution, and later
   prefetches and memoized reads hit the store. *)
let test_prefetch_dedup () =
  let c0 = Scheduler.executed () in
  let ran = Scheduler.prefetch ~jobs:2 [ key (); key (); key () ] in
  Alcotest.(check int) "three requests, one execution" 1 ran;
  Alcotest.(check int) "exec count advanced once" (c0 + 1) (Scheduler.executed ());
  Alcotest.(check int) "second prefetch is a no-op" 0 (Scheduler.prefetch ~jobs:2 [ key () ]);
  let m = Scheduler.measurement (key ()) in
  Alcotest.(check int) "memoized read does not re-execute" (c0 + 1) (Scheduler.executed ());
  let m' = Scheduler.measurement (key ()) in
  Alcotest.(check bool) "identical requests share the measurement" true (m == m')

(* The Base, full-tier, all-passes run has four spellings (Figures 3/8-11,
   Table I's FTL column, the ablation's "full" row and Figure 1's JS bar);
   they are one key, so the run executes once and all four read it. *)
let test_one_spelling_one_run () =
  let b = tiny "T92" in
  let c0 = Scheduler.executed () in
  let ms =
    List.map Scheduler.measurement
      [
        Key.arch ~arch:Config.Base b;
        Key.cap ~cap:Nomap_vm.Vm.Cap_ftl b;
        Key.ablation ~arch:Config.Base ~knobs:Nomap_opt.Pipeline.all_on b;
        Key.lang ~lang:Runner.Lang_js b;
      ]
  in
  Alcotest.(check int) "four spellings, one execution" (c0 + 1) (Scheduler.executed ());
  List.iter
    (fun m -> Alcotest.(check bool) "the same measurement" true (m == List.hd ms))
    ms

(* Domains that miss the same key together wait for one execution instead
   of each running it. *)
let test_exactly_once_under_race () =
  let k = Key.arch ~arch:Config.NoMap_full (tiny "T93") in
  let c0 = Scheduler.executed () in
  let ms =
    Scheduler.parallel_map ~jobs:4 (fun () -> Scheduler.measurement k) (List.init 8 ignore)
  in
  Alcotest.(check int) "eight askers, one execution" (c0 + 1) (Scheduler.executed ());
  List.iter
    (fun m -> Alcotest.(check bool) "the same measurement" true (m == List.hd ms))
    ms

(* The golden table in test/determinism.expected was produced serially; the
   domain-parallel sweep must reproduce it bit-for-bit (milli-cycles
   included).  Together with test_determinism (which runs at the session's
   default -j), this pins -j 1 ≡ -j 4. *)
let test_parallel_matches_golden () = Test_determinism.check_against_golden ~jobs:4 ()

(* A worker raising must surface in the calling domain as the original
   exception, with the remaining work abandoned — not a hang. *)
let test_worker_exception_propagates () =
  let exn = Runner.Checksum_mismatch ("T91/Base", "79800", "bogus") in
  Alcotest.check_raises "checksum mismatch propagates" exn (fun () ->
      ignore
        (Scheduler.parallel_map ~jobs:4
           (fun i -> if i = 5 then raise exn else i)
           [ 1; 2; 3; 4; 5; 6; 7; 8 ]))

let test_parallel_map_order () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "order preserved across domains" (List.map (fun x -> x * 3) xs)
    (Scheduler.parallel_map ~jobs:4 (fun x -> x * 3) xs)

(* The catalogue's names key both BENCH_machine.json's experiment rows and
   experiments.exe's argument, so a duplicate would collide in both. *)
let test_catalogue_names () =
  let names = List.map (fun e -> e.Experiments.name) Experiments.experiments in
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      match Experiments.find n with
      | Some e -> Alcotest.(check string) ("find " ^ n) n e.Experiments.name
      | None -> Alcotest.failf "find %s: not found" n)
    names

let tests =
  [
    Alcotest.test_case "prefetch dedups shared keys" `Quick test_prefetch_dedup;
    Alcotest.test_case "parallel_map preserves order" `Quick test_parallel_map_order;
    Alcotest.test_case "worker exception propagates, no hang" `Quick
      test_worker_exception_propagates;
    Alcotest.test_case "-j 4 sweep matches serial golden table" `Slow
      test_parallel_matches_golden;
    Alcotest.test_case "experiment catalogue names unique and findable" `Quick
      test_catalogue_names;
    Alcotest.test_case "one run for every spelling of a key" `Quick test_one_spelling_one_run;
    Alcotest.test_case "a raced key executes exactly once" `Quick test_exactly_once_under_race;
  ]
