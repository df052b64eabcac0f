(** Experiment drivers: one per table/figure in the paper, split into a
    plan/render pair (DESIGN.md §10).

    [plan] declares, as pure data, every measurement key the experiment
    reads; [render] is a pure function from the completed scheduler store
    to the table text (it also prints it, so EXPERIMENTS.md and the bench
    harness share output).  [run] unions and dedups the plans of the
    requested experiments, executes them across domains via
    [Scheduler.prefetch], then renders serially.  Each render reads through
    the memoized [Scheduler.measurement], which computes on a miss — so
    calling a figure function directly (no prefetch) still works and is
    exactly the old serial behavior. *)

module Registry = Nomap_workloads.Registry
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Timing = Nomap_machine.Timing
module Vm = Nomap_vm.Vm
module Table = Nomap_util.Table
module Stats = Nomap_util.Stats
module L = Nomap_lir.Lir
module Key = Scheduler.Key

let f2 = Table.fmt_f ~digits:2
let f1 = Table.fmt_f ~digits:1

let suite_avg_s suite = List.filter (fun b -> b.Registry.in_avg_s) (Registry.of_suite suite)

let both_suites = Registry.of_suite Registry.Sunspider @ Registry.of_suite Registry.Kraken
let both_avg_s = suite_avg_s Registry.Sunspider @ suite_avg_s Registry.Kraken

(* ------------------------------------------------------------------ *)
(* Figure 1: Shootout execution time across language implementations,
   normalized to C. *)

let fig1_langs =
  [ Runner.Lang_c; Runner.Lang_js; Runner.Lang_python; Runner.Lang_php; Runner.Lang_ruby ]

let fig1_plan () =
  List.concat_map
    (fun b -> List.map (fun lang -> Key.lang ~lang b) fig1_langs)
    (Registry.of_suite Registry.Shootout)

let fig1 () =
  let t =
    Table.create ~title:"Figure 1: Shootout execution time normalized to C (lower is better)"
      ~header:("benchmark" :: List.map Runner.language_name fig1_langs)
  in
  let ratios = List.map (fun _ -> ref []) fig1_langs in
  List.iter
    (fun b ->
      let c = Scheduler.measurement (Key.lang ~lang:Runner.Lang_c b) in
      let c_cycles = Counters.cycles c.Runner.counters in
      let row =
        List.map2
          (fun lang acc ->
            let m = Scheduler.measurement (Key.lang ~lang b) in
            let r = Counters.cycles m.Runner.counters /. c_cycles in
            acc := r :: !acc;
            f2 r)
          fig1_langs ratios
      in
      Table.add_row t (b.Registry.name :: row))
    (Registry.of_suite Registry.Shootout);
  Table.add_row t
    ("geomean" :: List.map (fun acc -> f2 (Stats.geomean !acc)) ratios);
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* Table I: speedup of each tier over the interpreter. *)

let table1_caps = [ Vm.Cap_baseline; Vm.Cap_dfg; Vm.Cap_ftl ]

let table1_plan () =
  List.concat_map
    (fun cap -> List.map (fun b -> Key.cap ~cap b) both_suites)
    (Vm.Cap_interp :: table1_caps)

let table1 () =
  let t =
    Table.create ~title:"Table I: Speedup of JavaScriptCore tiers over interpreter"
      ~header:
        [ "Highest tier"; "SunSpider AvgS"; "SunSpider AvgT"; "Kraken AvgS"; "Kraken AvgT" ]
  in
  let speedups cap suite members =
    List.map
      (fun b ->
        let interp = Scheduler.measurement (Key.cap ~cap:Vm.Cap_interp b) in
        let m = Scheduler.measurement (Key.cap ~cap b) in
        Counters.cycles interp.Runner.counters /. Counters.cycles m.Runner.counters)
      (List.filter members (Registry.of_suite suite))
  in
  List.iter
    (fun cap ->
      let ss_s = speedups cap Registry.Sunspider (fun b -> b.Registry.in_avg_s) in
      let ss_t = speedups cap Registry.Sunspider (fun _ -> true) in
      let k_s = speedups cap Registry.Kraken (fun b -> b.Registry.in_avg_s) in
      let k_t = speedups cap Registry.Kraken (fun _ -> true) in
      Table.add_row t
        [
          Vm.cap_name cap;
          Table.fmt_x (Stats.geomean ss_s);
          Table.fmt_x (Stats.geomean ss_t);
          Table.fmt_x (Stats.geomean k_s);
          Table.fmt_x (Stats.geomean k_t);
        ])
    table1_caps;
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* Figure 3: SMP-guarding checks per 100 dynamic instructions. *)

let check_cols = [ L.Bounds; L.Overflow; L.Type; L.Property ]

let fig3_plan suite () =
  List.map (fun b -> Key.arch ~arch:Config.Base b) (Registry.of_suite suite)

let fig3 suite =
  let figno = match suite with Registry.Sunspider -> "3(a)" | _ -> "3(b)" in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Figure %s: SMP-guarding checks per 100 instructions (%s, FTL/Base)"
           figno (Registry.suite_name suite))
      ~header:[ "benchmark"; "Bounds"; "Overflow"; "Type"; "Property"; "Other"; "Total" ]
  in
  let per_bench b =
    let m = Scheduler.measurement (Key.arch ~arch:Config.Base b) in
    let c = m.Runner.counters in
    let col k = Counters.checks_per_100 c k in
    let other = col L.Hole +. col L.Path in
    let cols = List.map col check_cols @ [ other ] in
    (cols, List.fold_left ( +. ) 0.0 cols)
  in
  let add_bench b =
    let cols, total = per_bench b in
    Table.add_row t ((b.Registry.id :: List.map f1 cols) @ [ f1 total ])
  in
  List.iter add_bench (suite_avg_s suite);
  let avg_row label benches =
    let data = List.map per_bench benches in
    let n = float_of_int (List.length data) in
    let sums =
      List.fold_left
        (fun acc (cols, _) -> List.map2 ( +. ) acc cols)
        [ 0.0; 0.0; 0.0; 0.0; 0.0 ] data
    in
    let avgs = List.map (fun x -> x /. n) sums in
    Table.add_row t ((label :: List.map f1 avgs) @ [ f1 (List.fold_left ( +. ) 0.0 avgs) ])
  in
  avg_row "AvgS" (suite_avg_s suite);
  avg_row "AvgT" (Registry.of_suite suite);
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* §III-A2: deoptimization frequency in steady state.  Per-benchmark sweeps
   are individual scheduler keys (so they parallelize and memoize); the
   table is a pure fold over the per-benchmark statistics. *)

let deopt_freq_plan () = List.map Key.deopt both_suites

let deopt_freq () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Deopt frequency (paper III-A2): %d iterations/benchmark, Base, full tier"
           Runner.deopt_iterations)
      ~header:[ "suite"; "FTL calls"; "deopts"; "deopts after iter 50" ]
  in
  let row suite =
    let ftl = ref 0 and deopts = ref 0 and late = ref 0 in
    List.iter
      (fun b ->
        let d = Scheduler.deopt_stats b in
        ftl := !ftl + d.Runner.d_ftl_calls;
        deopts := !deopts + d.Runner.d_deopts;
        late := !late + d.Runner.d_late)
      (Registry.of_suite suite);
    Table.add_row t
      [ Registry.suite_name suite; string_of_int !ftl; string_of_int !deopts;
        string_of_int !late ]
  in
  row Registry.Sunspider;
  row Registry.Kraken;
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* Figures 8/9: dynamic instruction count, normalized to Base, broken into
   NoFTL / NoTM / TMUnopt / TMOpt. *)

let archs = Config.all

let arch_sweep_plan suite () =
  List.concat_map (fun b -> List.map (fun arch -> Key.arch ~arch b) archs)
    (Registry.of_suite suite)

let fig8_9 suite =
  let figno = match suite with Registry.Sunspider -> "8" | _ -> "9" in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure %s: normalized instruction count (%s); segments NoFTL/NoTM/TMUnopt/TMOpt"
           figno (Registry.suite_name suite))
      ~header:[ "benchmark"; "arch"; "norm"; "NoFTL"; "NoTM"; "TMUnopt"; "TMOpt" ]
  in
  let norm_of b arch =
    let base = Scheduler.measurement (Key.arch ~arch:Config.Base b) in
    let m = Scheduler.measurement (Key.arch ~arch b) in
    let bt = float_of_int (Counters.total_instrs base.Runner.counters) in
    let mt = float_of_int (Counters.total_instrs m.Runner.counters) in
    let norm = mt /. bt in
    let seg cat = Counters.category_fraction m.Runner.counters cat *. norm in
    (norm, List.map seg Counters.categories)
  in
  List.iter
    (fun b ->
      List.iter
        (fun arch ->
          let norm, segs = norm_of b arch in
          Table.add_row t
            ((b.Registry.id :: Config.name arch :: f2 norm :: List.map f2 segs)))
        archs)
    (suite_avg_s suite);
  let avg_rows label benches =
    List.iter
      (fun arch ->
        let norms = List.map (fun b -> fst (norm_of b arch)) benches in
        let avg = Stats.mean norms in
        let seg_avgs =
          List.map
            (fun cat ->
              Stats.mean
                (List.map
                   (fun b ->
                     let norm, _ = norm_of b arch in
                     let m = Scheduler.measurement (Key.arch ~arch b) in
                     Counters.category_fraction m.Runner.counters cat *. norm)
                   benches))
            Counters.categories
        in
        Table.add_row t
          ((label :: Config.name arch :: f2 avg :: List.map f2 seg_avgs)))
      archs
  in
  avg_rows "AvgS" (suite_avg_s suite);
  avg_rows "AvgT" (Registry.of_suite suite);
  let s = Table.render t in
  print_string s;
  s

(** Headline numbers: percent instruction reduction vs Base per arch. *)
let instr_reduction suite ~members =
  let benches = List.filter members (Registry.of_suite suite) in
  List.map
    (fun arch ->
      let reductions =
        List.map
          (fun b ->
            let base = Scheduler.measurement (Key.arch ~arch:Config.Base b) in
            let m = Scheduler.measurement (Key.arch ~arch b) in
            Stats.percent_reduction
              ~base:(float_of_int (Counters.total_instrs base.Runner.counters))
              (float_of_int (Counters.total_instrs m.Runner.counters)))
          benches
      in
      (arch, Stats.mean reductions))
    archs

(* ------------------------------------------------------------------ *)
(* Figures 10/11: execution time normalized to Base, TMTime/NonTMTime. *)

let fig10_11 suite =
  let figno = match suite with Registry.Sunspider -> "10" | _ -> "11" in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Figure %s: normalized execution time (%s); TMTime vs NonTMTime"
           figno (Registry.suite_name suite))
      ~header:[ "benchmark"; "arch"; "norm"; "TMTime"; "NonTMTime" ]
  in
  let norm_of b arch =
    let base = Scheduler.measurement (Key.arch ~arch:Config.Base b) in
    let m = Scheduler.measurement (Key.arch ~arch b) in
    let cycles = Counters.cycles m.Runner.counters in
    let norm = cycles /. Counters.cycles base.Runner.counters in
    let tm_frac =
      if cycles > 0.0 then Counters.tx_cycles m.Runner.counters /. cycles else 0.0
    in
    (norm, norm *. tm_frac, norm *. (1.0 -. tm_frac))
  in
  List.iter
    (fun b ->
      List.iter
        (fun arch ->
          let norm, tm, nontm = norm_of b arch in
          Table.add_row t [ b.Registry.id; Config.name arch; f2 norm; f2 tm; f2 nontm ])
        archs)
    (suite_avg_s suite);
  let avg_rows label benches =
    List.iter
      (fun arch ->
        let data = List.map (fun b -> norm_of b arch) benches in
        let avg3 f = Stats.mean (List.map f data) in
        Table.add_row t
          [
            label; Config.name arch;
            f2 (avg3 (fun (n, _, _) -> n));
            f2 (avg3 (fun (_, tm, _) -> tm));
            f2 (avg3 (fun (_, _, nt) -> nt));
          ])
      archs
  in
  avg_rows "AvgS" (suite_avg_s suite);
  avg_rows "AvgT" (Registry.of_suite suite);
  let s = Table.render t in
  print_string s;
  s

let time_reduction suite ~members =
  let benches = List.filter members (Registry.of_suite suite) in
  List.map
    (fun arch ->
      let reductions =
        List.map
          (fun b ->
            let base = Scheduler.measurement (Key.arch ~arch:Config.Base b) in
            let m = Scheduler.measurement (Key.arch ~arch b) in
            Stats.percent_reduction
              ~base:(Counters.cycles base.Runner.counters)
              (Counters.cycles m.Runner.counters))
          benches
      in
      (arch, Stats.mean reductions))
    archs

(* ------------------------------------------------------------------ *)
(* Table IV: transaction characterization. *)

let table4_plan () = List.map (fun b -> Key.arch ~arch:Config.NoMap_full b) both_avg_s

let table4 () =
  let t =
    Table.create
      ~title:"Table IV: transaction write footprint under NoMap (lightweight HTM)"
      ~header:
        [ "suite"; "avg write KB"; "max write KB"; "avg set ways"; "max set ways";
          "tx commits"; "tx aborts" ]
  in
  let row suite =
    let benches = suite_avg_s suite in
    let ms =
      List.map (fun b -> Scheduler.measurement (Key.arch ~arch:Config.NoMap_full b)) benches
    in
    let per_tx_avgs =
      List.filter_map
        (fun m ->
          let c = m.Runner.counters in
          if c.Counters.tx_samples > 0 then
            Some (Counters.tx_write_kb_sum c /. float_of_int c.Counters.tx_samples)
          else None)
        ms
    in
    let max_kb =
      List.fold_left (fun acc m -> Float.max acc (Counters.tx_write_kb_max m.Runner.counters)) 0.0 ms
    in
    let assoc_avgs =
      List.filter_map
        (fun m ->
          let c = m.Runner.counters in
          if c.Counters.tx_samples > 0 then
            Some (Counters.tx_assoc_sum c /. float_of_int c.Counters.tx_samples)
          else None)
        ms
    in
    let max_assoc =
      List.fold_left (fun acc m -> max acc m.Runner.counters.Counters.tx_assoc_max) 0 ms
    in
    let commits = List.fold_left (fun acc m -> acc + m.Runner.counters.Counters.tx_commits) 0 ms in
    let aborts = List.fold_left (fun acc m -> acc + m.Runner.counters.Counters.tx_aborts) 0 ms in
    Table.add_row t
      [
        Registry.suite_name suite ^ " AvgS";
        f2 (Stats.mean per_tx_avgs);
        f2 max_kb;
        f1 (Stats.mean assoc_avgs);
        string_of_int max_assoc;
        string_of_int commits;
        string_of_int aborts;
      ]
  in
  row Registry.Sunspider;
  row Registry.Kraken;
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* Appendix: lightweight-HTM overhead validation.  Run a small
   transaction-dense kernel and report the modeled per-transaction cost,
   checking it against the constants the paper assumes. *)

(* Registered under a unique id so it gets its own cache key space. *)
let validation_bench =
  {
    Registry.id = "VAL";
    name = "htm-validation";
    suite = Registry.Sunspider;
    source =
      {js|
function bench_inner(a) {
  var s = 0;
  for (var i = 0; i < a.length; i++) { s += a[i]; }
  return s;
}
function benchmark() {
  var a = [1, 2, 3, 4, 5, 6, 7, 8];
  var t = 0;
  for (var k = 0; k < 20; k++) { t += bench_inner(a); }
  return t;
}
|js};
    in_avg_s = false;
  }

let validate_htm_plan () =
  [
    Key.arch ~arch:Config.NoMap_full validation_bench;
    Key.arch ~arch:Config.NoMap_RTM validation_bench;
  ]

let validate_htm () =
  let rot = Scheduler.measurement (Key.arch ~arch:Config.NoMap_full validation_bench) in
  let rtm = Scheduler.measurement (Key.arch ~arch:Config.NoMap_RTM validation_bench) in
  let t =
    Table.create ~title:"Appendix: modeled HTM overheads (per committed transaction)"
      ~header:[ "platform"; "tx commits"; "modeled begin+end cycles"; "aborts" ]
  in
  Table.add_row t
    [
      "lightweight (ROT)";
      string_of_int rot.Runner.counters.Counters.tx_commits;
      f1 (float_of_int (Timing.xbegin + Timing.xend_rot) /. 1000.0);
      string_of_int rot.Runner.counters.Counters.tx_aborts;
    ];
  Table.add_row t
    [
      "heavyweight (RTM)";
      string_of_int rtm.Runner.counters.Counters.tx_commits;
      f1 (float_of_int (Timing.xbegin + Timing.xend_rtm) /. 1000.0);
      string_of_int rtm.Runner.counters.Counters.tx_aborts;
    ];
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* Ablation: which optimizer pass contributes how much of NoMap's win.
   Each variant disables one pass in the FTL pipeline (in both Base and
   NoMap runs, so the delta isolates what the transaction conversion lets
   that pass do). *)

let ablation_variants =
  let open Nomap_opt.Pipeline in
  [
    ("full", all_on);
    ("-licm", { all_on with licm = false });
    ("-promote", { all_on with promote = false });
    ("-gvn", { all_on with gvn = false });
    ("-elide", { all_on with elide = false });
    ("-typeprop", { all_on with typeprop = false });
  ]

let ablation_plan () =
  List.concat_map
    (fun (_, knobs) ->
      List.concat_map
        (fun arch -> List.map (fun b -> Key.ablation ~arch ~knobs b) both_avg_s)
        [ Config.Base; Config.NoMap_full ])
    ablation_variants

let ablation () =
  let t =
    Table.create
      ~title:
        "Ablation: NoMap instruction reduction vs Base (AvgS) with one optimizer pass disabled"
      ~header:[ "pipeline"; "SunSpider AvgS"; "Kraken AvgS" ]
  in
  let reduction suite knobs =
    let benches = suite_avg_s suite in
    Stats.mean
      (List.map
         (fun b ->
           let base = Scheduler.measurement (Key.ablation ~arch:Config.Base ~knobs b) in
           let m = Scheduler.measurement (Key.ablation ~arch:Config.NoMap_full ~knobs b) in
           Stats.percent_reduction
             ~base:(float_of_int (Counters.total_instrs base.Runner.counters))
             (float_of_int (Counters.total_instrs m.Runner.counters)))
         benches)
  in
  List.iter
    (fun (label, knobs) ->
      Table.add_row t
        [
          label;
          Table.fmt_pct ~digits:1 (reduction Registry.Sunspider knobs);
          Table.fmt_pct ~digits:1 (reduction Registry.Kraken knobs);
        ])
    ablation_variants;
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* DESIGN.md §15: what the RTM capacity cliff costs a cold VM, and what the
   software fallback buys back.  The Runner's warmup/measure windows
   deliberately hide the one-time abort -> deopt -> Baseline-re-execute ->
   demote transient this experiment is about, so it runs fresh VMs
   directly: ten cold calls per kernel, total modeled cycles over the whole
   run.  The spray kernel writes twelve cache lines at a 4 KB stride — a
   12-way set conflict the byte-count placement estimator cannot see — so
   pure RTM burns three calls on capacity aborts and placement demotions
   while the hybrid upgrades to the redo log and keeps its check-elided
   code; the fit kernel stays inside one way per set, so the two
   architectures must agree to the cycle. *)

let hybrid_spray_src =
  "function benchmark() { var a = new Array(8192); for (var i = 0; i < 12; i++) { a[i * \
   512] = i; } var s = 0; for (var j = 0; j < 2000; j++) { s = (s + j * 7) & 0xFFFFF; } \
   return s + a[512]; } var it; var result = 0; for (it = 0; it < 10; it++) { result = \
   benchmark(); }"

let hybrid_fit_src =
  "function benchmark() { var a = new Array(64); for (var i = 0; i < 64; i++) { a[i] = i * \
   3; } return a[63]; } var it; var result = 0; for (it = 0; it < 10; it++) { result = \
   benchmark(); }"

let hybrid_cold_run ~arch src =
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm =
    Vm.create ~fuel:500_000_000
      ~thresholds:{ Vm.baseline_at = 1; dfg_at = 2; ftl_at = 4 }
      ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  (Vm.counters vm, Vm.tx_demotions vm)

let hybrid_fallback_plan () = []

let hybrid_fallback () =
  let t =
    Table.create
      ~title:
        "Hybrid RTM+STM fallback (DESIGN.md 15): cold VM, 10 calls/kernel, total modeled \
         cycles"
      ~header:
        [
          "kernel"; "arch"; "cycles"; "commits"; "aborts"; "stm commits"; "stm cycles";
          "deopts"; "demotions";
        ]
  in
  List.iter
    (fun (kernel, src) ->
      List.iter
        (fun arch ->
          let c, demotions = hybrid_cold_run ~arch src in
          Table.add_row t
            [
              kernel;
              Config.name arch;
              Printf.sprintf "%.0f" (Counters.cycles c);
              string_of_int c.Counters.tx_commits;
              string_of_int c.Counters.tx_aborts;
              string_of_int c.Counters.stm_commits;
              Printf.sprintf "%.0f" (Counters.stm_cycles c);
              string_of_int c.Counters.deopts;
              string_of_int demotions;
            ])
        [ Config.NoMap_RTM; Config.NoMap_RTM_STM ])
    [ ("spray (12-way set conflict)", hybrid_spray_src); ("fit (1 way/set)", hybrid_fit_src) ];
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* DESIGN.md §16: multi-agent shared-segment contention.  Three kernels —
   every agent hammering one word (true sharing), each agent on its own
   word inside one 64-byte line (false sharing: distinct data, same
   conflict-detection granule), and each agent on its own line (sharded) —
   swept over agent counts under NoMap_RTM at the full tier, so the
   increments run inside real hardware transactions and cross-agent
   conflicts surface as [Htm.Conflict] aborts.  The headline claims: abort
   rate climbs with agent count on the contended kernels, stays ~zero
   sharded, and the applied-increment total is exact everywhere (aborted
   transactions drop their redo buffer; the retry re-applies exactly
   once).  Direct-run like [hybrid_fallback] — the multi-agent registry is
   its own execution world, not a scheduler key — and memoized, so the
   bench harness's [write_json] reads the rows its sweep already computed
   instead of respawning domains. *)

module Agents = Nomap_agents.Agents
module Interleave = Nomap_shared.Interleave

let contention_agent_counts = [ 1; 2; 4; 8 ]

(* Eight words per 64-byte line (Segment.word_bytes = 8): stride 1 keeps
   every agent in line 0; stride 8 gives each agent its own line. *)
let contention_kernels =
  [
    ("shared-counter", fun _ -> 0);
    ("false-sharing", fun i -> i);
    ("sharded", fun i -> i * 8);
  ]

(* Two adds per call keeps the transaction window short — a handful of
   scheduler turns — so the commit-vs-doomed odds genuinely depend on how
   many peers can interleave, and the abort rate climbs with agent count
   instead of saturating at 100% immediately.  120 calls leaves ~100 per
   agent above the FTL threshold: enough attempts for a stable rate. *)
let contention_src idx =
  Printf.sprintf
    "function bench() { var i; for (i = 0; i < 2; i++) { Atomics.add(%d, 1); } return \
     Atomics.load(%d); } var it; var result = 0; for (it = 0; it < 120; it++) { result = \
     bench(); }"
    idx idx

type contention_row = {
  ct_kernel : string;
  ct_agents : int;
  ct_commits : int;  (** tx commits summed over the agents' VMs *)
  ct_conflicts : int;  (** registry-wide [Htm.Conflict] aborts *)
  ct_abort_pct : float;  (** conflicts / (commits + conflicts) *)
  ct_adds : int;  (** increments applied (segment sum) — must be exact *)
}

let contention_rows_uncached () =
  List.concat_map
    (fun (kernel, idx_of) ->
      List.map
        (fun n ->
          let progs =
            Array.init n (fun i ->
                Nomap_bytecode.Compile.compile_source (contention_src (idx_of i)))
          in
          let r =
            Agents.run
              ~policy:(Interleave.Seeded 7)
              ~config:(Config.create Config.NoMap_RTM) ~tier_cap:Vm.Cap_ftl progs
          in
          Array.iter
            (fun (o : Agents.outcome) ->
              match o.Agents.result with
              | Ok _ -> ()
              | Error e -> failwith (Printf.sprintf "contention %s/%d: %s" kernel n e))
            r.Agents.outcomes;
          let commits =
            Array.fold_left
              (fun acc (o : Agents.outcome) ->
                match o.Agents.vm with
                | Some vm -> acc + (Vm.counters vm).Counters.tx_commits
                | None -> acc)
              0 r.Agents.outcomes
          in
          let conflicts = r.Agents.conflicts in
          let attempts = commits + conflicts in
          {
            ct_kernel = kernel;
            ct_agents = n;
            ct_commits = commits;
            ct_conflicts = conflicts;
            ct_abort_pct =
              (if attempts = 0 then 0.0
               else 100.0 *. float_of_int conflicts /. float_of_int attempts);
            ct_adds = Array.fold_left ( + ) 0 r.Agents.segment_data;
          })
        contention_agent_counts)
    contention_kernels

let contention_rows : unit -> contention_row list =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some rows -> rows
    | None ->
      let rows = contention_rows_uncached () in
      cache := Some rows;
      rows

let contention_plan () = []

let contention () =
  let t =
    Table.create
      ~title:
        "Contention (DESIGN.md 16): agents x kernel under NoMap_RTM/FTL, conflict abort \
         rate and exact applied increments"
      ~header:
        [ "kernel"; "agents"; "tx commits"; "conflict aborts"; "abort %"; "adds applied" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.ct_kernel;
          string_of_int r.ct_agents;
          string_of_int r.ct_commits;
          string_of_int r.ct_conflicts;
          f1 r.ct_abort_pct;
          string_of_int r.ct_adds;
        ])
    (contention_rows ());
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)

let headline_plan () =
  List.concat_map (fun b -> List.map (fun arch -> Key.arch ~arch b) archs) both_suites

let headline () =
  let t =
    Table.create
      ~title:"Headline results: average reduction vs Base (paper: SunSpider 14.2%/16.7% instr/time AvgS; Kraken 11.5%/8.9%)"
      ~header:[ "metric"; "arch"; "SunSpider AvgS"; "SunSpider AvgT"; "Kraken AvgS"; "Kraken AvgT" ]
  in
  let pct = Table.fmt_pct ~digits:1 in
  let add metric reductions_of =
    List.iter
      (fun arch ->
        if arch <> Config.Base then begin
          let get suite members =
            List.assoc arch (reductions_of suite ~members)
          in
          Table.add_row t
            [
              metric;
              Config.name arch;
              pct (get Registry.Sunspider (fun b -> b.Registry.in_avg_s));
              pct (get Registry.Sunspider (fun _ -> true));
              pct (get Registry.Kraken (fun b -> b.Registry.in_avg_s));
              pct (get Registry.Kraken (fun _ -> true));
            ]
        end)
      archs
  in
  add "instructions" instr_reduction;
  add "time" time_reduction;
  let s = Table.render t in
  print_string s;
  s

(* ------------------------------------------------------------------ *)
(* The experiment catalogue: plan + render per paper artifact. *)

type experiment = {
  name : string;
  plan : unit -> Key.t list;
  render : unit -> string;
}

let experiments =
  [
    { name = "fig1"; plan = fig1_plan; render = fig1 };
    { name = "table1"; plan = table1_plan; render = table1 };
    {
      name = "fig3a";
      plan = fig3_plan Registry.Sunspider;
      render = (fun () -> fig3 Registry.Sunspider);
    };
    {
      name = "fig3b";
      plan = fig3_plan Registry.Kraken;
      render = (fun () -> fig3 Registry.Kraken);
    };
    { name = "deopt_freq"; plan = deopt_freq_plan; render = deopt_freq };
    {
      name = "fig8";
      plan = arch_sweep_plan Registry.Sunspider;
      render = (fun () -> fig8_9 Registry.Sunspider);
    };
    {
      name = "fig9";
      plan = arch_sweep_plan Registry.Kraken;
      render = (fun () -> fig8_9 Registry.Kraken);
    };
    {
      name = "fig10";
      plan = arch_sweep_plan Registry.Sunspider;
      render = (fun () -> fig10_11 Registry.Sunspider);
    };
    {
      name = "fig11";
      plan = arch_sweep_plan Registry.Kraken;
      render = (fun () -> fig10_11 Registry.Kraken);
    };
    { name = "table4"; plan = table4_plan; render = table4 };
    { name = "validate_htm"; plan = validate_htm_plan; render = validate_htm };
    { name = "hybrid_fallback"; plan = hybrid_fallback_plan; render = hybrid_fallback };
    { name = "contention"; plan = contention_plan; render = contention };
    { name = "ablation"; plan = ablation_plan; render = ablation };
    { name = "headline"; plan = headline_plan; render = headline };
  ]

let find name = List.find_opt (fun e -> e.name = name) experiments

(** Union the plans of [names], execute them on [jobs] domains, then render
    each experiment in order; returns the concatenated table text. *)
let run ?jobs names =
  let jobs = match jobs with Some j -> j | None -> Scheduler.default_jobs () in
  let exps =
    List.map
      (fun n -> match find n with Some e -> e | None -> invalid_arg ("unknown experiment: " ^ n))
      names
  in
  let plan = List.concat_map (fun e -> e.plan ()) exps in
  ignore (Scheduler.prefetch ~jobs plan);
  String.concat "\n" (List.map (fun e -> e.render ()) exps)

let all_names = List.map (fun e -> e.name) experiments

let run_all ?jobs () = run ?jobs all_names
