(** The two in-process VM workloads over the 40 SunSpider+Kraken kernels.

    - [warm]: one VM per kernel under NoMap (ROT HTM), warmed past FTL in
      set-up; an op is one [Vm.call_function vm "benchmark" []].  All
      steady-state engine dispatch, runtime helpers and HTM hooks: no
      front end, no profiling interpreter, no compile.
    - [cell]: an op is [Runner.measure_arch ~arch:Base] on one kernel — a
      fresh VM, top level, 35 warm-up and 10 measured calls and the
      checksum check, the unit of work of the paper's sweep.  No HTM hooks
      run under Base, so an HTM-only change should not move it.

    A pass visits every kernel once, in an order drawn from the seed. *)

module Registry = Nomap_workloads.Registry
module Runner = Nomap_harness.Runner
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Value = Nomap_runtime.Value
module Prng = Nomap_util.Prng
module Stats = Nomap_util.Stats

let kernels = Array.of_list (Registry.sunspider @ Registry.kraken)
let nk = Array.length kernels
let warmup = Runner.default_warmup
let measured = Runner.default_measure

let order prng =
  let a = Array.init nk Fun.id in
  Prng.shuffle prng a;
  a

(* ------------------------------------------------------------------ *)
(* Shared traced-run pieces *)

(** The tier band a 1-based [benchmark()] call index falls in, from
    [Vm.default_thresholds]: the first DFG and FTL calls carry their
    tier-up compile and get bands of their own. *)
let band i =
  let th = Vm.default_thresholds in
  if i <= th.Vm.baseline_at then "interp.call"
  else if i <= th.Vm.dfg_at then "interp.baseline_call"
  else if i = th.Vm.dfg_at + 1 then "tiers.dfg_tierup_call"
  else if i <= th.Vm.ftl_at then "machine.dfg_call"
  else if i = th.Vm.ftl_at + 1 then "tiers.ftl_tierup_call"
  else "machine.ftl_call"

let band_names =
  [ "interp.call"; "interp.baseline_call"; "tiers.dfg_tierup_call"; "machine.dfg_call";
    "tiers.ftl_tierup_call"; "machine.ftl_call" ]

(** Per-op counts over one pass, summed; divided by [per] (calls per op)
    when reported. *)
type counts = {
  mutable instrs : int;
  mutable checks : int;
  mutable commits : int;
  mutable aborts : int;
  mutable deopts : int;
  mutable ops : int;
}

let zero_counts () = { instrs = 0; checks = 0; commits = 0; aborts = 0; deopts = 0; ops = 0 }

let add_counts acc (c : Counters.t) ~deopts =
  acc.instrs <- acc.instrs + Counters.total_instrs c;
  acc.checks <- acc.checks + Counters.total_checks c;
  acc.commits <- acc.commits + c.Counters.tx_commits;
  acc.aborts <- acc.aborts + c.Counters.tx_aborts;
  acc.deopts <- acc.deopts + deopts;
  acc.ops <- acc.ops + 1

let report_counts r (c : counts) ~calls_per_op =
  let per n = float_of_int n /. float_of_int (max 1 (c.ops * calls_per_op)) in
  Report.layer r "machine.instrs" (per c.instrs);
  Report.layer r "machine.checks" (per c.checks);
  Report.layer r "htm.tx_commits" (per c.commits);
  Report.layer r "htm.tx_aborts" (per c.aborts);
  Report.layer r "htm.tx_attempts" (per (c.commits + c.aborts));
  Report.layer r "htm.commit_ratio"
    (if c.commits + c.aborts = 0 then 0.0
     else float_of_int c.commits /. float_of_int (c.commits + c.aborts));
  Report.layer r "machine.deopts" (float_of_int c.deopts /. float_of_int (max 1 c.ops))

(** FTL compile replay of every kernel, each as one traced op. *)
let replay_all tr ~arch ~next_op =
  Array.mapi
    (fun k b ->
      Trace.set_op tr ~op:(next_op ()) ~cls:k;
      Trace.span tr "replay" (fun () -> Replay.run tr ~arch b))
    kernels

let report_replay r spans (counts : Replay.counts array) =
  List.iter
    (fun (metric, span) -> Report.layer r metric (Trace.class_geomean_us spans span))
    ([ ("tiers.specialize_us", "tiers.specialize"); ("nomap.transform_us", "nomap.transform");
       ("lir.decode_us", "lir.decode"); ("machine.threaded_compile_us", "machine.threaded_compile");
       ("interp.profile_run_us", "interp.profile_run") ]
    @ List.map (fun p -> ("opt." ^ p ^ "_us", "opt." ^ p)) Replay.pass_names);
  let sum f = float_of_int (Array.fold_left (fun acc c -> acc + f c) 0 counts) in
  Report.layer r "tiers.ftl_funcs" (sum (fun c -> c.Replay.funcs));
  Report.layer r "lir.size_before" (sum (fun c -> c.Replay.size_before));
  Report.layer r "lir.size_after" (sum (fun c -> c.Replay.size_after));
  List.iter
    (fun p ->
      Report.layer r ("opt." ^ p ^ "_count")
        (sum (fun c -> Option.value ~default:0 (Hashtbl.find_opt c.Replay.passes p))))
    Replay.pass_names

(** Per-run state the ops share: the span recorder, first-pass counts
    (in total and per kernel), and the seconds and simulated instructions
    spent in warm FTL calls. *)
type ctx = {
  tr : Trace.t;
  first : counts;
  kinstrs : int array;
  mutable warm_s : float;
  mutable warm_instrs : int;
}

let timed_call c vm name =
  let i0 = Counters.total_instrs (Vm.counters vm) in
  let t0 = Host.now_ns () in
  let v = Trace.span c.tr name (fun () -> Vm.call_function vm "benchmark" []) in
  if name = "machine.ftl_call" then begin
    c.warm_s <- c.warm_s +. Host.span_s t0 (Host.now_ns ());
    c.warm_instrs <- c.warm_instrs + Counters.total_instrs (Vm.counters vm) - i0
  end;
  v

(** One row per kernel — its median corrected op time from the untraced
    part of the traced run, its first-pass simulated instructions per
    call and its replayed FTL compile sizes — printed and added to the
    trace file, so a move in [op_us] can be pinned to a kernel. *)
let report_kernels r m0 (counts : Replay.counts array) kinstrs ~metric ~scale =
  let med0 = Meter.class_medians ~corrected:true m0 in
  let rows =
    Array.to_list
      (Array.mapi
         (fun k (b : Registry.benchmark) ->
           let t = Option.fold ~none:0.0 ~some:(fun v -> v *. scale) (List.assoc_opt k med0) in
           Report.line r "kernel %-4s %-28s %s=%12.3f instrs/call=%10d" b.Registry.id
             b.Registry.name metric t kinstrs.(k);
           Printf.sprintf
             "{\"id\": %S, \"name\": %S, \"%s\": %.4f, \"instrs_per_call\": %d, \"ftl_funcs\": %d, \"lir_size_after\": %d}"
             b.Registry.id b.Registry.name metric t kinstrs.(k) counts.(k).Replay.funcs
             counts.(k).Replay.size_after)
         kernels)
  in
  r.Report.trace_extra <- [ ("kernels", "[" ^ String.concat ",\n  " rows ^ "]") ]

let common_e2e r m =
  let rate ~corrected = float_of_int nk /. Meter.pass_time ~corrected m in
  Report.e2e r "op_us" (Meter.class_geomean ~corrected:true m *. 1e6);
  Report.e2e r "ops_per_s" (rate ~corrected:true);
  Report.layer r "raw.op_us" (Meter.class_geomean ~corrected:false m *. 1e6);
  Report.layer r "raw.ops_per_s" (rate ~corrected:false);
  let med, spread = Meter.canary_stats m in
  Report.layer r "host.canary_us" (med *. 1e6);
  Report.layer r "host.canary_spread" spread;
  Report.line r "host: canary_us=%.2f spread=%.4f raw op_us=%.3f raw ops_per_s=%.3f" (med *. 1e6)
    spread (Meter.class_geomean ~corrected:false m *. 1e6) (rate ~corrected:false)

(** The measuring both workloads share.  Set-up runs [setup k b] for
    every kernel, three times over.  An untraced run then makes passes
    over the kernels in seeded order for [seconds]; a traced run makes
    them untraced for a third of the time (the reference for the tracing
    overhead) and traced for the rest, then replays every kernel's FTL
    compiles.  [op c m ~trace ~first k] runs one op on kernel [k], timed
    through [m], and says whether its output was right; [first] marks
    the ops of the first pass, whose counts go into [c]. *)
let measure ~name ~arch ~metric ~scale ~pass ~calls_per_op ~setup ~op ~layers ~seed ~seconds
    ~traced =
  let r = Report.create () in
  let setup_s, setup_raw =
    Report.time_setup (fun _ m ->
        Array.iteri (fun k b -> Meter.time m ~cls:k (fun () -> setup k b)) kernels)
  in
  Report.e2e r "setup_s" setup_s;
  Report.layer r "raw.setup_s" setup_raw;
  let prng = Prng.create ~seed in
  let c =
    { tr = Trace.create (); first = zero_counts (); kinstrs = Array.make nk 0; warm_s = 0.0;
      warm_instrs = 0 }
  in
  let op_id = ref 0 in
  let next_op () =
    incr op_id;
    !op_id
  in
  let phase ~trace ~secs =
    let m = Meter.create () in
    c.tr.Trace.on <- trace;
    let d = Report.deadline secs in
    while Report.before d do
      Array.iter
        (fun k ->
          let id = next_op () in
          Trace.set_op c.tr ~op:id ~cls:k;
          Report.check r (fun () -> op c m ~trace ~first:(traced && id <= nk) k))
        (order prng)
    done;
    Meter.close m;
    m
  in
  if not traced then begin
    let m = phase ~trace:false ~secs:seconds in
    common_e2e r m;
    let pass_name, pass_scale = pass in
    Report.line r "%s: %s=%.3f  %s=%.4f  (%d ops)" name metric
      (List.assoc "op_us" r.Report.e2e /. 1e6 *. scale)
      pass_name
      (float_of_int nk /. List.assoc "ops_per_s" r.Report.e2e *. pass_scale)
      (Meter.count m)
  end
  else begin
    let m0 = phase ~trace:false ~secs:(seconds /. 3.0) in
    common_e2e r m0;
    let m1 = phase ~trace:true ~secs:(seconds *. 2.0 /. 3.0) in
    let counts = replay_all c.tr ~arch ~next_op in
    c.tr.Trace.on <- false;
    let spans = c.tr.Trace.spans in
    report_counts r c.first ~calls_per_op;
    report_replay r spans counts;
    layers r spans;
    Report.layer r "machine.ns_per_instr" (c.warm_s *. 1e9 /. float_of_int (max 1 c.warm_instrs));
    Report.layer r "trace.overhead_frac"
      (Meter.class_geomean ~corrected:true m1 /. Meter.class_geomean ~corrected:true m0 -. 1.0);
    Report.layer r "trace.child_cover_min" (Trace.min_child_share spans "op");
    report_kernels r m0 counts c.kinstrs ~metric ~scale
  end;
  (r, c.tr.Trace.spans)

(** warm-nomap: set-up builds each kernel's VM and warms it past FTL. *)
let warm =
  let arch = Config.NoMap_full in
  let vms = Array.make nk None and expected = Array.make nk "" in
  let setup k (b : Registry.benchmark) =
    expected.(k) <- Registry.reference_result b;
    let prog = Nomap_bytecode.Compile.compile_source ~name:b.Registry.name b.Registry.source in
    let vm = Vm.create ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl prog in
    ignore (Vm.run_main vm);
    let last = ref Value.Undef in
    for _ = 1 to warmup do
      last := Vm.call_function vm "benchmark" []
    done;
    if Value.to_js_string !last <> expected.(k) then
      failwith (b.Registry.id ^ ": wrong result during warm-up");
    vms.(k) <- Some vm
  in
  let op c m ~trace ~first k =
    let vm = Option.get vms.(k) in
    let before = if first then Some (Vm.snapshot vm) else None in
    let v =
      Meter.time m ~cls:k (fun () ->
          if trace then Trace.span c.tr "op" (fun () -> timed_call c vm "machine.ftl_call")
          else Vm.call_function vm "benchmark" [])
    in
    Option.iter
      (fun before ->
        let d = Counters.diff ~now:(Vm.counters vm) ~before in
        c.kinstrs.(k) <- Counters.total_instrs d;
        add_counts c.first d ~deopts:(d.Counters.deopts))
      before;
    Value.to_js_string v = expected.(k)
  in
  let layers r spans =
    Report.layer r "machine.ftl_call_us" (Trace.class_geomean_us spans "machine.ftl_call")
  in
  measure ~name:"warm-nomap" ~arch ~metric:"call_us" ~scale:1e6 ~pass:("pass_ms", 1e3)
    ~calls_per_op:1 ~setup ~op ~layers

(** cell-base: set-up computes each kernel's reference result; an op is
    [Runner.measure_arch], or, traced, the same public calls one by one. *)
let cell =
  let arch = Config.Base in
  let expected = Array.make nk "" in
  let setup k (b : Registry.benchmark) =
    ignore (Registry.compile b);
    expected.(k) <- Registry.reference_result b
  in
  let traced_cell c (b : Registry.benchmark) =
    let span name f = Trace.span c.tr name f in
    span "op" (fun () ->
        let prog = span "registry.compile" (fun () -> Registry.compile b) in
        let vm =
          span "vm.create" (fun () ->
              Vm.create ~fuel:4_000_000_000 ~engine:!Runner.engine ~config:(Config.create arch)
                ~tier_cap:Vm.Cap_ftl prog)
        in
        span "vm.run_main" (fun () -> ignore (Vm.run_main vm));
        let result = ref Value.Undef in
        for i = 1 to warmup + measured do
          result := timed_call c vm (band i)
        done;
        let got = Value.to_js_string !result in
        span "harness.reference_check" (fun () -> Registry.reference_result b = got))
  in
  let op c m ~trace ~first k =
    let b = kernels.(k) in
    if trace then Meter.time m ~cls:k (fun () -> traced_cell c b)
    else begin
      let ms = Meter.time m ~cls:k (fun () -> Runner.measure_arch ~arch b) in
      if first then begin
        c.kinstrs.(k) <- Counters.total_instrs ms.Runner.counters / measured;
        add_counts c.first ms.Runner.counters ~deopts:ms.Runner.deopts_total
      end;
      ms.Runner.checksum = expected.(k)
    end
  in
  let layers r spans =
    List.iter
      (fun name -> Report.layer r (name ^ "_us") (Trace.class_geomean_us spans name))
      ([ "vm.create"; "vm.run_main"; "harness.reference_check" ] @ band_names)
  in
  measure ~name:"cell-base" ~arch ~metric:"cell_ms" ~scale:1e3 ~pass:("sweep_s", 1.0)
    ~calls_per_op:measured ~setup ~op ~layers
