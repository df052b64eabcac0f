(** perfbench: the repository's end-to-end and per-layer benchmark.

    Usage:
      main.exe --workload warm-nomap|cell-base|serve-shootout --seed N
               --seconds S --trace 0|1 [--out-dir DIR]

    Untraced ([--trace 0]) runs measure the end-to-end metrics; traced
    runs record spans around every call the benchmark makes into a layer
    and report the per-layer metrics, writing the spans to
    [DIR/trace-<workload>-<seed>.json].  The last line of standard output
    is one JSON object: [correct], [attempted], [failed] and [metrics].
    Every time metric is host-corrected by the canary (see [Host]); the
    raw figures are reported in the traced run as [raw.*].

    End-to-end metrics, on every workload (an op is a warm call, a cell or
    a request; a class is a kernel, or a program and cache outcome):
    - [setup_s]: set-up time, median of three set-ups;
    - [peak_rss_mb]: process peak resident set;
    - [op_us]: geometric mean over classes of each class's median op time
      (warm-nomap: the per-kernel warm call; cell-base: the per-kernel
      cell; serve-shootout: request latency, send to verified reply);
    - [ops_per_s]: warm-nomap and cell-base: 40 over the time of one pass
      over the kernels (the warm suite pass; one architecture column of
      the paper's sweep), taken as the sum of the per-kernel medians;
      serve-shootout: completed requests per second, the median over
      windows.

    There is no percentile gate: a cell-base run holds about 200 cells,
    too few for a 99th percentile with ten samples beyond it, and a
    percentile pooled over 40 kernels of different speeds falls on the
    boundary between two kernels and jumps between runs.  The serving
    workload's pooled p50 and p99 request latency are printed with the
    result and reported by the traced run as [server.p50_ms] and
    [server.p99_ms].

    Not measured: multi-agent [lib/shared] contention, [Scheduler]
    multi-domain scaling, and the fuzzer. *)

let workloads = [ "warm-nomap"; "cell-base"; "serve-shootout" ]
let e2e_metrics = [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("op_us", "us"); ("ops_per_s", "1/s") ]

let layer_metrics =
  let us = List.map (fun n -> (n, "us")) and count = List.map (fun n -> (n, "count")) in
  us [ "jsir.lex_us"; "jsir.parse_us"; "bytecode.compile_us" ]
  @ count [ "jsir.tokens" ]
  @ us
      [ "vm.create_us"; "vm.run_main_us"; "vm.heap_checksum_us"; "harness.reference_check_us";
        "interp.call_us"; "interp.baseline_call_us"; "tiers.dfg_tierup_call_us";
        "machine.dfg_call_us"; "tiers.ftl_tierup_call_us"; "machine.ftl_call_us";
        "interp.profile_run_us"; "tiers.specialize_us"; "nomap.transform_us" ]
  @ us (List.map (fun p -> "opt." ^ p ^ "_us") Replay.pass_names)
  @ us [ "lir.decode_us"; "machine.threaded_compile_us" ]
  @ count [ "tiers.ftl_funcs"; "lir.size_before"; "lir.size_after" ]
  @ count (List.map (fun p -> "opt." ^ p ^ "_count") Replay.pass_names)
  @ [ ("machine.ns_per_instr", "ns") ]
  @ count
      [ "machine.instrs"; "machine.checks"; "machine.deopts"; "htm.tx_commits"; "htm.tx_aborts";
        "htm.tx_attempts" ]
  @ [ ("htm.commit_ratio", "ratio") ]
  @ [ ("server.p50_ms", "ms"); ("server.p99_ms", "ms") ]
  @ us [ "server.rpc_us"; "server.session_run_us"; "server.transport_us"; "server.miss_extra_us" ]
  @ [ ("server.cache_hit_ratio", "ratio") ]
  @ count [ "server.cache_hits"; "server.cache_misses" ]
  @ us [ "protocol.encode_us"; "protocol.decode_us" ]
  @ count [ "server.queue_depth"; "server.accepted"; "server.overloaded_rejections" ]
  @ [ ("host.canary_us", "us"); ("host.canary_spread", "ratio"); ("raw.setup_s", "s");
      ("raw.op_us", "us"); ("raw.ops_per_s", "1/s");
      ("trace.overhead_frac", "ratio"); ("trace.child_cover_min", "ratio") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload warm-nomap|cell-base|serve-shootout --seed N --seconds S \
     --trace 0|1 [--out-dir DIR]";
  exit 2

let json_num v = Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let out_dir = ref ".bench_build/perfbench" in
  let rec scan = function
    | "--workload" :: w :: rest when List.mem w workloads -> workload := w; scan rest
    | "--seed" :: n :: rest -> seed := int_of_string n; scan rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; scan rest
    | "--trace" :: (("0" | "1") as t) :: rest -> trace := int_of_string t; scan rest
    | "--out-dir" :: d :: rest -> out_dir := d; scan rest
    | [] -> ()
    | _ -> usage ()
  in
  (try scan (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !workload = "" || !seed < 0 || !seconds <= 0.0 || !trace < 0 then usage ();
  let traced = !trace = 1 in
  let run =
    match !workload with
    | "warm-nomap" -> Vmwork.warm
    | "cell-base" -> Vmwork.cell
    | _ -> Serve.run
  in
  let r, spans = run ~seed:!seed ~seconds:!seconds ~traced in
  Report.e2e r "peak_rss_mb" (Host.peak_rss_mb ());
  let metrics = if traced then layer_metrics else e2e_metrics in
  let source = if traced then r.Report.layers else r.Report.e2e in
  let value name =
    match List.assoc_opt name source with
    | Some v when Float.is_finite v -> Some v
    | Some _ -> None
    | None -> if traced then Some 0.0 else None
  in
  let missing = List.filter (fun (n, _) -> value n = None) metrics in
  List.iter (fun (n, _) -> Printf.eprintf "perfbench: metric %s has no finite value\n" n) missing;
  List.iter print_endline r.Report.lines;
  if traced then begin
    let table = Trace.layer_table spans in
    print_endline "layer                          spans     total_ms      self_ms";
    List.iter
      (fun (name, (n, tot, self)) ->
        Printf.printf "%-28s %8d %12.3f %12.3f\n" name n (tot *. 1e3) (self *. 1e3))
      table;
    (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
    let members =
      ("layers",
       "{" ^ String.concat ", "
         (List.map (fun (name, (n, tot, self)) ->
              Printf.sprintf "%S: {\"spans\": %d, \"total_s\": %s, \"self_s\": %s}" name n
                (json_num tot) (json_num self)) table) ^ "}")
      :: r.Report.trace_extra
    in
    Trace.write_json path spans
      ~extra:(String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) members));
    Printf.printf "trace: %d spans written to %s\n" (List.length spans) path
  end;
  let correct = r.Report.failed = 0 && r.Report.attempted > 0 && missing = [] in
  let body =
    List.filter_map
      (fun (name, unit) ->
        Option.map
          (fun v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
          (value name))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.Report.attempted r.Report.failed (String.concat ", " body)
