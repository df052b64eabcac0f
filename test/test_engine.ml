(** Engine equivalence: the threaded engine's fused mode must be
    observationally identical to its exact reference mode — same results,
    same heap, and a bit-identical counter table — at every tier and
    architecture.

    Three layers:
    - the pinned fuzz corpus through both modes across the optimizing
      tier × architecture matrix (plus the sub-DFG tiers, where the mode
      choice must be inert);
    - hand-built edge-case kernels hitting the paths where the fused
      mode's deferred accounting must reconcile exactly, or where it
      departs from the reference's data layout: phi-heavy loops (a swap, a
      cyclic rotation through the staging buffer, an in-order shift chain
      without it), mid-segment deopts, SOF overflow aborts, an overflow
      followed by clean activations that must neither deopt nor abort,
      chunked transactions;
    - a hand-built LIR function whose body is one elided run, proving the
      fused superinstruction charges exactly zero simulated cost (the
      terminator's single instruction is all that may appear);
    - the edge-threaded control flow: a mixed-file back edge and a [Br]
      whose arms meet, checked against the Interpreter; a loop of 1.2M
      block transitions under a 512 KB stack limit, which only tail calls
      survive; and one-instruction tail runs that fold their terminator's
      charge, on the normal and the deopt path. *)

module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Engine = Nomap_machine.Engine
module Counters = Nomap_machine.Counters
module Machine = Nomap_machine.Machine
module Timing = Nomap_machine.Timing
module Specialize = Nomap_tiers.Specialize
module L = Nomap_lir.Lir
module Htm = Nomap_htm.Htm
module D = Nomap_lir.Decode
module Value = Nomap_runtime.Value
module Instance = Nomap_interp.Instance

(* Low thresholds so every tier engages within the corpus programs' own
   main loops (same protocol as the determinism sweep). *)
let thresholds = { Vm.baseline_at = 1; dfg_at = 2; ftl_at = 4 }

type obs = { result : string; heap : string; counters : string }

(* Fuel for every kernel VM in this file (see [Helpers.check_fuel]).  The
   heaviest, [spin_kernel]'s 600K-iteration call, burns 3.6M; the budget
   is about 4x that. *)
let fuel_budget = 15_000_000
let check_fuel label vm = Helpers.check_fuel ~budget:fuel_budget label (Vm.instance vm)

(* The register-file census warms registry workloads instead: ai-astar's
   35 calls burn 34.6M.  Sharing this budget would give the kernels 40x
   their use, and a kernel whose loop a miscompile keeps from exiting can
   run in quadratic time (a growing string), so they keep their own. *)
let workload_fuel_budget = 140_000_000

let run_vm ~engine ~tier ~arch src =
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm =
    Vm.create ~fuel:fuel_budget ~thresholds ~verify:true ~engine
      ~config:(Config.create arch) ~tier_cap:tier prog
  in
  ignore (Vm.run_main vm);
  (match Nomap_bytecode.Opcode.func_by_name prog "benchmark" with
  | Some _ ->
    for _ = 1 to 8 do
      ignore (Vm.call_function vm "benchmark" [])
    done
  | None -> ());
  check_fuel
    (Printf.sprintf "%s @ %s/%s" (Engine.name engine) (Vm.cap_name tier) (Config.name arch))
    vm;
  vm

let observe ~engine ~tier ~arch src =
  let vm = run_vm ~engine ~tier ~arch src in
  {
    result =
      (match Vm.global vm "result" with
      | Some v -> Value.to_js_string v
      | None -> "<no result>");
    heap = Nomap_vm.Heap_checksum.checksum (Vm.instance vm);
    counters = Counters.to_canonical_string (Vm.counters vm);
  }

let check_equiv ~name ~tier ~arch src =
  let label =
    Printf.sprintf "%s @ %s/%s" name (Vm.cap_name tier) (Config.name arch)
  in
  let d = observe ~engine:Engine.Decoded ~tier ~arch src in
  let t = observe ~engine:Engine.Threaded ~tier ~arch src in
  Alcotest.(check string) (label ^ ": result") d.result t.result;
  Alcotest.(check string) (label ^ ": heap") d.heap t.heap;
  Alcotest.(check string) (label ^ ": counters") d.counters t.counters

(* The optimizing tiers, where the engine actually executes code, across
   every architecture; one sub-DFG tier each as an inertness check. *)
let matrix =
  (Vm.Cap_interp, [ Config.Base ])
  :: (Vm.Cap_baseline, [ Config.Base ])
  :: (Vm.Cap_dfg, Config.all)
  :: [ (Vm.Cap_ftl, Config.all) ]

let check_matrix ~name src =
  List.iter
    (fun (tier, archs) -> List.iter (fun arch -> check_equiv ~name ~tier ~arch src) archs)
    matrix

(* ------------------------------------------------------------------ *)
(* Corpus programs *)

let test_corpus_equivalence () =
  let files = Sys.readdir Helpers.corpus_dir in
  Array.sort compare files;
  let checked = ref 0 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".js" then begin
        let src =
          In_channel.with_open_text (Filename.concat Helpers.corpus_dir file) In_channel.input_all
        in
        check_matrix ~name:file src;
        incr checked
      end)
    files;
  Alcotest.(check bool) "corpus nonempty" true (!checked >= 8)

(* ------------------------------------------------------------------ *)
(* Hand-built edge cases *)

(* Phi-heavy: two accumulators swapped every iteration, so the loop header
   carries a phi group whose parallel-copy order matters. *)
let phi_kernel =
  "function benchmark() { var a = 1; var b = 2; var s = 0; for (var i = 0; i < 50; i++) { \
   var t = a; a = b + i; b = t; s = (s + a - b) & 0xFFFFF; } return s; } var it; var result \
   = 0; for (it = 0; it < 20; it++) { result = benchmark(); }"

(* Mid-segment deopt: inner() is int-specialized, then fed a double — the
   Check_int sits inside a straight-line run, so the fused mode must
   reconcile the exact charged prefix when it fires. *)
let deopt_kernel =
  "function inner(x) { return x * 3 + 1; } function bench(d) { var s = 0; for (var i = 0; \
   i < 8; i++) { s += inner(d[i]); } return s; } var data = [1, 2, 3, 4, 5, 6, 7, 8]; var \
   it; var result = 0; for (it = 0; it < 30; it++) { result = bench(data); } data[3] = \
   2.5; result = bench(data);"

(* SOF overflow: the overflow is detected at commit, aborting the whole
   tile after the deferred segment charges were applied. *)
let sof_kernel =
  "function bench(start) { var x = start; for (var i = 0; i < 30; i++) { x = x + 7; } \
   return x; } var it; var result = 0; for (it = 0; it < 40; it++) { result = bench(it); \
   } result = bench(2147483640);"

(* Chunked transactions: write set above the ROT budget, so tiles commit
   mid-loop and segments straddle transaction boundaries across calls. *)
let chunked_kernel =
  "function benchmark() { var a = new Array(4000); for (var i = 0; i < 4000; i++) { a[i] = \
   i; } return a[3999]; } var it; var result = 0; for (it = 0; it < 20; it++) { result = \
   benchmark(); }"

(* Three-way rotation: the back edge copies a <- b, b <- c, c <- a, a
   cycle no copy order gets right, so the fused mode stages it through
   the scratch buffer. *)
let rotate_kernel =
  "function benchmark() { var a = 1; var b = 2; var c = 3; var s = 0; for (var i = 0; i < \
   40; i++) { var t = a; a = b; b = c; c = t; s = (s * 3 + a - c) & 0xFFFFF; } return s; } \
   var it; var result = 0; for (it = 0; it < 20; it++) { result = benchmark(); }"

(* Shift chain: a = b; b = c; c = next.  Acyclic, and exact when copied in
   group order (b is read before it is overwritten), so the fused mode
   copies it without the buffer; the reverse order would not be. *)
let shift_kernel =
  "function benchmark() { var a = 1; var b = 2; var c = 3; var s = 0; for (var i = 0; i < \
   40; i++) { a = b; b = c; c = (i * 7 + s) & 0xFFFF; s = (s + a - b + c) & 0xFFFFF; } \
   return s; } var it; var result = 0; for (it = 0; it < 20; it++) { result = \
   benchmark(); }"

(* One FTL activation of bench overflows (deopt, or an abort inside a
   transaction); the next calls run the same code in fresh activations,
   which must not see the previous activation's overflow flags. *)
let overflow_once_kernel = sof_kernel ^ " result = bench(5) + bench(9);"

let test_phi_loop () = check_matrix ~name:"phi loop" phi_kernel

(* The decoded FTL code of function [fn] (default [benchmark]) after the
   program's top level ran under Base, so a kernel can show which engine
   path it exercises. *)
let ftl_decoded ?(fn = "benchmark") src =
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm =
    Vm.create ~fuel:fuel_budget ~thresholds ~config:(Config.create Config.Base)
      ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  check_fuel ("FTL code of " ^ fn) vm;
  match Nomap_bytecode.Opcode.func_by_name prog fn with
  | None -> None
  | Some f -> Option.map Machine.decoded (Vm.ftl_code vm f.Nomap_bytecode.Opcode.fid)

let benchmark_phi_edges src =
  match ftl_decoded src with
  | None -> []
  | Some d ->
    Array.to_list d.D.dblocks |> List.concat_map (fun b -> Array.to_list b.D.phi_edges)

(* An edge where some copy reads a value a later copy of the group
   overwrites: copying in group order is exact, the reverse is not. *)
let order_sensitive (e : D.phi_edge) =
  let n = Array.length e.D.dsts in
  List.exists
    (fun j -> List.exists (fun i -> e.D.srcs.(i) = e.D.dsts.(j)) (List.init j Fun.id))
    (List.init n Fun.id)

let test_phi_rotation () =
  Alcotest.(check bool) "rotation takes the staged path" true
    (List.exists (fun e -> e.D.staged) (benchmark_phi_edges rotate_kernel));
  check_matrix ~name:"phi rotation" rotate_kernel

let test_phi_shift_chain () =
  let edges = benchmark_phi_edges shift_kernel in
  Alcotest.(check bool) "shift chain copies in order, unstaged" true
    (List.exists (fun e -> (not e.D.staged) && order_sensitive e) edges);
  check_matrix ~name:"phi shift chain" shift_kernel

(* Both modes could share a stale-flag bug and still agree, so the clean
   calls after the overflow are also pinned directly: no deopt, no abort. *)
let test_overflow_once () =
  check_matrix ~name:"overflow once" overflow_once_kernel;
  List.iter
    (fun engine ->
      List.iter
        (fun arch ->
          let prog = Nomap_bytecode.Compile.compile_source sof_kernel in
          let vm =
            Vm.create ~fuel:fuel_budget ~thresholds ~engine ~config:(Config.create arch)
              ~tier_cap:Vm.Cap_ftl prog
          in
          ignore (Vm.run_main vm);
          let before = Counters.copy (Vm.counters vm) in
          ignore (Vm.call_function vm "bench" [ Value.Int 5 ]);
          ignore (Vm.call_function vm "bench" [ Value.Int 9 ]);
          let d = Counters.diff ~now:(Vm.counters vm) ~before in
          let label s = Printf.sprintf "%s/%s: %s" (Engine.name engine) (Config.name arch) s in
          check_fuel (label "overflow once") vm;
          Alcotest.(check int) (label "deopts") 0 d.Counters.deopts;
          Alcotest.(check int) (label "tx_aborts") 0 d.Counters.tx_aborts)
        Config.all)
    Engine.all

let edge_archs =
  [ Config.Base; Config.NoMap_full; Config.NoMap_BC; Config.NoMap_RTM; Config.NoMap_RTM_STM ]

let check_ftl_archs ~name src =
  List.iter (fun arch -> check_equiv ~name ~tier:Vm.Cap_ftl ~arch src) edge_archs

let test_deopt_mid_segment () = check_ftl_archs ~name:"deopt mid-segment" deopt_kernel
let test_sof_abort () = check_ftl_archs ~name:"sof abort" sof_kernel
let test_chunked_tx () = check_ftl_archs ~name:"chunked tx" chunked_kernel

(* ------------------------------------------------------------------ *)
(* Hybrid RTM+STM capacity fallback *)

(* Twelve writes at a 512-element (4 KB) stride all map to the same set of
   the scaled 8-set L1D, so the write set needs 12 ways where the HTM has 8
   — an associativity overflow the byte-count estimator cannot see (96
   bytes, far under budget, so placement wraps the whole loop).  Under
   NoMap_RTM that means a capacity abort, a deopt, a Baseline re-execution
   of the rest of the call (including the check-heavy tail loop), and a
   placement demotion — three cold calls in a row until Max_chunk 4 tiles
   fit.  Under NoMap_RTM_STM the same overflow upgrades the transaction to
   the modeled software redo log in place: the check-elided body commits
   and the tail stays in FTL on every call. *)
let spray_kernel =
  "function benchmark() { var a = new Array(8192); for (var i = 0; i < 12; i++) { a[i * \
   512] = i; } var s = 0; for (var j = 0; j < 2000; j++) { s = (s + j * 7) & 0xFFFFF; } \
   return s + a[512]; } var it; var result = 0; for (it = 0; it < 10; it++) { result = \
   benchmark(); }"

(* 64 elements sit comfortably inside the scaled capacity: the fallback is
   never exercised, so the hybrid architecture must be indistinguishable
   from pure RTM down to the last counter bit. *)
let fit_kernel =
  "function benchmark() { var a = new Array(64); for (var i = 0; i < 64; i++) { a[i] = i * \
   3; } return a[63]; } var it; var result = 0; for (it = 0; it < 10; it++) { result = \
   benchmark(); }"

let run_cold ~arch src =
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm =
    Vm.create ~fuel:fuel_budget ~thresholds ~verify:true ~engine:Engine.Decoded
      ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  check_fuel ("cold run under " ^ Config.name arch) vm;
  let result =
    match Vm.global vm "result" with
    | Some v -> Value.to_js_string v
    | None -> "<no result>"
  in
  (result, Nomap_vm.Heap_checksum.checksum (Vm.instance vm), Vm.counters vm, Vm.tx_demotions vm)

let test_hybrid_overflow () =
  (* Both modes agree on the overflowing kernel under both RTM archs. *)
  List.iter
    (fun arch -> check_equiv ~name:"spray" ~tier:Vm.Cap_ftl ~arch spray_kernel)
    [ Config.NoMap_RTM; Config.NoMap_RTM_STM ];
  let base_r, base_h, _, _ = run_cold ~arch:Config.Base spray_kernel in
  let rtm_r, rtm_h, rtm_c, rtm_dem = run_cold ~arch:Config.NoMap_RTM spray_kernel in
  let stm_r, stm_h, stm_c, stm_dem = run_cold ~arch:Config.NoMap_RTM_STM spray_kernel in
  Alcotest.(check string) "rtm result matches Base" base_r rtm_r;
  Alcotest.(check string) "hybrid result matches Base" base_r stm_r;
  Alcotest.(check string) "rtm heap matches Base" base_h rtm_h;
  Alcotest.(check string) "hybrid heap matches Base" base_h stm_h;
  Alcotest.(check bool) "rtm capacity-aborts" true (rtm_c.Counters.tx_aborts > 0);
  Alcotest.(check bool) "rtm demotes placement" true (rtm_dem > 0);
  Alcotest.(check bool) "hybrid commits in software" true (stm_c.Counters.stm_commits > 0);
  Alcotest.(check int) "hybrid never demotes" 0 stm_dem;
  Alcotest.(check int) "hybrid suffers no software rollbacks here" 0 stm_c.Counters.stm_aborts;
  (* The ladder must be monotone on a cold VM: avoiding the
     abort -> deopt -> recompile -> Baseline-re-execute transient beats
     paying the per-access software overhead on every call. *)
  Alcotest.(check bool) "hybrid beats pure RTM cold" true
    (Counters.cycles stm_c < Counters.cycles rtm_c)

let test_hybrid_fit_identical () =
  let _, _, rtm_c, _ = run_cold ~arch:Config.NoMap_RTM fit_kernel in
  let _, _, stm_c, _ = run_cold ~arch:Config.NoMap_RTM_STM fit_kernel in
  Alcotest.(check int) "no software commits when the footprint fits" 0
    stm_c.Counters.stm_commits;
  Alcotest.(check string) "bit-identical counters when no overflow"
    (Counters.to_canonical_string rtm_c)
    (Counters.to_canonical_string stm_c)

(* ------------------------------------------------------------------ *)
(* Fused elided run charges exactly zero *)

(* Hand-build an FTL LIR function whose whole body is an elided Iadd chain:
   b0: v0 = Const 7; v1 = v0+v0; ... v5 = v4+v4; Ret v5, every body
   instruction marked elided.  Both modes must execute it for exactly one
   simulated instruction (the terminator), one terminator's worth of
   cycles, and zero checks — the fused mode runs the body as a single
   zero-cost superinstruction. *)
let build_elided_chain () =
  let f = L.create_func ~fid:0 in
  let b = L.new_block f in
  f.L.entry <- b.L.bid;
  let add kind =
    let i = L.new_instr f kind in
    i.L.block <- b.L.bid;
    i.L.elided <- true;
    b.L.instrs <- b.L.instrs @ [ i.L.id ];
    i.L.id
  in
  let v0 = add (L.Const (Value.Int 7)) in
  let rec chain v k = if k = 0 then v else chain (add (L.Iadd (v, v))) (k - 1) in
  let last = chain v0 5 in
  b.L.term <- L.Ret (Some last);
  {
    Specialize.lir = f;
    block_pc = Hashtbl.create 1;
    header_blocks = [];
    entry_states = Hashtbl.create 1;
    decoded = None;
    engine_code = None;
  }

let exec_raw ~engine compiled =
  let prog = Nomap_bytecode.Compile.compile_source "var result = 0;" in
  let instance = Instance.create ~fuel:1_000_000 prog in
  let counters = Counters.create () in
  let env =
    Machine.create_env ~instance ~counters ~htm_mode:Htm.Ghost ~sof_enabled:false
      ~call:(fun ~fid:_ ~this:_ ~args:_ -> Value.Undef)
      ~deopt_resume:(fun ~fid:_ ~resume_pc:_ ~values:_ -> Value.Undef)
      ()
  in
  let result =
    Nomap_machine.Threaded.exec_func env compiled ~exact:(engine = Engine.Decoded)
      ~tier:Machine.Ftl ~this:Value.Undef ~args:[]
  in
  (result, counters)

let test_elided_run_is_free () =
  List.iter
    (fun engine ->
      let name s = Engine.name engine ^ ": " ^ s in
      (* Fresh compiled record per mode so each compiles from scratch. *)
      let r, c = exec_raw ~engine (build_elided_chain ()) in
      Alcotest.(check string) (name "result") "224" (Value.to_js_string r);
      Alcotest.(check int) (name "only the terminator charged") 1 (Counters.total_instrs c);
      Alcotest.(check int)
        (name "exactly one FTL instruction's cycles")
        Timing.cpi_ftl c.Counters.mcycles;
      Alcotest.(check int) (name "zero checks") 0 (Counters.total_checks c))
    Engine.all;
  (* And the two modes' full canonical tables match bit-for-bit. *)
  let _, cd = exec_raw ~engine:Engine.Decoded (build_elided_chain ()) in
  let _, ct = exec_raw ~engine:Engine.Threaded (build_elided_chain ()) in
  Alcotest.(check string) "canonical tables identical"
    (Counters.to_canonical_string cd)
    (Counters.to_canonical_string ct)

(* ------------------------------------------------------------------ *)
(* Typed register files *)

(* Exact and fused mode share the register layout ([Decode.layout]), so
   the engine-equivalence tests cannot see a representation bug; the
   bytecode Interpreter can.  Each kernel runs at FTL under every
   architecture in both modes, and its result and heap checksum (which
   tells [Int] from [Num] and [Bool]) must match the Interpreter's. *)
let check_vs_interp ~name src =
  let reference = observe ~engine:Engine.Decoded ~tier:Vm.Cap_interp ~arch:Config.Base src in
  List.iter
    (fun engine ->
      List.iter
        (fun arch ->
          let vm = run_vm ~engine ~tier:Vm.Cap_ftl ~arch src in
          let label s =
            Printf.sprintf "%s @ %s/%s: %s" name (Engine.name engine) (Config.name arch) s
          in
          Alcotest.(check bool) (label "ran FTL code") true
            ((Vm.counters vm).Counters.ftl_calls > 0);
          Alcotest.(check string) (label "result") reference.result
            (match Vm.global vm "result" with
            | Some v -> Value.to_js_string v
            | None -> "<no result>");
          Alcotest.(check string) (label "heap") reference.heap
            (Nomap_vm.Heap_checksum.checksum (Vm.instance vm)))
        Config.all)
    Engine.all

(* Whether [fn]'s FTL code has a phi copy from a [src_rep] value into a
   [dst_rep] phi. *)
let has_phi_copy ?fn src ~dst_rep ~src_rep =
  match ftl_decoded ?fn src with
  | None -> false
  | Some d ->
    let rep v = d.D.layout.D.rep.(v) in
    Array.exists
      (fun b ->
        Array.exists
          (fun e ->
            let n = Array.length e.D.dsts in
            List.exists
              (fun i -> rep e.D.dsts.(i) = dst_rep && rep e.D.srcs.(i) = src_rep)
              (List.init n Fun.id))
          b.D.phi_edges)
      d.D.dblocks

(* (a) A phi joining an int with a double and a string: the phi is boxed
   and its int input is boxed on the edge. *)
let mixed_phi_kernel =
  "var out = [0, 0, 0, 0, 0, 0, 0, 0]; function benchmark() { var acc = \"\"; var s = 0; \
   for (var i = 0; i < 30; i++) { var x = i; if (i % 3 == 1) { x = i * 0.5; } if (i % 5 \
   == 2) { x = \"k\"; } out[i & 7] = x; acc = acc + x; if (i % 5 != 2) { s = s + x; } } \
   return acc + s; } var it; var result = 0; for (it = 0; it < 20; it++) { result = \
   benchmark(); }"

(* (b) Booleans that escape the int file: stored to an array, returned,
   passed as an argument, and used in arithmetic. *)
let bool_escape_kernel =
  "var flags = [0, 0, 0, 0, 0, 0, 0, 0]; function id(v) { return v; } function below(a, \
   b) { return a < b; } function benchmark() { var n = 0; var last = false; for (var i = \
   0; i < 30; i++) { var b = (i & 3) < 2; flags[i & 7] = b; var c = below(i, 15); n = n + \
   ((i & 1) < 1) + 1; if (id(b == c)) { n = n + 2; } last = b; } return \"\" + n + \
   flags[3] + below(n, 3) + last; } var it; var result = 0; for (it = 0; it < 20; it++) \
   { result = benchmark(); }"

(* (c) [>>>] results above 2^31-1 stay boxed, into arithmetic and
   stores. *)
let ushr_kernel =
  "var us = [0, 0, 0, 0, 0, 0, 0, 0]; function benchmark() { var s = 0; for (var i = 0; i \
   < 40; i++) { var u = (i - 20) >>> 0; us[i & 7] = u; s = (s + u * 3 + (u >>> 28)) % \
   1000003; } return s + us[3]; } var it; var result = 0; for (it = 0; it < 20; it++) { \
   result = benchmark(); }"

(* (d) -2^31 ([1 << 31]) through a phi, a [Check_int] on its reload, a
   store and negation, whose 2^31 overflows int32. *)
let int32_min_kernel =
  "var ms = [0, 0, 0, 0, 0, 0, 0, 0]; function benchmark() { var s = 0; var m = 0; for \
   (var i = 0; i < 40; i++) { if ((i & 3) == 0) { m = 1 << 31; } else { m = i; } ms[i & \
   7] = m; var y = ms[(i + 4) & 7]; s = (s + y) % 1000003; if ((i & 3) != 0) { s = s + \
   (-m); } } return s + (-ms[0]); } var it; var result = 0; for (it = 0; it < 20; it++) { \
   result = benchmark(); }"

(* (e) A deopt with an int32 and a boolean register live: Baseline resumes
   with them and stores them, so the heap shows [Int] and [Bool]. *)
let deopt_live_kernel =
  "var seen = [0, 0]; function f(d, k) { var big = k > 3; var n = k * 2 + 1; var v = d[k] \
   + 1; seen[0] = big; seen[1] = n; return v + n + (big ? 100 : 0); } var data = [1, 2, \
   3, 4, 5, 6, 7, 8]; var it; var result = 0; for (it = 0; it < 30; it++) { result = \
   f(data, it & 7); } data[5] = 2.5; result = \"\" + f(data, 5) + seen[0] + seen[1];"

(* (f) A transaction abort whose snapshot holds int32 (and boolean)
   registers: the loop's region resumes in Baseline from the snapshot,
   which stores them after the loop. *)
let abort_snapshot_kernel =
  "var keep = [0, 0, 0]; function g(a, lim) { var s = 7; var t = lim * 3; var flag = lim \
   > 10; for (var i = 0; i < a.length; i++) { s = (s + a[i] * t) & 1048575; } keep[0] = \
   t; keep[1] = flag; keep[2] = s; return s; } var arr = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, \
   11, 12, 13, 14, 15, 16]; var it; var result = 0; for (it = 0; it < 30; it++) { result \
   = g(arr, it); } arr[9] = 0.5; result = \"\" + g(arr, 12) + \":\" + keep[1];"

let test_rep_mixed_phi () =
  Alcotest.(check bool) "an int input feeds a boxed phi" true
    (has_phi_copy mixed_phi_kernel ~dst_rep:D.Boxed ~src_rep:D.Int32);
  check_vs_interp ~name:"mixed phi" mixed_phi_kernel

let test_rep_bool_escape () = check_vs_interp ~name:"escaping booleans" bool_escape_kernel
let test_rep_ushr () = check_vs_interp ~name:"ushr above int32" ushr_kernel

let test_rep_int32_min () =
  Alcotest.(check bool) "-2^31 flows through an int32 phi" true
    (has_phi_copy int32_min_kernel ~dst_rep:D.Int32 ~src_rep:D.Int32);
  check_vs_interp ~name:"int32 min" int32_min_kernel

(* The events each kernel is for must actually happen. *)
let count_events ~arch src =
  let c = Vm.counters (run_vm ~engine:Engine.Threaded ~tier:Vm.Cap_ftl ~arch src) in
  (c.Counters.deopts, c.Counters.tx_aborts)

let test_rep_deopt_live () =
  Alcotest.(check bool) "Base deopts" true
    (fst (count_events ~arch:Config.Base deopt_live_kernel) > 0);
  check_vs_interp ~name:"deopt with unboxed live values" deopt_live_kernel

let test_rep_abort_snapshot () =
  Alcotest.(check bool) "NoMap aborts" true
    (snd (count_events ~arch:Config.NoMap_full abort_snapshot_kernel) > 0);
  check_vs_interp ~name:"abort with unboxed snapshot" abort_snapshot_kernel

(* ROADMAP item 3's three largest FTL functions had boxed register files
   past [Max_young_wosize] (256 words), so each activation allocated
   them in the major heap.  Split and compacted, every FTL function of
   those kernels fits both files in the minor heap, and the slots never
   outnumber the value ids. *)
let test_rep_layout_shape () =
  let largest = ref 0 in
  List.iter
    (fun name ->
      let b = Option.get (Nomap_workloads.Registry.by_name name) in
      List.iter
        (fun arch ->
          let prog = Nomap_workloads.Registry.compile b in
          let vm =
            Vm.create ~fuel:workload_fuel_budget ~config:(Config.create arch)
              ~tier_cap:Vm.Cap_ftl prog
          in
          ignore (Vm.run_main vm);
          for _ = 1 to Nomap_harness.Runner.default_warmup do
            ignore (Vm.call_function vm "benchmark" [])
          done;
          Helpers.check_fuel ~budget:workload_fuel_budget
            (Printf.sprintf "%s/%s" name (Config.name arch))
            (Vm.instance vm);
          Array.iteri
            (fun fid _ ->
              match Vm.ftl_code vm fid with
              | None -> ()
              | Some c ->
                let d = Machine.decoded c in
                let l = d.D.layout in
                let label s = Printf.sprintf "%s/%s fid %d: %s" name (Config.name arch) fid s in
                largest := Int.max !largest d.D.nvalues;
                Alcotest.(check bool) (label "int file fits the minor heap") true
                  (l.D.n_int <= 256);
                Alcotest.(check bool) (label "boxed file fits the minor heap") true
                  (l.D.n_boxed <= 256);
                Alcotest.(check bool) (label "no more slots than value ids") true
                  (l.D.n_int + l.D.n_boxed <= d.D.nvalues))
            prog.Nomap_bytecode.Opcode.funcs)
        [ Config.Base; Config.NoMap_full ])
    [ "ai-astar"; "imaging-gaussian-blur"; "access-fannkuch" ];
  Alcotest.(check bool) "some function has more value ids than a young block holds" true
    (!largest > 256)

(* ------------------------------------------------------------------ *)
(* Edge-threaded blocks *)

(* A mixed-file back edge: the boxed phi [x] (it joins 0.5 and [y]) reads
   the int32 phi [y] that the same edge reassigns.  The back edge is
   unstaged, so the fused mode splits it by file, and the boxing of [y]
   into [x] must run before the int copy into [y]: the other order adds
   [y + 1] where [y] belongs.  The empty [if] ends in a [Br] whose two arms
   reach one block. *)
let edge_kernel =
  "function benchmark() { var x = 0.5; var y = 0; var s = 0; for (var i = 0; i < 40; i++) \
   { s = s + x; x = y; y = y + 1; if ((i & 3) == 1) { } } return s; } var it; var result \
   = 0; for (it = 0; it < 20; it++) { result = benchmark(); }"

(* Whether [e] is unstaged and boxes a value that an int copy later in the
   same edge overwrites: the case where the boxed group must go first. *)
let boxing_read_then_overwritten (d : D.t) (e : D.phi_edge) =
  let rep v = d.D.layout.D.rep.(v) in
  let n = Array.length e.D.dsts in
  (not e.D.staged)
  && List.exists
       (fun i ->
         rep e.D.dsts.(i) = D.Boxed
         && rep e.D.srcs.(i) = D.Int32
         && List.exists
              (fun j -> j > i && rep e.D.dsts.(j) = D.Int32 && e.D.dsts.(j) = e.D.srcs.(i))
              (List.init n Fun.id))
       (List.init n Fun.id)

let test_edge_rules () =
  let d = Option.get (ftl_decoded edge_kernel) in
  Alcotest.(check bool) "a boxing reads an int phi its own unstaged edge overwrites" true
    (Array.exists (fun b -> Array.exists (boxing_read_then_overwritten d) b.D.phi_edges)
       d.D.dblocks);
  Alcotest.(check bool) "a Br's two arms reach one block" true
    (Array.exists
       (fun b -> match b.D.dterm with L.Br (_, t, f) -> t = f | _ -> false)
       d.D.dblocks);
  Alcotest.(check bool) "the edge plan shows an unstaged edge that boxes" true
    (List.exists
       (fun line -> String.ends_with ~suffix:"boxing 1, unstaged" line)
       (String.split_on_char '\n' (Nomap_machine.Threaded.edge_plan_to_string d)));
  check_vs_interp ~name:"edge rules" edge_kernel

(* Every block transfer (terminator to edge to successor body) must be a
   tail call, or the OCaml stack grows by a frame per executed block.
   One FTL activation of [spin] makes 1.2M block transitions (two per
   iteration) under a 512 KB stack limit, so a non-tail transfer raises
   [Stack_overflow] instead of silently growing the stack. *)
let spin_kernel =
  "function spin(n) { var s = 0; for (var i = 0; i < n; i++) { s = (s + i) & 0xFFFF; } \
   return s; } var it; var result = 0; for (it = 0; it < 20; it++) { result = spin(10); }"

let with_stack_limit words f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.stack_limit = words };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

let test_tail_calls () =
  let n = 600_000 in
  let expected =
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := (!s + i) land 0xFFFF
    done;
    !s
  in
  List.iter
    (fun engine ->
      let label s = Engine.name engine ^ ": " ^ s in
      let prog = Nomap_bytecode.Compile.compile_source spin_kernel in
      let vm =
        Vm.create ~fuel:fuel_budget ~thresholds ~engine ~config:(Config.create Config.Base)
          ~tier_cap:Vm.Cap_ftl prog
      in
      ignore (Vm.run_main vm);
      let before = Counters.copy (Vm.counters vm) in
      let r =
        with_stack_limit 65_536 (fun () -> Vm.call_function vm "spin" [ Value.Int n ])
      in
      check_fuel (label "spin") vm;
      let d = Counters.diff ~now:(Vm.counters vm) ~before in
      Alcotest.(check int) (label "one FTL call") 1 d.Counters.ftl_calls;
      Alcotest.(check int) (label "no deopt") 0 d.Counters.deopts;
      Alcotest.(check string) (label "result") (string_of_int expected) (Value.to_js_string r))
    Engine.all

(* A one-instruction run at the end of a block absorbs the terminator's
   charge like a longer run, and keeps the self-charging terminator on its
   raise path.  [tail_kernel]'s loop body ends [call f; store_global], so
   a folded one-instruction run of cost 2 runs on every iteration.  The
   hand-built function ends its second block in a lone [Check_int] that
   deopts: exact mode charges the jump and the check, in that order, but
   never reaches the [Ret], and neither may the fused mode. *)
let tail_kernel =
  "var g = 0; function f(x) { return x * 3 + 1; } function benchmark() { var i = 0; while \
   (i < 300) { i = i + 1; g = f(i); } return g; } var it; var result = 0; for (it = 0; it < \
   20; it++) { result = benchmark(); }"

let build_lone_check () =
  let f = L.create_func ~fid:0 in
  let b0 = L.new_block f and b1 = L.new_block f in
  f.L.entry <- b0.L.bid;
  let add (b : L.block) kind =
    let i = L.new_instr f kind in
    i.L.block <- b.L.bid;
    b.L.instrs <- b.L.instrs @ [ i.L.id ];
    i.L.id
  in
  let v0 = add b0 (L.Param 1) in
  b0.L.term <- L.Jump b1.L.bid;
  let exit = { L.ekind = L.Deopt; smp = L.fresh_smp f ~resume_pc:0 ~live:[] } in
  let v1 = add b1 (L.Check_int (v0, exit)) in
  b1.L.term <- L.Ret (Some v1);
  {
    Specialize.lir = f;
    block_pc = Hashtbl.create 1;
    header_blocks = [];
    entry_states = Hashtbl.create 1;
    decoded = None;
    engine_code = None;
  }

let test_tail_run_fold () =
  let d = Option.get (ftl_decoded tail_kernel) in
  Alcotest.(check bool) "a block ends in [call; store_global]" true
    (Array.exists
       (fun b ->
         let n = Array.length b.D.body in
         n >= 2
         && (match b.D.body.(n - 2).D.kind with L.Call_func _ -> true | _ -> false)
         && match b.D.body.(n - 1).D.kind with L.Store_global _ -> true | _ -> false)
       d.D.dblocks);
  check_ftl_archs ~name:"one-instruction tail run" tail_kernel;
  let tables =
    List.map
      (fun engine ->
        let _, c = exec_raw ~engine (build_lone_check ()) in
        let name s = Engine.name engine ^ ": " ^ s in
        Alcotest.(check int) (name "deopts") 1 c.Counters.deopts;
        Alcotest.(check int) (name "the jump and the check, not the ret") 3
          (Counters.total_instrs c);
        Counters.to_canonical_string c)
      Engine.all
  in
  Alcotest.(check string) "canonical tables identical" (List.nth tables 0) (List.nth tables 1)

(* ------------------------------------------------------------------ *)
(* Transactional rollback of global stores *)

(* The transaction around [f]'s loop stores the global [g] on every
   iteration and aborts when [f(100)] reads past [arr]'s end; Baseline
   then re-executes the region, so the aborted stores must be undone or
   [g] counts them twice. *)
let global_rollback_kernel =
  "var g = 0; var arr = []; for (var k = 0; k < 64; k++) { arr[k] = k; } function f(n) { \
   var s = 0; for (var i = 0; i < n; i++) { g = g + 1; s = s + arr[i]; } return s; } for \
   (var it = 0; it < 30; it++) { f(40); } f(100); result = g;"

(* The same, with the store made by a bytecode-tier callee running inside
   the region. *)
let callee_global_rollback_kernel =
  "var g = 0; var arr = []; for (var k = 0; k < 64; k++) { arr[k] = k; } function h() { g \
   = g + 1; return 0; } function f(n) { var s = 0; for (var i = 0; i < n; i++) { if (i == \
   50) { h(); } s = s + arr[i]; } return s; } for (var it = 0; it < 30; it++) { f(40); } \
   f(100); result = g;"

let test_global_rollback () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun arch ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s aborts" name (Config.name arch))
            true
            (snd (count_events ~arch src) > 0))
        [ Config.NoMap_full; Config.NoMap_RTM; Config.NoMap_RTM_STM ];
      check_vs_interp ~name src)
    [ ("global store", global_rollback_kernel);
      ("callee global store", callee_global_rollback_kernel) ]

(* ------------------------------------------------------------------ *)
(* The transaction watchdog *)

(* [f(2147483600, 100)] overflows [a + i] inside the outer loop's
   transaction; SOF defers the overflow check to the commit, so the
   wrapped negative [x] sends the inner loop counting up toward zero,
   about 2^31 iterations, until the watchdog cuts the transaction off.
   Baseline then re-executes the region with doubles and finds nothing
   to count. *)
let watchdog_kernel =
  "function f(a, n) { var c = 0; for (var i = 0; i < n; i++) { var x = a + i; while (x < \
   0) { x = x + 1; c = c + 1; } } return c; } for (var it = 0; it < 30; it++) { f(1000, \
   50); } result = f(2147483600, 100);"

(* The run burns 30,011,605 fuel in both modes: the watchdog's limit of
   30M instructions in the one transaction, and a little more. *)
let watchdog_fuel_budget = 64_000_000

let test_watchdog () =
  let prog = Nomap_bytecode.Compile.compile_source watchdog_kernel in
  let reference =
    observe ~engine:Engine.Decoded ~tier:Vm.Cap_interp ~arch:Config.Base watchdog_kernel
  in
  let tables =
    List.map
      (fun engine ->
        let vm =
          Vm.create ~fuel:watchdog_fuel_budget ~thresholds ~engine
            ~config:(Config.create Config.NoMap_full) ~tier_cap:Vm.Cap_ftl prog
        in
        ignore (Vm.run_main vm);
        let label s = Printf.sprintf "%s: %s" (Engine.name engine) s in
        Helpers.check_fuel ~budget:watchdog_fuel_budget (label "watchdog") (Vm.instance vm);
        let c = Vm.counters vm in
        Alcotest.(check string) (label "result") reference.result
          (match Vm.global vm "result" with
          | Some v -> Value.to_js_string v
          | None -> "<no result>");
        Alcotest.(check string) (label "heap") reference.heap
          (Nomap_vm.Heap_checksum.checksum (Vm.instance vm));
        Alcotest.(check int) (label "watchdog aborts") 1 (Counters.abort_count c Htm.Watchdog);
        Alcotest.(check int) (label "demotions") 1 (Vm.tx_demotions vm);
        Counters.to_canonical_string c)
      Engine.all
  in
  Alcotest.(check string) "canonical tables identical" (List.nth tables 0) (List.nth tables 1)

let tests =
  [
    Alcotest.test_case "corpus equivalence (both engines)" `Quick test_corpus_equivalence;
    Alcotest.test_case "phi loop equivalence" `Quick test_phi_loop;
    Alcotest.test_case "phi rotation equivalence" `Quick test_phi_rotation;
    Alcotest.test_case "phi shift chain equivalence" `Quick test_phi_shift_chain;
    Alcotest.test_case "overflow once equivalence" `Quick test_overflow_once;
    Alcotest.test_case "deopt mid-segment equivalence" `Quick test_deopt_mid_segment;
    Alcotest.test_case "sof abort equivalence" `Quick test_sof_abort;
    Alcotest.test_case "chunked tx equivalence" `Quick test_chunked_tx;
    Alcotest.test_case "hybrid overflow falls back and wins" `Quick test_hybrid_overflow;
    Alcotest.test_case "hybrid matches rtm when footprint fits" `Quick
      test_hybrid_fit_identical;
    Alcotest.test_case "fused elided run is free" `Quick test_elided_run_is_free;
    Alcotest.test_case "representation: int/double/string phi" `Quick test_rep_mixed_phi;
    Alcotest.test_case "representation: escaping booleans" `Quick test_rep_bool_escape;
    Alcotest.test_case "representation: ushr above int32" `Quick test_rep_ushr;
    Alcotest.test_case "representation: int32 min" `Quick test_rep_int32_min;
    Alcotest.test_case "representation: deopt live values" `Quick test_rep_deopt_live;
    Alcotest.test_case "representation: abort snapshot" `Quick test_rep_abort_snapshot;
    Alcotest.test_case "representation: register file shape" `Quick test_rep_layout_shape;
    Alcotest.test_case "edges: mixed-file back edge and one-block Br" `Quick test_edge_rules;
    Alcotest.test_case "edges: block transfers are tail calls" `Quick test_tail_calls;
    Alcotest.test_case "edges: one-instruction tail run folds its terminator" `Quick
      test_tail_run_fold;
    Alcotest.test_case "rollback undoes global stores" `Quick test_global_rollback;
    Alcotest.test_case "watchdog cuts off a runaway transaction" `Quick test_watchdog;
  ]
