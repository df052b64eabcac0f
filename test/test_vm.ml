(** End-to-end VM tests: every architecture must compute exactly what the
    plain interpreter computes, while actually exercising the FTL tier,
    transactions, deopts and aborts. *)

module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Value = Nomap_runtime.Value
module Shape = Nomap_runtime.Shape
module Heap = Nomap_runtime.Heap
module Instance = Nomap_interp.Instance

(* Fuel for every VM and reference run in this file (see
   [Helpers.check_fuel]).  The heaviest case, [sum_kernel] under Base at
   FTL, burns 320K; the budget is about 4x that. *)
let fuel_budget = 1_300_000
let check_fuel label vm = Helpers.check_fuel ~budget:fuel_budget label (Vm.instance vm)

let run_vm ?(arch = Config.Base) ?(cap = Vm.Cap_ftl) src =
  let prog = Helpers.compile src in
  let t =
    Vm.create ~fuel:fuel_budget ~verify:true ~config:(Config.create arch) ~tier_cap:cap prog
  in
  ignore (Vm.run_main t);
  check_fuel (Printf.sprintf "%s at %s" (Config.name arch) (Vm.cap_name cap)) t;
  t

let result_of t =
  match Vm.global t "result" with
  | Some v -> Value.to_js_string v
  | None -> Alcotest.fail "no result global"

(* Wrap a kernel in a hot-call harness so it reaches FTL. *)
let hot kernel = Printf.sprintf "%s var it; for (it = 0; it < 60; it++) { result = bench(); }" kernel

let all_archs = Config.all

let check_all_archs name src =
  let inst, _, _ = Helpers.run_program ~fuel:fuel_budget src in
  Helpers.check_fuel ~budget:fuel_budget (name ^ ": reference") inst;
  let expected = Value.to_js_string (Helpers.global_value inst "result") in
  List.iter
    (fun arch ->
      let t = run_vm ~arch src in
      Alcotest.(check string)
        (Printf.sprintf "%s under %s" name (Config.name arch))
        expected (result_of t);
      (* The hot harness must actually reach FTL. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: FTL ran under %s" name (Config.name arch))
        true
        ((Vm.counters t).Counters.ftl_calls > 0))
    all_archs

let test_sum_loop () =
  check_all_archs "sum loop"
    (hot
       "function bench() { var a = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]; var s = 0; for (var i = 0; \
        i < a.length; i++) { s += a[i]; } return s; }")

let test_accumulator_object () =
  (* The paper's Figure 4 shape: loop accumulating into obj.sum. *)
  check_all_archs "object accumulator"
    (hot
       "function bench() { var obj = { values: [1, 2, 3, 4, 5, 6, 7, 8], sum: 0 }; var len = \
        obj.values.length; for (var idx = 0; idx < len; idx++) { obj.sum += obj.values[idx]; } \
        return obj.sum; }")

let test_nested_loops () =
  check_all_archs "nested loops"
    (hot
       "function bench() { var m = 0; for (var i = 0; i < 10; i++) { for (var j = 0; j < 10; \
        j++) { m += i * j; } } return m; }")

let test_double_math () =
  check_all_archs "double math"
    (hot
       "function bench() { var s = 0.0; for (var i = 0; i < 50; i++) { s += Math.sqrt(i) * 1.5 \
        - s / 7.0; } return Math.floor(s * 1000); }")

let test_string_kernel () =
  check_all_archs "string kernel"
    (hot
       "function bench() { var s = 'the quick brown fox jumps over the lazy dog'; var h = 0; \
        for (var i = 0; i < s.length; i++) { h = (h * 31 + s.charCodeAt(i)) & 0xFFFFFF; } \
        return h; }")

let test_constructor_kernel () =
  check_all_archs "constructors and methods"
    (hot
       "function Vec(x, y) { this.x = x; this.y = y; } function norm2(v) { return v.x * v.x + \
        v.y * v.y; } function bench() { var s = 0; for (var i = 0; i < 20; i++) { var v = new \
        Vec(i, i + 1); s += norm2(v); } return s; }")

let test_early_exit_loop () =
  check_all_archs "break in loop"
    (hot
       "function bench() { var a = [5, 3, 9, 1, 7, 2, 8]; var found = -1; for (var i = 0; i < \
        a.length; i++) { if (a[i] == 1) { found = i; break; } } return found; }")

let test_calls_in_loop () =
  check_all_archs "calls inside hot loop"
    (hot
       "function f(x) { return x * 2 + 1; } function bench() { var s = 0; for (var i = 0; i < \
        30; i++) { s += f(i); } return s; }")

let test_array_writes () =
  check_all_archs "array writes in loop"
    (hot
       "function bench() { var a = new Array(64); for (var i = 0; i < 64; i++) { a[i] = i * i; \
        } var s = 0; for (var j = 0; j < 64; j++) { s += a[j]; } return s; }")

(* --- speculation failure paths ------------------------------------- *)

let test_type_deopt_after_warmup () =
  (* hot() sees ints for 50 calls, then a double: the int speculation must
     deopt and still compute correctly. *)
  let src =
    "function f(x) { return x + 1; } var s = 0; for (var i = 0; i < 50; i++) { s = f(i); } \
     result = f(2.5);"
  in
  let expected = Helpers.run_result src in
  List.iter
    (fun arch ->
      let t = run_vm ~arch src in
      Alcotest.(check string) (Config.name arch) expected (result_of t))
    all_archs

let test_overflow_late () =
  (* Arithmetic overflows only after the loop is FTL-compiled; Base deopts,
     NoMap (SOF) aborts the transaction — both must produce the double
     result. *)
  let src =
    "function bench(start) { var x = start; for (var i = 0; i < 40; i++) { x = x + 1000; } \
     return x; } var r = 0; for (var it = 0; it < 60; it++) { r = bench(it); } result = \
     bench(2147483000);"
  in
  let expected = Helpers.run_result src in
  List.iter
    (fun arch ->
      let t = run_vm ~arch src in
      Alcotest.(check string) (Config.name arch) expected (result_of t))
    all_archs

let test_bounds_deopt () =
  (* After warmup with in-bounds accesses, go out of bounds: returns
     undefined via the generic path. *)
  let src =
    "function get(a, i) { return a[i]; } var arr = [1, 2, 3, 4]; var s = 0; for (var it = 0; \
     it < 60; it++) { s += get(arr, it % 4); } var x = get(arr, 77); result = (x == undefined) \
     ? 'undef' : x;"
  in
  let expected = Helpers.run_result src in
  List.iter
    (fun arch ->
      let t = run_vm ~arch src in
      Alcotest.(check string) (Config.name arch) expected (result_of t))
    all_archs

let test_shape_change_deopt () =
  let src =
    "function getx(o) { return o.x; } var a = { x: 7 }; var s = 0; for (var it = 0; it < 60; \
     it++) { s += getx(a); } var b = { y: 1, x: 42 }; result = getx(b);"
  in
  let expected = Helpers.run_result src in
  List.iter
    (fun arch ->
      let t = run_vm ~arch src in
      Alcotest.(check string) (Config.name arch) expected (result_of t))
    all_archs

(* --- paper-mechanism observability ---------------------------------- *)

let sum_kernel =
  hot
    "function bench() { var a = new Array(256); for (var i = 0; i < 256; i++) { a[i] = i; } \
     var obj = { sum: 0 }; obj.sum = 0; for (var j = 0; j < 256; j++) { obj.sum += a[j]; } \
     return obj.sum; }"

let test_nomap_reduces_instructions () =
  let base = run_vm ~arch:Config.Base sum_kernel in
  let nomap = run_vm ~arch:Config.NoMap_full sum_kernel in
  let bi = Counters.total_instrs (Vm.counters base) in
  let ni = Counters.total_instrs (Vm.counters nomap) in
  Alcotest.(check string) "same result" (result_of base) (result_of nomap);
  Alcotest.(check bool)
    (Printf.sprintf "NoMap (%d) < Base (%d)" ni bi)
    true (ni < bi)

let test_base_has_ghost_regions () =
  let t = run_vm ~arch:Config.Base sum_kernel in
  Alcotest.(check bool) "Base classifies TMOpt instructions" true
    ((Vm.counters t).Counters.instrs.(Counters.category_index Counters.Tm_opt) > 0)

let test_transactions_commit () =
  let t = run_vm ~arch:Config.NoMap_full sum_kernel in
  Alcotest.(check bool) "transactions committed" true ((Vm.counters t).Counters.tx_commits > 0);
  Alcotest.(check bool) "write footprint recorded" true
    (Counters.tx_write_kb_sum (Vm.counters t) > 0.0)

let test_checks_counted () =
  let t = run_vm ~arch:Config.Base sum_kernel in
  Alcotest.(check bool) "bounds checks executed" true
    ((Vm.counters t).Counters.checks.(Counters.check_index Nomap_lir.Lir.Bounds) > 0);
  Alcotest.(check bool) "overflow checks executed" true
    ((Vm.counters t).Counters.checks.(Counters.check_index Nomap_lir.Lir.Overflow) > 0)

let test_nomap_removes_bounds_checks () =
  let base = run_vm ~arch:Config.Base sum_kernel in
  let nomap_b = run_vm ~arch:Config.NoMap_B sum_kernel in
  let b = (Vm.counters base).Counters.checks.(Counters.check_index Nomap_lir.Lir.Bounds) in
  let n = (Vm.counters nomap_b).Counters.checks.(Counters.check_index Nomap_lir.Lir.Bounds) in
  Alcotest.(check bool) (Printf.sprintf "NoMap_B bounds (%d) << Base (%d)" n b) true
    (n * 4 < b)

let test_nomap_removes_overflow_checks () =
  let nomap_b = run_vm ~arch:Config.NoMap_B sum_kernel in
  let nomap = run_vm ~arch:Config.NoMap_full sum_kernel in
  let b = (Vm.counters nomap_b).Counters.checks.(Counters.check_index Nomap_lir.Lir.Overflow) in
  let n = (Vm.counters nomap).Counters.checks.(Counters.check_index Nomap_lir.Lir.Overflow) in
  Alcotest.(check bool) (Printf.sprintf "NoMap overflow (%d) << NoMap_B (%d)" n b) true
    (n * 4 < b)

let test_tier_caps_ordering () =
  (* Lower tier caps must charge more instructions. *)
  let src =
    hot
      "function bench() { var s = 0; for (var i = 0; i < 100; i++) { s = (s + i) % 100000; } \
       return s; }"
  in
  let run cap =
    let t = run_vm ~cap src in
    Counters.cycles (Vm.counters t)
  in
  let interp = run Vm.Cap_interp in
  let baseline = run Vm.Cap_baseline in
  let dfg = run Vm.Cap_dfg in
  let ftl = run Vm.Cap_ftl in
  Alcotest.(check bool) (Printf.sprintf "interp %.0f > baseline %.0f" interp baseline) true
    (interp > baseline);
  Alcotest.(check bool) (Printf.sprintf "baseline %.0f > dfg %.0f" baseline dfg) true
    (baseline > dfg);
  Alcotest.(check bool) (Printf.sprintf "dfg %.0f > ftl %.0f" dfg ftl) true (dfg > ftl)

let test_rare_deopts_in_steady_state () =
  (* Paper §III-A2: in steady state checks practically never fail. *)
  let t = run_vm ~arch:Config.Base sum_kernel in
  Alcotest.(check int) "no deopts in a type-stable kernel" 0 (Vm.counters t).Counters.deopts

(* Symbol and shape ids are host-side bookkeeping, but they must be
   deterministic — two VMs over the same program build identical shape
   universes (same interned-symbol count, same shape count, same heap
   checksum) — because shape ids reach Baseline's feedback and FTL's
   [Check_shape] guards, which every run must see the same. *)
let test_shape_universe_determinism () =
  let src =
    hot
      "function bench() { var o = { a: 1, b: 2 }; o.c = 3; o.d = 4; o.e = 5; var p = { b: 7, \
       a: 8 }; p.z = o.a + p.b; return o.c + p.z; }"
  in
  let t1 = run_vm src in
  let t2 = run_vm src in
  let u1 = (Vm.instance t1).Instance.heap.Heap.shapes in
  let u2 = (Vm.instance t2).Instance.heap.Heap.shapes in
  Alcotest.(check int) "same shape count" (Shape.universe_size u1) (Shape.universe_size u2);
  Alcotest.(check int) "same symbol count" (Shape.sym_count u1) (Shape.sym_count u2);
  Alcotest.(check bool) "universe is populated" true (Shape.universe_size u1 > 1);
  Alcotest.(check string) "same heap checksum"
    (Nomap_vm.Heap_checksum.checksum (Vm.instance t1))
    (Nomap_vm.Heap_checksum.checksum (Vm.instance t2))

(* A method call site that has seen a string receiver (an intrinsic
   [indexOf]) and an object receiver (a function property) then gets an
   array, which has no [indexOf]: every tier stops with the same "no
   method" error, after the loop left [result] at 96.  The program is the
   corpus's [method_mixed_receivers.js] plus that last call; the corpus
   cannot hold it, because a reference that stops with an error skips the
   case. *)
let test_no_method_error () =
  let src =
    In_channel.with_open_text (Filename.concat Helpers.corpus_dir "method_mixed_receivers.js")
      In_channel.input_all
    ^ "result = call([1, 2, 3]);\n"
  in
  let prog = Helpers.compile src in
  List.iter
    (fun tier_cap ->
      let name = Vm.cap_name tier_cap in
      let t = Vm.create ~fuel:fuel_budget ~config:(Config.create Config.Base) ~tier_cap prog in
      let outcome =
        match Vm.run_main t with
        | _ -> "no error"
        | exception Nomap_interp.Interp.Runtime_error m -> m
      in
      check_fuel name t;
      Alcotest.(check string) (name ^ ": error") "no method indexOf on array" outcome;
      Alcotest.(check string) (name ^ ": result") "96" (result_of t))
    [ Vm.Cap_interp; Vm.Cap_baseline; Vm.Cap_dfg; Vm.Cap_ftl ]

(* The Interpreter's charges, summed by hand from its cost table
   (dispatch 7 plus the op's work).  The program compiles to:
   - 8 straight-line ops: 7 moves of 9 and one Binop of 27 = 90;
   - the loop header (two moves, a Binop, a branch of 10 = 55), 5 times;
   - the body (six moves, two Binops, a jump = 118), 4 times;
   - the exit (two moves and a return of 12 = 30).
   The compiled engine charges each straight-line run once; the total and
   its milli-cycles at the NoFTL CPI of 1000 must not change, and neither
   must the fuel, one per op executed (8 + 4 x 5 + 9 x 4 + 3). *)
let test_exact_interpreter_charges () =
  let src = "var a = 3; var b = a * 2; var i = 0; while (i < 4) { b = b + i; i = i + 1; } result = b;" in
  let t = run_vm ~cap:Vm.Cap_interp src in
  let c = Vm.counters t in
  let expected = 90 + (5 * 55) + (4 * 118) + 30 in
  Alcotest.(check string) "result" "12" (result_of t);
  Alcotest.(check int) "NoFTL instructions" expected
    c.Counters.instrs.(Counters.category_index Counters.No_ftl);
  Alcotest.(check int) "milli-cycles" (expected * 1000) c.Counters.mcycles;
  Alcotest.(check int) "fuel" (8 + (4 * 5) + (9 * 4) + 3)
    (fuel_budget - (Vm.instance t).Instance.fuel)

(* A deopt from FTL code resumes Baseline code in mid-block: [f] is one
   block, trained on ints, and then multiplies a double.  The run must
   match the Interpreter's result and heap, and the resume must really
   have entered [f] past its first op without a block starting there. *)
let test_deopt_resumes_mid_block () =
  let src =
    "function f(x) { var y = x * 2; var z = y + 1; return z; } var s = 0; for (var i = 0; i <      50; i++) { s = s + f(i); } var d = f(2.5); result = s + d;"
  in
  let reference = run_vm ~cap:Vm.Cap_interp src in
  let t = run_vm ~cap:Vm.Cap_ftl src in
  Alcotest.(check string) "result" (result_of reference) (result_of t);
  Alcotest.(check string) "heap"
    (Nomap_vm.Heap_checksum.checksum (Vm.instance reference))
    (Nomap_vm.Heap_checksum.checksum (Vm.instance t));
  Alcotest.(check bool) "deopted" true ((Vm.counters t).Counters.deopts > 0);
  let fid =
    (Option.get (Nomap_bytecode.Opcode.func_by_name (Vm.instance t).Instance.prog "f"))
      .Nomap_bytecode.Opcode.fid
  in
  let entries =
    Nomap_interp.Interp.entered_at (Vm.instance t) ~fid Nomap_interp.Interp.Baseline_tier
  in
  Alcotest.(check bool)
    (Printf.sprintf "entered mid-block (entries: %s)"
       (String.concat ", " (List.map (fun (pc, b) -> Printf.sprintf "%d%s" pc (if b then "*" else "")) entries)))
    true
    (List.exists (fun (_, block_start) -> not block_start) entries)

(* ------------------------------------------------------------------ *)
(* One array-length rule at every tier *)

let mk_kernel =
  "function mk(n) { var a = new Array(n); return a.length; } for (var it = 0; it < 30; it++) \
   { mk(3); }"

(* [fn (n)]'s result, or the message of the runtime error it raises. *)
let outcome t fn n =
  match Vm.call_function t fn [ Value.Int n ] with
  | v -> Value.to_js_string v
  | exception Nomap_interp.Interp.Runtime_error m -> m

let test_array_length_rule () =
  List.iter
    (fun cap ->
      List.iter
        (fun arch ->
          let t = run_vm ~arch ~cap mk_kernel in
          let label s = Printf.sprintf "%s at %s under %s" s (Vm.cap_name cap) (Config.name arch) in
          Alcotest.(check string) (label "mk(5)") "5" (outcome t "mk" 5);
          Alcotest.(check string) (label "mk(-1)") Heap.bad_array_length (outcome t "mk" (-1));
          Alcotest.(check string) (label "mk(2^24 + 1)") Heap.bad_array_length
            (outcome t "mk" 16777217);
          if cap = Vm.Cap_ftl then
            Alcotest.(check bool) (label "FTL ran") true ((Vm.counters t).Counters.ftl_calls > 0))
        [ Config.Base; Config.NoMap_full ])
    [ Vm.Cap_interp; Vm.Cap_baseline; Vm.Cap_dfg; Vm.Cap_ftl ]

(* Inside a transaction a bad length may be garbage from a doomed region,
   so FTL code aborts instead of raising, with a reason that leaves the
   placement alone; Baseline re-executes the region and raises. *)
let test_array_length_in_tx () =
  let src =
    "function fill(n) { var s = 0; for (var i = 0; i < 4; i++) { var a = new Array(n - i); \
     s = s + a.length; } return s; } for (var it = 0; it < 30; it++) { fill(10); }"
  in
  let t = run_vm ~arch:Config.NoMap_full src in
  Alcotest.(check string) "fill(2)" Heap.bad_array_length (outcome t "fill" 2);
  let c = Vm.counters t in
  Alcotest.(check int) "one irrevocable abort" 1 (Counters.abort_count c Nomap_htm.Htm.Irrevocable);
  Alcotest.(check int) "aborts" 1 c.Counters.tx_aborts;
  Alcotest.(check int) "no demotion" 0 (Vm.tx_demotions t);
  Alcotest.(check string) "fill(10) still runs" "34" (outcome t "fill" 10)

(* An array over 256 slots made from a young initial element forces a
   minor collection ([caml_make_vect]), which in OCaml 5 stops every
   domain.  fannkuchredux's [benchmark] has 273 ops, so creating its
   instance and profile, its first Interpreter call and an FTL compile of
   it (289 LIR instructions) each build such arrays.  The window allocates
   about 86K words, a third of the 256K-word default minor heap, so any
   collection in it was forced. *)
let test_no_forced_minor_collection () =
  let module R = Nomap_workloads.Registry in
  let module O = Nomap_bytecode.Opcode in
  let module F = Nomap_profile.Feedback in
  let module I = Nomap_interp.Interp in
  let prog = R.compile (Option.get (R.by_name "fannkuchredux")) in
  let bench = Option.get (O.func_by_name prog "benchmark") in
  Alcotest.(check bool) "benchmark has over 256 ops" true (Array.length bench.O.code > 256);
  let collections () = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  let before = collections () and words0 = Gc.minor_words () in
  let inst = Instance.create ~fuel:fuel_budget prog in
  let profile = F.create prog in
  let rec env =
    {
      I.instance = inst;
      mode = I.Interp_tier;
      profile = None;
      charge = ignore;
      call = (fun ~fid ~this ~args -> I.call_function env ~fid ~this ~args);
    }
  in
  ignore (I.call_function env ~fid:prog.O.main_fid ~this:Value.Undef ~args:[]);
  ignore (I.call_function env ~fid:bench.O.fid ~this:Value.Undef ~args:[]);
  let fp = F.func_profile profile bench.O.fid in
  let c =
    Nomap_tiers.Specialize.compile ~bc:bench ~consts:inst.Instance.consts.(bench.O.fid) ~profile:fp
  in
  ignore
    (Nomap_nomap.Transform.apply (Config.create Config.NoMap_full)
       ~placement:Nomap_nomap.Txplace.Auto ~profile:fp c);
  ignore (Nomap_opt.Pipeline.ftl c.Nomap_tiers.Specialize.lir);
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check int) "no minor collection" before (collections ());
  Alcotest.(check bool) "the LIR passes 256 instructions" true
    (Nomap_util.Vec.length c.Nomap_tiers.Specialize.lir.Nomap_lir.Lir.instrs > 256);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words fit the minor heap" words)
    true
    (words < float_of_int (Gc.get ()).Gc.minor_heap_size /. 2.)

let tests =
  [
    Alcotest.test_case "sum loop, all archs" `Quick test_sum_loop;
    Alcotest.test_case "object accumulator, all archs" `Quick test_accumulator_object;
    Alcotest.test_case "nested loops, all archs" `Quick test_nested_loops;
    Alcotest.test_case "double math, all archs" `Quick test_double_math;
    Alcotest.test_case "string kernel, all archs" `Quick test_string_kernel;
    Alcotest.test_case "constructors, all archs" `Quick test_constructor_kernel;
    Alcotest.test_case "break in loop, all archs" `Quick test_early_exit_loop;
    Alcotest.test_case "calls in loop, all archs" `Quick test_calls_in_loop;
    Alcotest.test_case "array writes, all archs" `Quick test_array_writes;
    Alcotest.test_case "type deopt after warmup" `Quick test_type_deopt_after_warmup;
    Alcotest.test_case "late overflow" `Quick test_overflow_late;
    Alcotest.test_case "bounds deopt" `Quick test_bounds_deopt;
    Alcotest.test_case "shape change deopt" `Quick test_shape_change_deopt;
    Alcotest.test_case "NoMap reduces instructions" `Quick test_nomap_reduces_instructions;
    Alcotest.test_case "Base ghost regions" `Quick test_base_has_ghost_regions;
    Alcotest.test_case "transactions commit" `Quick test_transactions_commit;
    Alcotest.test_case "checks counted" `Quick test_checks_counted;
    Alcotest.test_case "NoMap_B removes bounds checks" `Quick test_nomap_removes_bounds_checks;
    Alcotest.test_case "NoMap removes overflow checks" `Quick test_nomap_removes_overflow_checks;
    Alcotest.test_case "tier cap ordering" `Quick test_tier_caps_ordering;
    Alcotest.test_case "rare deopts in steady state" `Quick test_rare_deopts_in_steady_state;
    Alcotest.test_case "shape universe determinism" `Quick test_shape_universe_determinism;
    Alcotest.test_case "method site: no method error at every tier" `Quick
      test_no_method_error;
    Alcotest.test_case "exact Interpreter charges" `Quick test_exact_interpreter_charges;
    Alcotest.test_case "deopt resumes mid-block" `Quick test_deopt_resumes_mid_block;
    Alcotest.test_case "array length: one rule at every tier" `Quick test_array_length_rule;
    Alcotest.test_case "array length: a transaction aborts, not demotes" `Quick
      test_array_length_in_tx;
    Alcotest.test_case "no forced minor collection" `Quick test_no_forced_minor_collection;
  ]
