(** Semantics tests for the bytecode engine, run in both Interpreter and
    Baseline modes (they must agree — only cost/profiling differ). *)

let check_result ?(name = "result") src expected =
  ignore name;
  Alcotest.(check string) "interp" expected (Helpers.run_result ~mode:Nomap_interp.Interp.Interp_tier src);
  Alcotest.(check string) "baseline" expected
    (Helpers.run_result ~mode:Nomap_interp.Interp.Baseline_tier src)

let test_arithmetic () =
  check_result "result = 1 + 2 * 3 - 4 / 8;" "6.5";
  check_result "result = (1 + 2) * 3;" "9";
  check_result "result = 7 % 3;" "1";
  check_result "result = -5 + +3;" "-2"

let test_string_ops () =
  check_result "result = 'a' + 'b' + 1;" "ab1";
  check_result "result = 1 + 2 + 'x';" "3x";
  check_result "result = 'abc'.length;" "3";
  check_result "result = 'abc'.charCodeAt(1);" "98";
  check_result "var s = 'hello world'; result = s.indexOf('world');" "6"

let test_comparisons_and_logic () =
  check_result "result = 1 < 2 && 2 < 3;" "true";
  check_result "result = 1 > 2 || 3 > 2;" "true";
  check_result "result = 'b' > 'a';" "true";
  check_result "result = (0 || 'x');" "x";
  check_result "result = (5 && 7);" "7";
  check_result "result = !0;" "true"

let test_control_flow () =
  check_result "var s = 0; for (var i = 0; i < 10; i++) { s += i; } result = s;" "45";
  check_result "var s = 0; var i = 0; while (i < 5) { s += 2; i++; } result = s;" "10";
  check_result "var s = 0; var i = 0; do { s++; i++; } while (i < 3); result = s;" "3";
  check_result
    "var s = 0; for (var i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } if (i > 6) { break; \
     } s += i; } result = s;"
    "9";
  check_result "result = 3 > 2 ? 'yes' : 'no';" "yes"

let test_functions () =
  check_result "function add(a, b) { return a + b; } result = add(2, 3);" "5";
  check_result
    "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } result = \
     fib(12);"
    "144";
  check_result "function f() { return; } result = f();" "undefined";
  check_result "function f(a, b) { return a; } result = f(9);" "9"

let test_objects () =
  check_result "var o = { x: 1, y: 2 }; result = o.x + o.y;" "3";
  check_result "var o = {}; o.a = 10; o.a = 20; result = o.a;" "20";
  check_result "var o = {}; result = o.missing;" "undefined";
  check_result
    "function Point(x, y) { this.x = x; this.y = y; } var p = new Point(3, 4); result = \
     Math.sqrt(p.x * p.x + p.y * p.y);"
    "5"

let test_methods_on_objects () =
  check_result
    "function dbl(x) { return x * 2; } var o = { f: dbl }; result = o.f(21);" "42"

let test_arrays () =
  check_result "var a = [1, 2, 3]; result = a[0] + a[1] + a[2];" "6";
  check_result "var a = []; a[4] = 9; result = a.length;" "5";
  check_result "var a = [1]; result = a[7];" "undefined";
  check_result "var a = new Array(3); a[0] = 5; result = a.length;" "3";
  check_result "var a = []; a.push(1); a.push(2); result = a.pop() + a.length;" "3";
  check_result "var a = ['x', 'y']; result = a.join('-');" "x-y"

(* The AST interpreter's [result] after running [src]. *)
let ast_result src =
  let module A = Nomap_interp.Ast_interp in
  let ast = Nomap_jsir.Parser.parse_program_exn ~name:"test" src in
  let env = A.create ~flavour:A.Php_like ~charge:ignore ast in
  A.run_program env ast;
  Nomap_runtime.Value.to_js_string
    (Option.value ~default:Nomap_runtime.Value.Undef (Hashtbl.find_opt env.A.globals "result"))

(* Indices that are not exactly an int32: an array reads undefined and
   drops the write, and a string raises.  The AST interpreter must agree
   with both bytecode modes. *)
let test_non_integral_index () =
  List.iter
    (fun (src, expected) ->
      check_result src expected;
      Alcotest.(check string) "ast interp" expected (ast_result src))
    [
      ( "var a = [7, 8, 9]; result = a[1.5] + ',' + a['x'] + ',' + a['1'];",
        "undefined,undefined,8" );
      ( "var a = [7, 8, 9]; a[1.5] = 5; a['x'] = 6; result = a[0] + ',' + a[1] + ',' + a.length;",
        "7,8,3" );
    ];
  let src = "var s = 'abc'; result = s[1]; result = s[1.5];" in
  let raises run =
    match run src with
    | _ -> "no error"
    | exception Nomap_interp.Interp.Runtime_error m -> m
    | exception Nomap_interp.Ast_interp.Runtime_error m -> m
  in
  List.iter
    (fun (name, run) -> Alcotest.(check string) name "cannot index string" (raises run))
    [
      ("interp", fun src -> Helpers.run_result ~mode:Nomap_interp.Interp.Interp_tier src);
      ("baseline", fun src -> Helpers.run_result ~mode:Nomap_interp.Interp.Baseline_tier src);
      ("ast interp", ast_result);
    ]

(* Calling a property that holds a string raises, at every tier and in
   the AST interpreter alike. *)
let test_call_non_function_property () =
  let src = "function dbl(x) { return x * 2; } var o = { f: 'dbl' }; result = o.f(21);" in
  List.iter
    (fun (name, run) ->
      Alcotest.(check string) name "f is not a function (string)"
        (match run src with
        | _ -> "no error"
        | exception Nomap_interp.Interp.Runtime_error m -> m
        | exception Nomap_interp.Ast_interp.Runtime_error m -> m))
    [
      ("interp", fun src -> Helpers.run_result ~mode:Nomap_interp.Interp.Interp_tier src);
      ("baseline", fun src -> Helpers.run_result ~mode:Nomap_interp.Interp.Baseline_tier src);
      ("ast interp", ast_result);
    ]

let test_int_overflow_semantics () =
  check_result "result = 2147483647 + 1;" "2147483648";
  check_result "var x = 2147483647; x += 2; result = x;" "2147483649";
  check_result "result = (2147483647 + 1) | 0;" "-2147483648"

let test_bitops () =
  check_result "result = (0xF0 & 0xFF) >>> 4;" "15";
  check_result "result = 1 << 31;" "-2147483648";
  check_result "result = -8 >> 1;" "-4";
  check_result "result = -8 >>> 28;" "15";
  check_result "result = ~0;" "-1"

let test_incr_decr () =
  check_result "var i = 5; result = i++ + i;" "11";
  check_result "var i = 5; result = ++i + i;" "12";
  check_result "var a = [3]; a[0]++; result = a[0];" "4";
  check_result "var o = { n: 1 }; o.n += 4; result = o.n;" "5"

let test_globals_shared_across_functions () =
  check_result
    "var total = 0; function bump(x) { total += x; return total; } bump(1); bump(2); result = \
     total;"
    "3"

let test_math_intrinsics () =
  check_result "result = Math.max(1, 9, 4);" "9";
  check_result "result = Math.floor(2.7) + Math.ceil(2.1);" "5";
  check_result "result = Math.abs(-4.5);" "4.5";
  check_result "result = Math.pow(3, 4);" "81";
  check_result "result = Math.round(2.5);" "3"

let test_nan_propagation () =
  check_result "result = 0 / 0;" "NaN";
  check_result "result = isNaN(0 / 0);" "true";
  check_result "var x = 0 / 0; result = x == x;" "false"

let test_baseline_profile_collected () =
  let src =
    "function hot(a) { var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } return s; } \
     var arr = [1, 2, 3, 4]; var r = 0; for (var k = 0; k < 20; k++) { r = hot(arr); } result = \
     r;"
  in
  let _, _, profile = Helpers.run_program ~mode:Nomap_interp.Interp.Baseline_tier src in
  match profile with
  | None -> Alcotest.fail "baseline must profile"
  | Some p ->
    let fp = Nomap_profile.Feedback.func_profile p 0 in
    Alcotest.(check int) "hot called 20x" 20 fp.Nomap_profile.Feedback.call_count;
    (* The loop in `hot` should have recorded ~4 iterations per entry. *)
    let prog = Helpers.compile src in
    let f = prog.Nomap_bytecode.Opcode.funcs.(0) in
    (match f.Nomap_bytecode.Opcode.loop_headers with
    | [ header ] ->
      let avg = Nomap_profile.Feedback.avg_trip_count fp header in
      Alcotest.(check bool) "avg trip count near 4" true (avg > 3.0 && avg < 5.1)
    | _ -> Alcotest.fail "expected one loop")

let test_interp_cheaper_than_baseline_is_false () =
  (* Baseline should charge fewer instructions than the interpreter. *)
  let src = "var s = 0; for (var i = 0; i < 1000; i++) { s += i; } result = s;" in
  let _, interp_cost, _ = Helpers.run_program ~mode:Nomap_interp.Interp.Interp_tier src in
  let _, baseline_cost, _ = Helpers.run_program ~mode:Nomap_interp.Interp.Baseline_tier src in
  Alcotest.(check bool)
    (Printf.sprintf "baseline (%d) < interp (%d)" baseline_cost interp_cost)
    true
    (baseline_cost < interp_cost)

let test_fuel_guard () =
  Alcotest.(check bool) "runaway loop trips fuel" true
    (try
       ignore (Helpers.run_result ~fuel:10_000 "while (true) { }");
       false
     with Nomap_interp.Instance.Out_of_fuel -> true)

let test_runtime_error () =
  Alcotest.(check bool) "calling a number fails" true
    (try
       ignore (Helpers.run_result "var o = { f: 3 }; o.f(1);");
       false
     with Nomap_interp.Interp.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* The compiled engine's own contract: tail calls, batched fuel, charge
   order around hooks, profiling edges. *)

let both_modes = Nomap_interp.Interp.[ ("interp", Interp_tier); ("baseline", Baseline_tier) ]

(* Every transfer in the closure chain is a tail call: a million-iteration
   loop runs in a 64K-word stack, where a frame per executed op or block
   would overflow it. *)
let test_loop_runs_in_constant_stack () =
  let src = "var s = 0; for (var i = 0; i < 1000000; i++) { s = s + 1; } result = s;" in
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.stack_limit = 65_536 };
      List.iter
        (fun (name, mode) ->
          Alcotest.(check string) name "1000000" (Helpers.run_result ~mode src))
        both_modes)

(* Pure ops burn their fuel at the next settle point, and every op that can
   raise burns its own fuel and the pending fuel first: below the fuel the
   program burns through its faulting op it runs out of fuel, from there on
   it raises the op's own error, in both modes and at every budget. *)
let test_crash_identity_at_every_fuel () =
  let src = "var x = 1; var y = x; var o = 2; o.p = 3; var z = 4; var w = 5;" in
  let prog = Helpers.compile src in
  let main = prog.Nomap_bytecode.Opcode.funcs.(prog.Nomap_bytecode.Opcode.main_fid) in
  let faulting =
    let rec find pc =
      match main.Nomap_bytecode.Opcode.code.(pc) with
      | Nomap_bytecode.Opcode.Set_prop _ -> pc
      | _ -> find (pc + 1)
    in
    find 0
  in
  (* Straight-line code: the ops through the faulting one each burn one. *)
  let burned = faulting + 1 in
  List.iter
    (fun (name, mode) ->
      for fuel = 0 to burned + 3 do
        let outcome =
          match Helpers.run_program ~mode ~fuel src with
          | _ -> "completed"
          | exception Nomap_interp.Instance.Out_of_fuel -> "out of fuel"
          | exception Nomap_interp.Interp.Runtime_error _ -> "runtime error"
        in
        Alcotest.(check string)
          (Printf.sprintf "%s, fuel %d" name fuel)
          (if fuel < burned then "out of fuel" else "runtime error")
          outcome
      done)
    both_modes

(* [Get_elem] fires its element loads before its own charge, so the pure
   ops before it must be charged before those hooks run: a hook that
   raises there finds every earlier op charged and the element read not. *)
let test_settle_before_get_elem_hooks () =
  let src = "var a = new Array(2); var x = 1; var y = x; result = a[0];" in
  let prog = Helpers.compile src in
  let main = prog.Nomap_bytecode.Opcode.funcs.(prog.Nomap_bytecode.Opcode.main_fid) in
  let code = main.Nomap_bytecode.Opcode.code in
  let rec get_elem pc =
    match code.(pc) with Nomap_bytecode.Opcode.Get_elem _ -> pc | _ -> get_elem (pc + 1)
  in
  let before = Array.sub code 0 (get_elem 0) in
  let expected = Array.fold_left (fun n op -> n + Nomap_interp.Interp.interp_cost op) 0 before in
  let inst = Nomap_interp.Instance.create prog in
  let hooks = inst.Nomap_interp.Instance.heap.Nomap_runtime.Heap.hooks in
  hooks.Nomap_runtime.Heap.active <- true;
  hooks.Nomap_runtime.Heap.load <- (fun _ _ -> raise Exit);
  let charged = ref 0 in
  let rec env =
    {
      Nomap_interp.Interp.instance = inst;
      mode = Nomap_interp.Interp.Interp_tier;
      profile = None;
      charge = (fun n -> charged := !charged + n);
      call = (fun ~fid ~this ~args -> Nomap_interp.Interp.call_function env ~fid ~this ~args);
    }
  in
  (match
     Nomap_interp.Interp.call_function env ~fid:prog.Nomap_bytecode.Opcode.main_fid
       ~this:Nomap_runtime.Value.Undef ~args:[]
   with
  | _ -> Alcotest.fail "the load hook must fire"
  | exception Exit -> ());
  Alcotest.(check int) "charged through the op before Get_elem" expected !charged

(* Baseline's loop counters, by hand.  [g]'s first loop heads pc 0, so
   function entry enters it; the second is entered by the then-branch's
   jump over the else-branch and by the else-branch falling through; the
   nested third is entered by falling through from [j = 0]. *)
let test_loop_counts () =
  let src =
    "function g(n, c) { while (n > 0) { n = n - 1; } var i = 0; if (c) { i = 1; } else { i =      0; } while (i < 3) { var j = 0; while (j < 2) { j = j + 1; } i = i + 1; } return i; }      result = g(2, true) + g(1, false);"
  in
  let _, _, profile = Helpers.run_program ~mode:Nomap_interp.Interp.Baseline_tier src in
  let fp = Nomap_profile.Feedback.func_profile (Option.get profile) 0 in
  let f = (Helpers.compile src).Nomap_bytecode.Opcode.funcs.(0) in
  let counts h =
    (fp.Nomap_profile.Feedback.loop_entries.(h), fp.Nomap_profile.Feedback.loop_iters.(h))
  in
  Alcotest.(check (list (pair int int)))
    "(entries, iterations) per loop"
    [
      (* n = 2, then n = 1: one entry per call, 2 + 1 back edges *)
      (2, 3);
      (* i starts at 1 (jump), then at 0 (fall-through): 2 + 3 back edges *)
      (2, 5);
      (* one entry per outer iteration (5), two back edges each *)
      (5, 10);
    ]
    (List.map counts f.Nomap_bytecode.Opcode.loop_headers)

(* Differential property test: random arithmetic expressions evaluate the
   same under interpreter and baseline. *)
let gen_expr =
  let open QCheck2.Gen in
  sized
    (fix (fun self n ->
         if n <= 0 then map string_of_int (int_range (-100) 100)
         else
           oneof
             [
               map string_of_int (int_range (-100) 100);
               map2 (Printf.sprintf "(%s + %s)") (self (n / 2)) (self (n / 2));
               map2 (Printf.sprintf "(%s - %s)") (self (n / 2)) (self (n / 2));
               map2 (Printf.sprintf "(%s * %s)") (self (n / 2)) (self (n / 2));
               map2 (Printf.sprintf "(%s | %s)") (self (n / 2)) (self (n / 2));
               map2 (Printf.sprintf "(%s & %s)") (self (n / 2)) (self (n / 2));
               map2 (Printf.sprintf "(%s ^ %s)") (self (n / 2)) (self (n / 2));
             ]))

let qcheck_interp_baseline_agree =
  QCheck2.Test.make ~name:"interp and baseline agree on expressions" ~count:200 gen_expr
    (fun e ->
      let src = Printf.sprintf "result = %s;" e in
      Helpers.run_result ~mode:Nomap_interp.Interp.Interp_tier src
      = Helpers.run_result ~mode:Nomap_interp.Interp.Baseline_tier src)

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "string ops" `Quick test_string_ops;
    Alcotest.test_case "comparisons and logic" `Quick test_comparisons_and_logic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "objects" `Quick test_objects;
    Alcotest.test_case "object methods" `Quick test_methods_on_objects;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "non-integral index" `Quick test_non_integral_index;
    Alcotest.test_case "int overflow semantics" `Quick test_int_overflow_semantics;
    Alcotest.test_case "bitops" `Quick test_bitops;
    Alcotest.test_case "incr/decr" `Quick test_incr_decr;
    Alcotest.test_case "globals shared" `Quick test_globals_shared_across_functions;
    Alcotest.test_case "math intrinsics" `Quick test_math_intrinsics;
    Alcotest.test_case "NaN propagation" `Quick test_nan_propagation;
    Alcotest.test_case "baseline profiles" `Quick test_baseline_profile_collected;
    Alcotest.test_case "baseline cheaper than interp" `Quick test_interp_cheaper_than_baseline_is_false;
    Alcotest.test_case "fuel guard" `Quick test_fuel_guard;
    Alcotest.test_case "runtime error" `Quick test_runtime_error;
    Alcotest.test_case "loop runs in constant stack" `Quick test_loop_runs_in_constant_stack;
    Alcotest.test_case "crash identity at every fuel" `Quick test_crash_identity_at_every_fuel;
    Alcotest.test_case "settle before Get_elem hooks" `Quick test_settle_before_get_elem_hooks;
    Alcotest.test_case "loop counts" `Quick test_loop_counts;
    QCheck_alcotest.to_alcotest qcheck_interp_baseline_agree;
    Alcotest.test_case "calling a string property" `Quick test_call_non_function_property;
  ]
