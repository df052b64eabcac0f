(** Differential fuzzing: generate random MiniJS programs with loops,
    arrays, objects and arithmetic; every architecture at full tier must
    compute exactly what the reference interpreter computes.

    This is the strongest correctness property in the suite: it exercises
    speculation, OSR exits, transactional rollback, bounds combining, SOF
    and the whole optimizer pipeline against randomly-shaped programs. *)

module Config = Nomap_nomap.Config
module Vm = Nomap_vm.Vm
module Value = Nomap_runtime.Value
module Gen = QCheck2.Gen

(* --- a tiny MiniJS program generator --------------------------------- *)

(* Expressions over: loop vars i/j, accumulator s, array a (length 10),
   object o with fields x/y, small constants. *)
let gen_leaf =
  Gen.oneof
    [
      Gen.map string_of_int (Gen.int_range (-20) 20);
      Gen.return "i";
      Gen.return "s";
      Gen.return "o.x";
      Gen.return "o.y";
      Gen.return "a[i % 10]";
      Gen.return "a[(i + 3) % 10]";
      Gen.return "1.5";
      Gen.return "0.25";
    ]

(* Depth is bounded explicitly: QCheck's default size ramps to ~100, and a
   100-node expression makes each whole-VM property call take seconds. *)
let gen_expr =
  Gen.bind (Gen.int_range 2 24)
    (Gen.fix (fun self n ->
         if n <= 0 then gen_leaf
         else
           Gen.oneof
             [
               gen_leaf;
               Gen.map2 (Printf.sprintf "(%s + %s)") (self (n / 2)) (self (n / 2));
               Gen.map2 (Printf.sprintf "(%s - %s)") (self (n / 2)) (self (n / 2));
               Gen.map2 (Printf.sprintf "(%s * %s)") (self (n / 2)) (self (n / 2));
               Gen.map2 (Printf.sprintf "(%s & %s)") (self (n / 2)) (self (n / 2));
               Gen.map2 (Printf.sprintf "(%s | %s)") (self (n / 2)) (self (n / 2));
               Gen.map2 (Printf.sprintf "(%s ^ %s)") (self (n / 2)) (self (n / 2));
               Gen.map (Printf.sprintf "Math.floor(%s)") (self (n - 1));
               Gen.map (Printf.sprintf "Math.abs(%s)") (self (n - 1));
               Gen.map2
                 (fun c e -> Printf.sprintf "((%s > 0) ? %s : (0 - %s))" c e e)
                 (self (n / 2)) (self (n / 2));
             ]))

(* Statements inside the hot loop. *)
let gen_stmt =
  Gen.oneof
    [
      Gen.map (Printf.sprintf "s = (s + %s) & 0xFFFFF;") gen_expr;
      Gen.map (Printf.sprintf "s += %s;") gen_expr;
      Gen.map (Printf.sprintf "a[i %% 10] = %s;") gen_expr;
      Gen.map (Printf.sprintf "o.x = %s;") gen_expr;
      Gen.map (Printf.sprintf "o.y = o.y + %s;") gen_expr;
      Gen.map (Printf.sprintf "if (s > 1000) { s = s - %s; }") gen_expr;
      Gen.map (Printf.sprintf "if ((i & 3) == 0) { continue; } s += %s;") gen_expr;
    ]

let gen_program_shrinkable =
  let open Gen in
  let* nstmts = int_range 1 4 in
  let* stmts = list_size (return nstmts) gen_stmt in
  let* trip = int_range 5 25 in
  let body = String.concat "\n    " stmts in
  return
    (Printf.sprintf
       {|
function bench() {
  var a = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3];
  var o = { x: 2, y: 7 };
  var s = 0;
  for (var i = 0; i < %d; i++) {
    %s
  }
  return s + o.x + o.y + a[0] + a[9];
}
var it;
var result = 0;
for (it = 0; it < 45; it++) { result = bench(); }
|}
       trip body)

(* Shrinking re-runs the (expensive, whole-VM) property thousands of times
   and the generated programs are small anyway: report failures as-is. *)
let gen_program = Gen.no_shrink gen_program_shrinkable

(* --- the differential property --------------------------------------- *)

(* Fuel for every VM and reference run of the property (see
   [Helpers.check_fuel]).  Its programs are random per run: the heaviest of
   4,000 sampled burns 307K, on the reference interpreter; the budget is
   about 6x that. *)
let fuel_budget = 2_000_000

let run_arch src arch =
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm =
    Vm.create ~fuel:fuel_budget ~verify:true ~config:(Config.create arch)
      ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  Helpers.check_fuel ~budget:fuel_budget ("program under " ^ Config.name arch) (Vm.instance vm);
  match Vm.global vm "result" with Some v -> Value.to_js_string v | None -> "?"

let reference src =
  let inst, _, _ = Helpers.run_program ~fuel:fuel_budget src in
  Helpers.check_fuel ~budget:fuel_budget "reference" inst;
  Value.to_js_string (Helpers.global_value inst "result")

let agree_under archs =
  Gen.map (fun src -> (src, ())) gen_program |> ignore;
  QCheck2.Test.make ~count:50
    ~name:
      (Printf.sprintf "random programs agree: interpreter vs %s"
         (String.concat "," (List.map Config.name archs)))
    gen_program
    (fun src ->
      let expected = reference src in
      List.for_all
        (fun arch ->
          let got = run_arch src arch in
          if got <> expected then
            QCheck2.Test.fail_reportf "under %s:\n%s\nexpected %s, got %s" (Config.name arch)
              src expected got
          else true)
        archs)

(* --- the structured fuzzer (lib/fuzz) -------------------------------- *)

module FGen = Nomap_fuzz.Gen
module Oracle = Nomap_fuzz.Oracle
module Shrink = Nomap_fuzz.Shrink
module Fuzz = Nomap_fuzz.Fuzz

let test_gen_deterministic () =
  let a = FGen.to_source (FGen.program_of_seed ~seed:12345) in
  let b = FGen.to_source (FGen.program_of_seed ~seed:12345) in
  Alcotest.(check string) "same seed, same program" a b;
  let c = FGen.to_source (FGen.program_of_seed ~seed:54321) in
  Alcotest.(check bool) "different seed, different program" true (a <> c)

let test_gen_roundtrips () =
  (* Printed programs must survive the real lexer/parser: the corpus is
     stored as source and the oracle compiles from source.  One parse
     normalizes literals (a printed [-3] reparses as unary minus), so the
     property is idempotence from the first reparse onward. *)
  for seed = 0 to 19 do
    let src = FGen.to_source (FGen.program_of_seed ~seed) in
    let name = string_of_int seed in
    let src1 = FGen.to_source (Nomap_jsir.Parser.parse_program_exn ~name src) in
    let src2 = FGen.to_source (Nomap_jsir.Parser.parse_program_exn ~name src1) in
    Alcotest.(check string) (Printf.sprintf "seed %d round-trips" seed) src1 src2
  done

let test_fixed_seed_batch_agrees () =
  let s = Fuzz.run ~shrink:false ~seed:42 ~iters:8 () in
  List.iter (fun f -> Alcotest.fail (Fuzz.failure_to_string f)) s.Fuzz.failures;
  Alcotest.(check int) "all tested" 8 s.Fuzz.tested

let test_corpus_agrees () =
  let files = Sys.readdir Helpers.corpus_dir in
  Array.sort compare files;
  let checked = ref 0 in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".js" then begin
        let src =
          In_channel.with_open_text (Filename.concat Helpers.corpus_dir file) In_channel.input_all
        in
        let prog = Nomap_jsir.Parser.parse_program_exn ~name:file src in
        (match Oracle.check prog with
        | Oracle.Agree -> ()
        | Oracle.Skip msg -> Alcotest.fail (file ^ ": reference failed: " ^ msg)
        | Oracle.Diverge ds ->
          Alcotest.fail
            (file ^ " diverged:\n" ^ String.concat "\n" (List.map Oracle.divergence_to_string ds)));
        incr checked
      end)
    files;
  Alcotest.(check bool) "corpus nonempty" true (!checked >= 8)

let test_sabotage_caught_and_shrunk () =
  (* The acceptance criterion: inject a miscompile (swapped subtraction
     operands in FTL code), prove the oracle catches it and the shrinker
     reduces it to a tiny kernel. *)
  (* 1000 checks and a 30-node bound: the generator's global scalar
     ([gs]) changed seed 42's programs, and its first sabotaged case now
     shrinks to a 26-node fixpoint, reached at 1000 checks (500 stop at
     48; 2000 and 4000 stay at 26).  The old generator's case reached a
     14-node fixpoint at 400 checks, under a 20-node bound. *)
  let s =
    Fuzz.run ~ftl_mutate:Fuzz.sabotage_swap_sub ~shrink:true ~shrink_checks:1000 ~seed:42
      ~iters:2 ()
  in
  match s.Fuzz.failures with
  | [] -> Alcotest.fail "sabotaged FTL was not caught by the differential oracle"
  | f :: _ -> (
    match f.Fuzz.shrunk with
    | None -> Alcotest.fail "divergence was not shrunk"
    | Some p ->
      Alcotest.(check bool)
        (Printf.sprintf "shrunk kernel small (%d nodes)" (Shrink.kernel_size p))
        true
        (Shrink.kernel_size p <= 30);
      (* The reproducer must still diverge under the sabotage. *)
      (match Oracle.check ~ftl_mutate:Fuzz.sabotage_swap_sub p with
      | Oracle.Diverge _ -> ()
      | _ -> Alcotest.fail "shrunk program no longer reproduces the divergence"))

(* Shapes where [Ast_interp] used to part from the reference: it numbers
   functions as [Compile] does, by declaration index, so a function value
   stored in a global or a property compares, hashes and calls as in the
   bytecode tiers; and an assignment evaluates its target's base and index
   before the value, so a value that writes the index variable (here a
   helper storing the global [gs]) does not move the store. *)
let test_ast_agrees () =
  List.iter
    (fun src ->
      let globals = (Nomap_bytecode.Compile.compile_source src).Nomap_bytecode.Opcode.globals in
      let expected = Oracle.run_cfg ~src Oracle.reference in
      match Oracle.run_ast ~src globals with
      | None -> Alcotest.fail (src ^ ": Ast_interp ran out of fuel")
      | Some got ->
        Alcotest.(check string) src
          (Oracle.observation_to_string expected)
          (Oracle.observation_to_string got))
    [
      "function a() { return 1; } function b() { return 2; } var g = b; result = g == b;";
      "function a() { return 1; } function b() { return 2; } var g = b; result = a == b;";
      "function dbl(x) { return x * 2; } function inc(x) { return x + 1; } var o = { f: dbl, \
       g: inc }; result = o.f(21) + o.g(1);";
      "function get() { return this.n; } var o = { n: 7, m: get }; var p = { n: 9 }; p.m = \
       o.m; result = o.m() * 10 + p.m();";
      "var gs = 3; function h0(x, y) { gs = gs & 1; return 4; } var a = [1, 1, 1, 1, 1]; \
       a[gs % 5] = h0(1.5, gs); var o = { x: 1 }; var p = { x: 2 }; var cur = o; function \
       sw() { cur = p; return 5; } cur.x = sw(); result = a.join(',') + ';' + o.x + p.x;";
    ]

(* A compound assignment or increment evaluates its target's base and
   index once, as [Compile] lowers it.  [f] counts its calls and returns a
   different target each time, so evaluating the target twice would both
   count two calls and store somewhere other than it read. *)
let test_ast_target_once () =
  List.iter
    (fun (src, want) ->
      let globals = (Nomap_bytecode.Compile.compile_source src).Nomap_bytecode.Opcode.globals in
      let expected = Oracle.run_cfg ~src Oracle.reference in
      (match expected with
      | Oracle.Outcome { result; _ } -> Alcotest.(check string) (src ^ ": reference") want result
      | Oracle.Crash m -> Alcotest.fail (src ^ ": reference crashed: " ^ m));
      match Oracle.run_ast ~src globals with
      | None -> Alcotest.fail (src ^ ": Ast_interp ran out of fuel")
      | Some got ->
        Alcotest.(check string) src
          (Oracle.observation_to_string expected)
          (Oracle.observation_to_string got))
    [
      ( "var k = 0; var a = [0, 0, 0, 0]; function f() { k = k + 1; return k; } a[f()] += 5; \
         result = k + ':' + a.join(',');",
        "1:0,5,0,0" );
      ( "var k = 0; var a = [0, 0, 0, 0]; function f() { k = k + 1; return k; } a[f()]++; \
         ++a[f()]; result = k + ':' + a.join(',');",
        "2:0,1,1,0" );
      ( "var k = 0; var o = { n: 0 }; var p = { n: 10 }; function f() { k = k + 1; return k == 1 \
         ? o : p; } f().n++; result = k + ':' + o.n + ',' + p.n;",
        "1:1,10" );
    ]

let test_shrink_size () =
  let p = FGen.program_of_seed ~seed:7 in
  Alcotest.(check bool) "size positive" true (Shrink.size p > 0);
  Alcotest.(check bool) "kernel smaller than whole" true (Shrink.kernel_size p < Shrink.size p)

let tests =
  [
    QCheck_alcotest.to_alcotest (agree_under [ Config.Base ]);
    QCheck_alcotest.to_alcotest (agree_under [ Config.NoMap_S; Config.NoMap_B ]);
    QCheck_alcotest.to_alcotest (agree_under [ Config.NoMap_full; Config.NoMap_BC ]);
    QCheck_alcotest.to_alcotest (agree_under [ Config.NoMap_RTM ]);
    Alcotest.test_case "generator deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "generator round-trips" `Quick test_gen_roundtrips;
    Alcotest.test_case "fixed-seed batch agrees" `Quick test_fixed_seed_batch_agrees;
    Alcotest.test_case "pinned corpus agrees" `Quick test_corpus_agrees;
    Alcotest.test_case "sabotage caught and shrunk" `Quick test_sabotage_caught_and_shrunk;
    Alcotest.test_case "shrink sizes" `Quick test_shrink_size;
    Alcotest.test_case "ast axis: function values and store order" `Quick test_ast_agrees;
    Alcotest.test_case "ast axis: a compound target is evaluated once" `Quick
      test_ast_target_once;
  ]
