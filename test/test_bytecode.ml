module Opcode = Nomap_bytecode.Opcode
module Compile = Nomap_bytecode.Compile
module Liveness = Nomap_bytecode.Liveness

let compile src = Compile.compile_source src

let main_func (p : Opcode.program) = p.funcs.(p.main_fid)

let test_compile_simple () =
  let p = compile "var x = 1 + 2;" in
  let f = main_func p in
  Alcotest.(check bool) "has code" true (Array.length f.code > 0);
  Alcotest.(check int) "one function (main)" 1 (Array.length p.funcs)

let test_register_layout () =
  let p = compile "function f(a, b) { var c = a + b; return c; } var r = f(1, 2);" in
  let f = p.funcs.(0) in
  Alcotest.(check int) "params" 2 f.nparams;
  (* this + a + b + c *)
  Alcotest.(check int) "locals" 4 f.nlocals

let test_loop_headers () =
  let p = compile "var s = 0; for (var i = 0; i < 10; i++) { s += i; } while (s > 0) { s--; }" in
  let f = main_func p in
  Alcotest.(check int) "two loops" 2 (List.length f.loop_headers)

let test_jump_targets_valid () =
  let p =
    compile
      "var s = 0; for (var i = 0; i < 3; i++) { if (i == 1) { continue; } if (i == 2) { break; } \
       s += i; } var t = s > 0 ? 1 : 2;"
  in
  let f = main_func p in
  Array.iteri
    (fun pc op ->
      List.iter
        (fun t ->
          if t > Array.length f.code then
            Alcotest.failf "op %d jumps out of range to %d" pc t)
        (Opcode.successors op pc))
    f.code;
  (* No unpatched placeholder jumps may remain. *)
  Array.iter
    (fun op ->
      match op with
      | Opcode.Jump (-1) | Opcode.Jump_if_false (_, -1) | Opcode.Jump_if_true (_, -1) ->
        Alcotest.fail "unpatched jump"
      | _ -> ())
    f.code

let test_const_pool_dedup () =
  let p = compile "var a = 5; var b = 5; var c = 5;" in
  let f = main_func p in
  let fives =
    Array.to_list f.consts
    |> List.filter (function Opcode.Cnum 5.0 -> true | _ -> false)
  in
  Alcotest.(check int) "one shared constant" 1 (List.length fives)

let test_globals_created_on_demand () =
  let p = compile "result = counter + 1;" in
  Alcotest.(check bool) "globals registered" true
    (Array.exists (( = ) "result") p.globals && Array.exists (( = ) "counter") p.globals)

let test_undefined_function_rejected () =
  Alcotest.(check bool) "undefined call rejected" true
    (try
       ignore (compile "nosuch(1);");
       false
     with Compile.Error _ -> true)

let test_math_resolved_statically () =
  let p = compile "var x = Math.floor(1.5); var pi = Math.PI;" in
  let f = main_func p in
  let has_intrinsic =
    Array.exists (function Opcode.Call_intrinsic _ -> true | _ -> false) f.code
  in
  Alcotest.(check bool) "Math.floor is intrinsic" true has_intrinsic;
  let has_pi_const =
    Array.exists
      (function Opcode.Cnum x -> Float.abs (x -. Float.pi) < 1e-12 | _ -> false)
      f.consts
  in
  Alcotest.(check bool) "Math.PI folded to constant" true has_pi_const

let test_liveness_straightline () =
  let p = compile "function f(a) { var b = a + 1; return b; } var r = f(1);" in
  let f = p.funcs.(0) in
  let live = Liveness.compute f in
  (* At entry, the parameter register must be live. *)
  let live0 = Liveness.live_at live 0 in
  Alcotest.(check bool) "param live at entry" true (List.mem 1 live0)

let test_liveness_loop () =
  let p =
    compile
      "function f(n) { var s = 0; for (var i = 0; i < n; i++) { s = s + i; } return s; } var r \
       = f(5);"
  in
  let f = p.funcs.(0) in
  let live = Liveness.compute f in
  (* At the loop header every op should keep n, s, i live. *)
  match f.loop_headers with
  | [ header ] ->
    let lv = Liveness.live_at live header in
    Alcotest.(check bool) "n live" true (List.mem 1 lv);
    Alcotest.(check bool) "s and i live" true (List.length lv >= 3)
  | _ -> Alcotest.fail "expected one loop"

let test_disasm_smoke () =
  let p = compile "function g(x) { return x * 2; } var r = g(21);" in
  let s = Nomap_bytecode.Disasm.program_to_string p in
  Alcotest.(check bool) "mentions function" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "function g (fid=0 params=1 locals=2 regs=4)"
                          || String.length l > 0 && String.sub l 0 (min 10 (String.length l)) = "function g") lines)

(* The set-based fixpoint that [Liveness]'s bitsets replaced, kept as
   their reference. *)
module Iset = Set.Make (Int)

let reference_live_in (f : Opcode.func) =
  let n = Array.length f.code in
  let live_in = Array.make n Iset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let op = f.code.(pc) in
      let out =
        List.fold_left
          (fun acc succ -> if succ < n then Iset.union acc live_in.(succ) else acc)
          Iset.empty (Opcode.successors op pc)
      in
      let after_def = match Opcode.def op with Some d -> Iset.remove d out | None -> out in
      let in_ = List.fold_left (fun acc u -> Iset.add u acc) after_def (Opcode.uses op) in
      if not (Iset.equal in_ live_in.(pc)) then begin
        live_in.(pc) <- in_;
        changed := true
      end
    done
  done;
  live_in

let test_liveness_matches_reference () =
  let check_program what (p : Opcode.program) =
    Array.iter
      (fun (f : Opcode.func) ->
        let live = Liveness.compute f in
        Array.iteri
          (fun pc set ->
            if Liveness.live_at live pc <> Iset.elements set then
              Alcotest.failf "%s: function %d differs at pc %d" what f.fid pc)
          (reference_live_in f))
      p.funcs
  in
  List.iter
    (fun (b : Nomap_workloads.Registry.benchmark) ->
      check_program b.id (Nomap_workloads.Registry.compile b))
    Nomap_workloads.Registry.all;
  for seed = 1 to 300 do
    let src = Nomap_fuzz.Gen.to_source (Nomap_fuzz.Gen.program_of_seed ~seed) in
    check_program (Printf.sprintf "Gen seed %d" seed) (compile src)
  done

let qcheck_liveness_defs_not_spuriously_live =
  (* A register that is written before any read in straight-line code must
     not be live at entry. *)
  QCheck2.Test.make ~name:"dead-at-entry temp registers" ~count:100
    QCheck2.Gen.(int_range 1 50)
    (fun n ->
      let src = Printf.sprintf "var x = %d; var y = x + 1; result = y;" n in
      let p = compile src in
      let f = main_func p in
      let live = Liveness.compute f in
      (* Nothing can be live at entry of main: it has no params. *)
      Liveness.live_at live 0 = [])

let tests =
  [
    Alcotest.test_case "compile simple" `Quick test_compile_simple;
    Alcotest.test_case "register layout" `Quick test_register_layout;
    Alcotest.test_case "loop headers" `Quick test_loop_headers;
    Alcotest.test_case "jump targets valid" `Quick test_jump_targets_valid;
    Alcotest.test_case "const pool dedup" `Quick test_const_pool_dedup;
    Alcotest.test_case "globals on demand" `Quick test_globals_created_on_demand;
    Alcotest.test_case "undefined function rejected" `Quick test_undefined_function_rejected;
    Alcotest.test_case "Math resolved statically" `Quick test_math_resolved_statically;
    Alcotest.test_case "liveness straightline" `Quick test_liveness_straightline;
    Alcotest.test_case "liveness loop" `Quick test_liveness_loop;
    Alcotest.test_case "liveness matches the set-based reference" `Quick
      test_liveness_matches_reference;
    Alcotest.test_case "disasm smoke" `Quick test_disasm_smoke;
    QCheck_alcotest.to_alcotest qcheck_liveness_defs_not_spuriously_live;
  ]
