open Nomap_jsir

let toks src =
  List.map (fun (t, _) -> Lexer.token_to_string t) (Lexer.tokenize src)

let test_lex_numbers () =
  Alcotest.(check (list string)) "ints and floats"
    [ "NUMBER(1)"; "NUMBER(2.5)"; "NUMBER(0.125)"; "NUMBER(1000)"; "NUMBER(255)"; "EOF" ]
    (toks "1 2.5 0.125 1e3 0xFF")

let test_lex_strings () =
  Alcotest.(check (list string)) "escapes"
    [ "STRING(\"a\\nb\")"; "STRING(\"q'\")"; "EOF" ]
    (toks "\"a\\nb\" 'q\\''")

let test_lex_punct_longest_match () =
  Alcotest.(check (list string)) "3-char ops win"
    [ "IDENT(a)"; "PUNCT(>>>)"; "IDENT(b)"; "PUNCT(>>)"; "IDENT(c)"; "EOF" ]
    (toks "a >>> b >> c")

let test_lex_comments () =
  Alcotest.(check (list string)) "comments skipped"
    [ "IDENT(x)"; "IDENT(y)"; "EOF" ]
    (toks "x // line\n/* block\nmore */ y")

let test_lex_keywords () =
  Alcotest.(check (list string)) "keywords"
    [ "KEYWORD(var)"; "IDENT(variable)"; "KEYWORD(new)"; "EOF" ]
    (toks "var variable new")

let test_lex_error () =
  Alcotest.check_raises "bad char"
    (Lexer.Error ("unexpected character '#'", { Ast.line = 1; col = 1 }))
    (fun () -> ignore (Lexer.tokenize "#"))

let lex_outcome src =
  match Lexer.tokenize src with
  | toks -> Printf.sprintf "ok %d" (List.length toks)
  | exception Lexer.Error (m, p) -> Printf.sprintf "%s %d:%d" m p.Ast.line p.Ast.col

(* Messages and positions as the lexer reported them before it was made
   allocation-free (one option per character, list-membership matching). *)
let test_lex_errors_pinned () =
  List.iter
    (fun (src, expected) -> Alcotest.(check string) (String.escaped src) expected (lex_outcome src))
    [
      ("x = \"abc", "unterminated string literal 1:9");
      ("'a\\", "unterminated escape 1:4");
      ("a /* b\n c", "unterminated block comment 2:3");
      ("0x", "bad hex literal 1:3");
      ("1e+", "bad exponent 1:4");
      ("a\000b", "unexpected character '\\000' 1:2");
      ("a\n  @", "unexpected character '@' 2:3");
      ("x >>>= 1", "ok 5");
      ("a.b!==c<<=d", "ok 8");
      ("1.e3", "ok 4");
      ("// only", "ok 1");
    ]

(* Token count and FNV-64 of every token's [token_to_string], line and
   column, per registry source, as recorded from the lexer before it was
   made allocation-free: the rewrite must produce the same token stream. *)
let registry_token_digests =
  [
    ("S01", 535, "e6c9dcddb7841ab7"); ("S02", 78, "0e4579ee714922a6");
    ("S03", 361, "16023f57cdd4275c"); ("S04", 212, "19f9f94875051488");
    ("S05", 343, "d83e093e54d0d3fd"); ("S06", 405, "71fbe97d7c76f7d3");
    ("S07", 156, "fc469805c92882cd"); ("S08", 111, "458a251ac19ebc3b");
    ("S09", 76, "f83455ee76bf0719"); ("S10", 45, "4475fa351ca44a3e");
    ("S11", 176, "4da212b317693cca"); ("S12", 215, "db7c7a15bdbae8cd");
    ("S13", 448, "d4d9bc62bac085c5"); ("S14", 205, "a6416aaba7bef6b3");
    ("S15", 279, "6e630a3cbd03c2ab"); ("S16", 238, "cc076c739b4ba291");
    ("S17", 248, "86c68f226ea9f5ad"); ("S18", 281, "cb7ffa264cec4433");
    ("S19", 206, "cb954f7f184cd0ce"); ("S20", 384, "a47b1fb26aeb03d5");
    ("S21", 197, "ede185406287fa34"); ("S22", 219, "e8726ddded32fdaf");
    ("S23", 135, "6c17c968b7829c49"); ("S24", 168, "cf8d97b178d7a50b");
    ("S25", 168, "a088874a9629e18d"); ("S26", 220, "bb6336efed50c907");
    ("K01", 450, "dc5d12c08ce562ad"); ("K02", 122, "ba125fcf094ef397");
    ("K03", 226, "204cbd34ba5ae6ce"); ("K04", 343, "0044bd4a873dcc67");
    ("K05", 137, "7bbdfeb8bcd6ec64"); ("K06", 194, "c5f7c2443ffa0350");
    ("K07", 174, "3d0ebb4ae70b413a"); ("K08", 337, "af0eb93adb0a6175");
    ("K09", 181, "3b16e4ad63117d42"); ("K10", 135, "ed10496b4b9303e7");
    ("K11", 418, "832e29836a924a9a"); ("K12", 161, "c927a9df3b7f6009");
    ("K13", 107, "4cd2eb389b07faee"); ("K14", 330, "a256621a53a86972");
    ("SH01", 119, "34e6b6ec45171133"); ("SH02", 142, "74df6fcce1e7a7a6");
    ("SH03", 476, "487518fd030a6353"); ("SH04", 46, "ab1a7e42f77b6780");
    ("SH05", 44, "7c994b5dd48c0cfe"); ("SH06", 177, "5023a6244eda59a5");
    ("SH07", 297, "05d008f4431276b6"); ("SH08", 278, "e7b8b03130b47661");
    ("SH09", 369, "4dd6cce1b2b6559b"); ("SH10", 80, "1f835b4928a3da1a");
    ("SH11", 121, "b6ec10295091db75"); ("SH12", 83, "8a0e0ea1eff425fd");
  ]

let token_digest src =
  let toks = Lexer.tokenize src in
  let h =
    List.fold_left
      (fun h (tok, (p : Ast.pos)) ->
        Nomap_util.Fnv.string h
          (Printf.sprintf "%s@%d:%d\n" (Lexer.token_to_string tok) p.line p.col))
      Nomap_util.Fnv.basis toks
  in
  (List.length toks, Nomap_util.Fnv.to_hex h)

let test_lex_registry_pinned () =
  let module Registry = Nomap_workloads.Registry in
  Alcotest.(check int) "every registry source pinned" (List.length Registry.all)
    (List.length registry_token_digests);
  List.iter
    (fun (id, count, digest) ->
      match Registry.by_id id with
      | None -> Alcotest.failf "no benchmark %s" id
      | Some b ->
        Alcotest.(check (pair int string)) id (count, digest) (token_digest b.Registry.source))
    registry_token_digests

let parse src = Parser.parse_program_exn src

let test_parse_precedence () =
  match parse "x = 1 + 2 * 3;" with
  | [ Ast.Stmt (Ast.Expr (Ast.Assign (Ast.Lvar "x", e))) ] ->
    Alcotest.(check string) "mul binds tighter" "(1 + (2 * 3))" (Printer.expr_to_string e)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_assoc () =
  match parse "x = 1 - 2 - 3;" with
  | [ Ast.Stmt (Ast.Expr (Ast.Assign (_, e))) ] ->
    Alcotest.(check string) "left assoc" "((1 - 2) - 3)" (Printer.expr_to_string e)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_ternary_nested () =
  match parse "x = a ? b : c ? d : e;" with
  | [ Ast.Stmt (Ast.Expr (Ast.Assign (_, Ast.Cond (_, _, Ast.Cond _)))) ] -> ()
  | _ -> Alcotest.fail "ternary should nest right"

let test_parse_for () =
  match parse "for (var i = 0; i < 10; i++) { s += i; }" with
  | [ Ast.Stmt (Ast.For (Some (Ast.Var_decl [ ("i", Some _) ]), Some _, Some _, [ _ ])) ] -> ()
  | _ -> Alcotest.fail "for structure"

let test_parse_function () =
  match parse "function add(a, b) { return a + b; }" with
  | [ Ast.Func { fname = "add"; params = [ "a"; "b" ]; body = [ Ast.Return (Some _) ]; _ } ] ->
    ()
  | _ -> Alcotest.fail "function structure"

let test_parse_method_chain () =
  match parse "x = s.substring(1, 2).toUpperCase();" with
  | [ Ast.Stmt
        (Ast.Expr (Ast.Assign (_, Ast.Method_call (Ast.Method_call (_, "substring", _), "toUpperCase", []))))
    ] -> ()
  | _ -> Alcotest.fail "method chain"

let test_parse_new () =
  match parse "p = new Point(1, 2); a = new Array(8);" with
  | [ Ast.Stmt (Ast.Expr (Ast.Assign (_, Ast.New ("Point", [ _; _ ]))));
      Ast.Stmt (Ast.Expr (Ast.Assign (_, Ast.New_array _)))
    ] -> ()
  | _ -> Alcotest.fail "new forms"

let test_parse_object_array_literals () =
  match parse "o = { a: 1, b: [2, 3] };" with
  | [ Ast.Stmt (Ast.Expr (Ast.Assign (_, Ast.Object_lit [ ("a", _); ("b", Ast.Array_lit [ _; _ ]) ]))) ]
    -> ()
  | _ -> Alcotest.fail "literals"

let test_parse_logical_value () =
  match parse "x = a || b && c;" with
  | [ Ast.Stmt (Ast.Expr (Ast.Assign (_, Ast.Or (_, Ast.And (_, _))))) ] -> ()
  | _ -> Alcotest.fail "&& binds tighter than ||"

let test_parse_incr_forms () =
  match parse "i++; ++i; i--; --i;" with
  | [ Ast.Stmt (Ast.Expr (Ast.Incr (_, 1, `Post)));
      Ast.Stmt (Ast.Expr (Ast.Incr (_, 1, `Pre)));
      Ast.Stmt (Ast.Expr (Ast.Incr (_, -1, `Post)));
      Ast.Stmt (Ast.Expr (Ast.Incr (_, -1, `Pre)))
    ] -> ()
  | _ -> Alcotest.fail "incr forms"

let test_parse_nested_function_rejected () =
  Alcotest.(check bool) "nested function rejected" true
    (try
       ignore (parse "function f() { function g() {} }");
       false
     with Failure _ -> true)

let test_roundtrip_print_parse () =
  (* Printing then reparsing should preserve structure. *)
  let src =
    "function f(a) { var x = 0; for (var i = 0; i < a; i++) { x += i * 2; } return x; } \
     var r = f(10);"
  in
  let p1 = parse src in
  let printed = Printer.program_to_string p1 in
  let p2 = parse printed in
  Alcotest.(check string) "fixpoint" printed (Printer.program_to_string p2)

let qcheck_number_roundtrip =
  QCheck2.Test.make ~name:"number literal roundtrip" ~count:300
    QCheck2.Gen.(float_range 0.0 1e9)
    (fun f ->
      let src = Printf.sprintf "x = %.17g;" f in
      match parse src with
      | [ Ast.Stmt (Ast.Expr (Ast.Assign (_, Ast.Number g))) ] -> g = f
      | _ -> false)

let tests =
  [
    Alcotest.test_case "lex numbers" `Quick test_lex_numbers;
    Alcotest.test_case "lex strings" `Quick test_lex_strings;
    Alcotest.test_case "lex longest match" `Quick test_lex_punct_longest_match;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex keywords" `Quick test_lex_keywords;
    Alcotest.test_case "lex error position" `Quick test_lex_error;
    Alcotest.test_case "lex errors pinned" `Quick test_lex_errors_pinned;
    Alcotest.test_case "lex registry tokens pinned" `Quick test_lex_registry_pinned;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse associativity" `Quick test_parse_assoc;
    Alcotest.test_case "parse nested ternary" `Quick test_parse_ternary_nested;
    Alcotest.test_case "parse for" `Quick test_parse_for;
    Alcotest.test_case "parse function" `Quick test_parse_function;
    Alcotest.test_case "parse method chain" `Quick test_parse_method_chain;
    Alcotest.test_case "parse new forms" `Quick test_parse_new;
    Alcotest.test_case "parse literals" `Quick test_parse_object_array_literals;
    Alcotest.test_case "parse logical precedence" `Quick test_parse_logical_value;
    Alcotest.test_case "parse incr forms" `Quick test_parse_incr_forms;
    Alcotest.test_case "nested function rejected" `Quick test_parse_nested_function_rejected;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip_print_parse;
    QCheck_alcotest.to_alcotest qcheck_number_roundtrip;
  ]
