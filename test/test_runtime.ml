open Nomap_runtime

let heap () = Heap.create ()

let test_number_canonicalization () =
  Alcotest.(check bool) "integral double becomes Int" true
    (Value.number 42.0 = Value.Int 42);
  Alcotest.(check bool) "fraction stays Num" true
    (match Value.number 1.5 with Value.Num f -> f = 1.5 | _ -> false);
  Alcotest.(check bool) "-0.0 stays Num" true
    (match Value.number (-0.0) with Value.Num _ -> true | _ -> false);
  Alcotest.(check bool) "2^31 stays Num" true
    (match Value.number 2147483648.0 with Value.Num _ -> true | _ -> false)

let test_to_int32_wrap () =
  Alcotest.(check int) "wraps" (-2147483648) (Value.to_int32 (Value.Num 2147483648.0));
  Alcotest.(check int) "nan is 0" 0 (Value.to_int32 (Value.Num Float.nan));
  Alcotest.(check int) "negative" (-1) (Value.to_int32 (Value.Num (-1.0)))

let test_truthiness () =
  let h = heap () in
  Alcotest.(check bool) "0 falsy" false (Value.truthy (Value.Int 0));
  Alcotest.(check bool) "NaN falsy" false (Value.truthy (Value.Num Float.nan));
  Alcotest.(check bool) "empty string falsy" false (Value.truthy (Heap.str h ""));
  Alcotest.(check bool) "string truthy" true (Value.truthy (Heap.str h "x"));
  Alcotest.(check bool) "undefined falsy" false (Value.truthy Value.Undef);
  Alcotest.(check bool) "object truthy" true
    (Value.truthy (Value.Obj (Heap.alloc_object h)))

let test_js_add_semantics () =
  let h = heap () in
  Alcotest.(check string) "int add" "7"
    (Value.to_js_string (Ops.js_add h (Value.Int 3) (Value.Int 4)));
  Alcotest.(check string) "string concat" "a4"
    (Value.to_js_string (Ops.js_add h (Heap.str h "a") (Value.Int 4)));
  Alcotest.(check string) "int overflow promotes" "4294967294"
    (Value.to_js_string (Ops.js_add h (Value.Int 2147483647) (Value.Int 2147483647)))

let test_js_div_mod () =
  let h = heap () in
  Alcotest.(check string) "div exact" "3"
    (Value.to_js_string (Ops.apply_binop h Nomap_jsir.Ast.Div (Value.Int 6) (Value.Int 2)));
  Alcotest.(check string) "div inexact" "2.5"
    (Value.to_js_string (Ops.apply_binop h Nomap_jsir.Ast.Div (Value.Int 5) (Value.Int 2)));
  Alcotest.(check string) "div by zero" "Infinity"
    (Value.to_js_string (Ops.apply_binop h Nomap_jsir.Ast.Div (Value.Int 5) (Value.Int 0)));
  Alcotest.(check string) "mod" "1"
    (Value.to_js_string (Ops.apply_binop h Nomap_jsir.Ast.Mod (Value.Int 7) (Value.Int 3)))

let test_bitwise () =
  let h = heap () in
  let b op a c = Value.to_js_string (Ops.apply_binop h op (Value.Int a) (Value.Int c)) in
  Alcotest.(check string) "and" "4" (b Nomap_jsir.Ast.Band 6 12);
  Alcotest.(check string) "shl wraps" "-2147483648" (b Nomap_jsir.Ast.Shl 1 31);
  Alcotest.(check string) "ushr of negative" "2147483648"
    (Value.to_js_string (Ops.js_ushr (Value.Int (-2147483648)) (Value.Int 0)));
  Alcotest.(check string) "shr sign extends" "-1" (b Nomap_jsir.Ast.Shr (-2) 1)

let test_string_compare () =
  let h = heap () in
  Alcotest.(check bool) "lexicographic" true (Ops.js_lt (Heap.str h "abc") (Heap.str h "abd"));
  Alcotest.(check bool) "nan compare false" false (Ops.js_lt (Value.Num Float.nan) (Value.Int 1))

let test_shapes_share () =
  let h = heap () in
  let o1 = Heap.alloc_object h and o2 = Heap.alloc_object h in
  Heap.set_prop h o1 "x" (Value.Int 1);
  Heap.set_prop h o1 "y" (Value.Int 2);
  Heap.set_prop h o2 "x" (Value.Int 3);
  Heap.set_prop h o2 "y" (Value.Int 4);
  Alcotest.(check int) "same shape" o1.Value.shape.Shape.id o2.Value.shape.Shape.id;
  let o3 = Heap.alloc_object h in
  Heap.set_prop h o3 "y" (Value.Int 1);
  Heap.set_prop h o3 "x" (Value.Int 2);
  Alcotest.(check bool) "different insertion order, different shape" true
    (o3.Value.shape.Shape.id <> o1.Value.shape.Shape.id)

let test_prop_read_write () =
  let h = heap () in
  let o = Heap.alloc_object h in
  Alcotest.(check string) "missing is undefined" "undefined"
    (Value.to_js_string (Heap.get_prop h o "nope"));
  Heap.set_prop h o "a" (Value.Int 10);
  Heap.set_prop h o "a" (Value.Int 20);
  Alcotest.(check string) "overwrite" "20" (Value.to_js_string (Heap.get_prop h o "a"));
  (* More properties than the initial slot capacity. *)
  for i = 0 to 9 do
    Heap.set_prop h o (Printf.sprintf "p%d" i) (Value.Int i)
  done;
  for i = 0 to 9 do
    Alcotest.(check string) "growth preserved" (string_of_int i)
      (Value.to_js_string (Heap.get_prop h o (Printf.sprintf "p%d" i)))
  done

let test_array_holes_and_growth () =
  let h = heap () in
  let a = Heap.alloc_array h 0 in
  Heap.set_elem h a 5 (Value.Int 99);
  Alcotest.(check int) "length elongated" 6 a.Value.alen;
  Alcotest.(check string) "hole reads undefined" "undefined"
    (Value.to_js_string (Heap.get_elem h a 2));
  Alcotest.(check string) "stored value" "99" (Value.to_js_string (Heap.get_elem h a 5));
  Alcotest.(check string) "out of bounds undefined" "undefined"
    (Value.to_js_string (Heap.get_elem h a 100));
  Alcotest.(check string) "negative undefined" "undefined"
    (Value.to_js_string (Heap.get_elem h a (-1)))

let test_array_push_pop () =
  let h = heap () in
  let a = Heap.alloc_array h 0 in
  ignore (Heap.array_push h a (Value.Int 1));
  ignore (Heap.array_push h a (Value.Int 2));
  Alcotest.(check int) "len" 2 a.Value.alen;
  Alcotest.(check string) "pop" "2" (Value.to_js_string (Heap.array_pop h a));
  Alcotest.(check int) "len after pop" 1 a.Value.alen;
  Alcotest.(check string) "pop" "1" (Value.to_js_string (Heap.array_pop h a));
  Alcotest.(check string) "pop empty" "undefined" (Value.to_js_string (Heap.array_pop h a))

let test_store_hook_undo () =
  let h = heap () in
  let a = Heap.alloc_array h 3 in
  Heap.set_elem h a 0 (Value.Int 1);
  (* Install a journaling hook, mutate, then undo: state must be restored. *)
  let undos = ref [] in
  h.Heap.hooks.store <- (fun _ _ undo -> undos := undo :: !undos);
  h.Heap.hooks.active <- true;
  Heap.set_elem h a 0 (Value.Int 42);
  Heap.set_elem h a 10 (Value.Int 7);
  let o = Heap.alloc_object h in
  Heap.set_prop h o "x" (Value.Int 5);
  h.Heap.hooks.active <- false;
  h.Heap.hooks.store <- (fun _ _ _ -> ());
  Alcotest.(check string) "mutated" "42" (Value.to_js_string (Heap.get_elem h a 0));
  List.iter (fun undo -> undo ()) !undos;
  Alcotest.(check string) "elem restored" "1" (Value.to_js_string (Heap.get_elem h a 0));
  Alcotest.(check int) "length restored" 3 a.Value.alen;
  Alcotest.(check string) "prop restored" "undefined"
    (Value.to_js_string (Heap.get_prop h o "x"));
  Alcotest.(check int) "shape restored" 0 o.Value.shape.Shape.id

let test_intrinsics_math () =
  let h = heap () in
  let ev i args = Intrinsics.eval h i Value.Undef args in
  Alcotest.(check string) "floor" "2" (Value.to_js_string (ev Intrinsics.Math_floor [ Value.Num 2.9 ]));
  Alcotest.(check string) "pow" "8"
    (Value.to_js_string (ev Intrinsics.Math_pow [ Value.Int 2; Value.Int 3 ]));
  Alcotest.(check string) "min" "1"
    (Value.to_js_string (ev Intrinsics.Math_min [ Value.Int 3; Value.Int 1; Value.Int 2 ]));
  Alcotest.(check string) "abs" "3" (Value.to_js_string (ev Intrinsics.Math_abs [ Value.Num (-3.0) ]))

let test_intrinsics_string () =
  let h = heap () in
  let s = Heap.str h "hello" in
  let ev i recv args = Value.to_js_string (Intrinsics.eval h i recv args) in
  Alcotest.(check string) "charCodeAt" "101" (ev Intrinsics.Str_char_code_at s [ Value.Int 1 ]);
  Alcotest.(check string) "charCodeAt oob" "NaN" (ev Intrinsics.Str_char_code_at s [ Value.Int 9 ]);
  Alcotest.(check string) "charAt" "h" (ev Intrinsics.Str_char_at s [ Value.Int 0 ]);
  Alcotest.(check string) "substring" "ell" (ev Intrinsics.Str_substring s [ Value.Int 1; Value.Int 4 ]);
  Alcotest.(check string) "substring swaps" "ell"
    (ev Intrinsics.Str_substring s [ Value.Int 4; Value.Int 1 ]);
  Alcotest.(check string) "indexOf" "2" (ev Intrinsics.Str_index_of s [ Heap.str h "ll" ]);
  Alcotest.(check string) "indexOf missing" "-1" (ev Intrinsics.Str_index_of s [ Heap.str h "z" ]);
  Alcotest.(check string) "fromCharCode" "AB"
    (ev Intrinsics.Str_from_char_code Value.Undef [ Value.Int 65; Value.Int 66 ]);
  (* JS: "hello".split("l") = ["he", "", "o"]. *)
  Alcotest.(check string) "split" "he,,o" (ev Intrinsics.Str_split s [ Heap.str h "l" ])

let test_intrinsics_parse () =
  let h = heap () in
  let ev i args = Value.to_js_string (Intrinsics.eval h i Value.Undef args) in
  Alcotest.(check string) "parseInt" "42" (ev Intrinsics.Global_parse_int [ Heap.str h "42px" ]);
  Alcotest.(check string) "parseInt hex" "255"
    (ev Intrinsics.Global_parse_int [ Heap.str h "0xff"; Value.Int 16 ]);
  Alcotest.(check string) "parseInt negative" "-7" (ev Intrinsics.Global_parse_int [ Heap.str h "-7" ]);
  Alcotest.(check string) "parseFloat" "2.5" (ev Intrinsics.Global_parse_float [ Heap.str h "2.5" ])

let test_addresses_distinct () =
  let h = heap () in
  let o1 = Heap.alloc_object h and o2 = Heap.alloc_object h in
  let a = Heap.alloc_array h 16 in
  Alcotest.(check bool) "object addrs distinct" true (o1.Value.oaddr <> o2.Value.oaddr);
  Alcotest.(check bool) "slots regions distinct" true (o1.Value.slots_addr <> o2.Value.slots_addr);
  let before = a.Value.elems_addr in
  Heap.set_elem h a 100 (Value.Int 1);
  Alcotest.(check bool) "growth moves storage" true (a.Value.elems_addr <> before)

let qcheck_to_int32_idempotent =
  QCheck2.Test.make ~name:"to_int32 is idempotent" ~count:500
    QCheck2.Gen.(float_range (-1e12) 1e12)
    (fun f ->
      let i = Value.to_int32 (Value.Num f) in
      Value.to_int32 (Value.Int i) = i && i >= Value.int32_min && i <= Value.int32_max)

let qcheck_add_commutes_numeric =
  QCheck2.Test.make ~name:"numeric + commutes" ~count:500
    QCheck2.Gen.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))
    (fun (a, b) ->
      let h = heap () in
      Value.equals
        (Ops.js_add h (Value.Int a) (Value.Int b))
        (Ops.js_add h (Value.Int b) (Value.Int a)))

let qcheck_shape_lookup_after_set =
  QCheck2.Test.make ~name:"set_prop then get_prop returns the value" ~count:200
    QCheck2.Gen.(list_size (int_range 1 10) (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)) int))
    (fun pairs ->
      let h = heap () in
      let o = Heap.alloc_object h in
      List.iter (fun (k, v) -> Heap.set_prop h o k (Value.of_int v)) pairs;
      (* Last write per key wins. *)
      List.for_all
        (fun (k, _) ->
          let expected =
            List.fold_left (fun acc (k', v) -> if k' = k then Some v else acc) None pairs
          in
          match expected with
          | Some v -> Value.equals (Heap.get_prop h o k) (Value.of_int v)
          | None -> true)
        pairs)

(* The canonical-number rule as [Value.number] first wrote it, kept as the
   oracle for the C-call-free version. *)
let number_oracle f =
  if Float.is_integer f && Float.abs f <= 2147483647.0 && not (f = 0.0 && 1.0 /. f < 0.0)
  then Value.Int (int_of_float f)
  else Value.Num f

(* Same constructor and same payload bits (so the sign of zero counts). *)
let same_number a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Num x, Value.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> false

let test_number_edges () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "number %h" f)
        true
        (same_number (number_oracle f) (Value.number f)))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 2147483647.0;
      -2147483647.0; 2147483648.0; -2147483648.0; 9007199254740992.0; 0.5; -0.5 ]

let qcheck_number_matches_oracle =
  QCheck2.Test.make ~name:"number matches the is_integer oracle" ~count:2000
    QCheck2.Gen.(
      oneof
        [ float;
          map float_of_int (int_range (-3_000_000_000) 3_000_000_000);
          map (fun i -> float_of_int i +. 0.5) (int_range (-100) 100) ])
    (fun f -> same_number (number_oracle f) (Value.number f))

let tests =
  [
    Alcotest.test_case "number canonicalization" `Quick test_number_canonicalization;
    Alcotest.test_case "number edge values" `Quick test_number_edges;
    Alcotest.test_case "to_int32 wrap" `Quick test_to_int32_wrap;
    Alcotest.test_case "truthiness" `Quick test_truthiness;
    Alcotest.test_case "js add" `Quick test_js_add_semantics;
    Alcotest.test_case "js div/mod" `Quick test_js_div_mod;
    Alcotest.test_case "bitwise" `Quick test_bitwise;
    Alcotest.test_case "string compare" `Quick test_string_compare;
    Alcotest.test_case "shapes shared" `Quick test_shapes_share;
    Alcotest.test_case "prop read/write" `Quick test_prop_read_write;
    Alcotest.test_case "array holes/growth" `Quick test_array_holes_and_growth;
    Alcotest.test_case "array push/pop" `Quick test_array_push_pop;
    Alcotest.test_case "store hook undo" `Quick test_store_hook_undo;
    Alcotest.test_case "math intrinsics" `Quick test_intrinsics_math;
    Alcotest.test_case "string intrinsics" `Quick test_intrinsics_string;
    Alcotest.test_case "parse intrinsics" `Quick test_intrinsics_parse;
    Alcotest.test_case "addresses distinct" `Quick test_addresses_distinct;
    QCheck_alcotest.to_alcotest qcheck_number_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_to_int32_idempotent;
    QCheck_alcotest.to_alcotest qcheck_add_commutes_numeric;
    QCheck_alcotest.to_alcotest qcheck_shape_lookup_after_set;
  ]
