(** Workload-suite tests: every benchmark parses, runs, and computes the
    same checksum under every architecture at full tier.

    Quick mode covers a representative subset; the `Slow ones sweep all 52
    benchmarks × all 6 architectures (run with ALCOTEST_QUICK_TESTS unset /
    `dune runtest` includes them). *)

module Registry = Nomap_workloads.Registry
module Config = Nomap_nomap.Config
module Vm = Nomap_vm.Vm
module Value = Nomap_runtime.Value

let test_registry_complete () =
  Alcotest.(check int) "26 SunSpider" 26 (List.length Registry.sunspider);
  Alcotest.(check int) "14 Kraken" 14 (List.length Registry.kraken);
  Alcotest.(check int) "12 Shootout" 12 (List.length Registry.shootout);
  (* Table III membership. *)
  Alcotest.(check int) "16 SunSpider AvgS members" 16
    (List.length (List.filter (fun b -> b.Registry.in_avg_s) Registry.sunspider));
  Alcotest.(check int) "9 Kraken AvgS members" 9
    (List.length (List.filter (fun b -> b.Registry.in_avg_s) Registry.kraken))

let test_ids_unique () =
  let ids = List.map (fun b -> b.Registry.id) Registry.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_all_reference_results () =
  List.iter
    (fun b ->
      let r = Registry.reference_result b in
      Alcotest.(check bool) (b.Registry.id ^ " nonempty result") true (String.length r > 0);
      (* Deterministic: a fresh run agrees with the memoized one. *)
      Alcotest.(check string) (b.Registry.id ^ " deterministic") r (Registry.run_reference b))
    Registry.all

let test_reference_result_memoized () =
  (* Four domains ask for one kernel at once: it is computed once and all
     of them get the physically same string. *)
  let b = Option.get (Registry.by_id "S05") in
  let rs =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Registry.reference_result b))
    |> List.map Domain.join
  in
  let r0 = List.hd rs in
  List.iter (fun r -> Alcotest.(check bool) "physically the same string" true (r == r0)) rs;
  Alcotest.(check bool) "later lookups too" true (Registry.reference_result b == r0)

let run_and_check b arch =
  let prog = Registry.compile b in
  let vm =
    Vm.create ~fuel:2_000_000_000 ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  let result = ref Value.Undef in
  for _ = 1 to 28 do
    result := Vm.call_function vm "benchmark" []
  done;
  Alcotest.(check string)
    (Printf.sprintf "%s under %s" b.Registry.id (Config.name arch))
    (Registry.reference_result b)
    (Value.to_js_string !result)

let representative =
  [ "S01"; "S07"; "S10"; "S13"; "S18"; "S22"; "K01"; "K08"; "K14"; "SH07" ]

let test_representative_all_archs () =
  List.iter
    (fun id ->
      let b = Option.get (Registry.by_id id) in
      List.iter (fun arch -> run_and_check b arch) Config.all)
    representative

let slow_suite_test arch () =
  List.iter (fun b -> run_and_check b arch) Registry.all

let test_ast_interp_agrees () =
  (* The AST interpreter must compute the same checksums (a different
     engine entirely — catches semantic drift). *)
  List.iter
    (fun id ->
      let b = Option.get (Registry.by_id id) in
      let ast = Nomap_jsir.Parser.parse_program_exn b.Registry.source in
      let env =
        Nomap_interp.Ast_interp.create ~fuel:500_000_000
          ~flavour:Nomap_interp.Ast_interp.Php_like
          ~charge:(fun _ -> ())
          ast
      in
      Nomap_interp.Ast_interp.run_program env ast;
      let r = Nomap_interp.Ast_interp.call env "benchmark" [] in
      Alcotest.(check string) (id ^ " ast==bytecode") (Registry.reference_result b)
        (Value.to_js_string r))
    representative

let tests =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "ids unique" `Quick test_ids_unique;
    Alcotest.test_case "reference result memoized across domains" `Quick
      test_reference_result_memoized;
    Alcotest.test_case "all reference results" `Quick test_all_reference_results;
    Alcotest.test_case "representative x all archs" `Quick test_representative_all_archs;
    Alcotest.test_case "ast interp agrees" `Quick test_ast_interp_agrees;
    Alcotest.test_case "full sweep: Base" `Slow (slow_suite_test Config.Base);
    Alcotest.test_case "full sweep: NoMap" `Slow (slow_suite_test Config.NoMap_full);
    Alcotest.test_case "full sweep: NoMap_BC" `Slow (slow_suite_test Config.NoMap_BC);
    Alcotest.test_case "full sweep: NoMap_RTM" `Slow (slow_suite_test Config.NoMap_RTM);
  ]
