(** The shared-segment runtime (DESIGN.md §16): solo-agent Shared/Atomics
    tier invariance, counter canonicalization, and real multi-agent runs
    with conflict aborts flowing through the abort ladder. *)

module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Value = Nomap_runtime.Value
module Agents = Nomap_agents.Agents
module Interleave = Nomap_shared.Interleave
module Agent = Nomap_shared.Agent
module Segment = Nomap_shared.Segment

(* Fuel for every VM in this file, each agent's included (see
   [Helpers.check_fuel]).  The heaviest case, the solo tier-invariance
   kernel at the Interpreter and Baseline caps, burns 67K; the budget is
   about 4x that. *)
let fuel_budget = 270_000
let check_fuel label vm = Helpers.check_fuel ~budget:fuel_budget label (Vm.instance vm)

let run_vm ?(arch = Config.Base) ?(cap = Vm.Cap_ftl) src =
  let prog = Helpers.compile src in
  let t =
    Vm.create ~fuel:fuel_budget ~verify_lir:true ~config:(Config.create arch)
      ~tier_cap:cap prog
  in
  ignore (Vm.run_main t);
  check_fuel (Printf.sprintf "%s at %s" (Config.name arch) (Vm.cap_name cap)) t;
  t

(* [Agents.run] under the file's budget, checking every agent's use. *)
let run_agents ~policy ~config ~tier_cap programs =
  let r = Agents.run ~policy ~fuel:fuel_budget ~config ~tier_cap programs in
  Array.iteri
    (fun i (o : Agents.outcome) ->
      Option.iter (check_fuel (Printf.sprintf "agent %d" i)) o.Agents.vm)
    r.Agents.outcomes;
  r

let result_of t =
  match Vm.global t "result" with
  | Some v -> Value.to_js_string v
  | None -> Alcotest.fail "no result global"

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A hot kernel exercising every Shared/Atomics intrinsic, against the
   VM's private solo segment.  The driver loops past the FTL threshold so
   under NoMap architectures the segment operations run inside
   transactions (redo-buffered, flushed at commit). *)
let atomics_kernel =
  "function bench() { var i; var s = 0; for (i = 0; i < 50; i++) { Atomics.add(0, 1); \
   Atomics.sub(0, 2); Atomics.store(1, (Atomics.load(0) * 2) & 0xFFFF); s = (s + \
   Atomics.exchange(2, s + 1)) & 0xFFFF; } if (Atomics.compareExchange(3, 0, 7) == 0) { s \
   = s + Atomics.load(3); } Atomics.fence(); return (s + Shared.read(1) + Shared.size()) & \
   0xFFFFF; } var it; var result = 0; for (it = 0; it < 40; it++) { result = bench(); }"

(** Every tier and architecture must compute exactly what the interpreter
    computes for segment operations — through transactions, redo buffers
    and STM fallback included. *)
let test_solo_tier_invariance () =
  let reference = result_of (run_vm ~cap:Vm.Cap_interp atomics_kernel) in
  List.iter
    (fun cap ->
      Alcotest.(check string)
        (Printf.sprintf "atomics under %s" (Vm.cap_name cap))
        reference
        (result_of (run_vm ~cap atomics_kernel)))
    [ Vm.Cap_baseline; Vm.Cap_dfg ];
  List.iter
    (fun arch ->
      let t = run_vm ~arch atomics_kernel in
      Alcotest.(check string)
        (Printf.sprintf "atomics under FTL/%s" (Config.name arch))
        reference (result_of t);
      Alcotest.(check bool)
        (Printf.sprintf "FTL ran under %s" (Config.name arch))
        true
        ((Vm.counters t).Counters.ftl_calls > 0))
    Config.all

(** Segment operations are counted, and the canonical counter table only
    grows a [shared={...}] block when they actually ran — segment-free
    programs keep their golden rows byte-identical (test_determinism pins
    the actual golden file; this pins the mechanism). *)
let test_canonical_counter_gating () =
  let plain =
    run_vm "function bench() { var i; var s = 0; for (i = 0; i < 40; i++) { s += i; } \
            return s; } var it; var result = 0; for (it = 0; it < 30; it++) { result = \
            bench(); }"
  in
  let canonical = Counters.to_canonical_string (Vm.counters plain) in
  Alcotest.(check bool)
    "no shared block without segment ops" false
    (contains_sub canonical " shared={");
  let shared = run_vm atomics_kernel in
  let c = Vm.counters shared in
  Alcotest.(check bool)
    "shared block present" true
    (contains_sub (Counters.to_canonical_string c) " shared={");
  Alcotest.(check bool) "loads counted" true (c.Counters.shared_loads > 0);
  Alcotest.(check bool) "stores counted" true (c.Counters.shared_stores > 0);
  Alcotest.(check bool) "rmws counted" true (c.Counters.shared_rmws > 0);
  Alcotest.(check bool) "fences counted" true (c.Counters.shared_fences > 0)

(** Typed-array index semantics: out-of-range and negative indices wrap
    into the segment instead of trapping. *)
let test_index_wrap () =
  let t =
    run_vm ~cap:Vm.Cap_interp
      "Atomics.store(0 - 1, 5); var result = Shared.read(63) + Atomics.load(64) * 100;"
  in
  (* -1 wraps to 63 (solo segments have 64 slots); 64 wraps to 0. *)
  Alcotest.(check string) "wrapped write landed" "5" (result_of t)

(** Two interpreter-tier agents hammer one counter: no transactions, every
    RMW is direct, so the total is exact and no conflict aborts occur. *)
let test_two_agents_interp () =
  let src = "var i; for (i = 0; i < 200; i++) { Atomics.add(0, 1); }" in
  let r =
    run_agents
      ~policy:(Interleave.Seeded 0)
      ~config:(Config.create Config.Base) ~tier_cap:Vm.Cap_interp
      (Array.map Helpers.compile [| src; src |])
  in
  Array.iter
    (fun (o : Agents.outcome) ->
      match o.Agents.result with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "agent failed: %s" msg)
    r.Agents.outcomes;
  Alcotest.(check int) "exact count" 400 r.Agents.segment_data.(0);
  Alcotest.(check int) "no conflicts below FTL" 0 r.Agents.conflicts

(* Two FTL agents contending on one cache line under real transactions. *)
let contended_run ?(arch = Config.NoMap_RTM) ~seed () =
  let src =
    "function bench() { var i; for (i = 0; i < 60; i++) { Atomics.add(0, 1); } return \
     Atomics.load(0); } var it; var result = 0; for (it = 0; it < 30; it++) { result = \
     bench(); }"
  in
  run_agents
    ~policy:(Interleave.Seeded seed)
    ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl
    (Array.map Helpers.compile [| src; src |])

(** Transactional atomicity under contention: aborted transactions drop
    their redo-buffered increments and the retry re-applies them exactly
    once, so the final count is exact no matter how many conflict aborts
    fired — and under RTM with both agents on one line, some must fire. *)
let test_two_agents_ftl_conflicts () =
  let r = contended_run ~seed:7 () in
  Array.iter
    (fun (o : Agents.outcome) ->
      match o.Agents.result with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "agent failed: %s" msg)
    r.Agents.outcomes;
  Alcotest.(check int) "exact count through aborts" (2 * 30 * 60) r.Agents.segment_data.(0);
  Alcotest.(check bool) "conflict aborts fired" true (r.Agents.conflicts > 0);
  (* The aborts landed in the counters as [conflict] aborts. *)
  let aborts_of i =
    match r.Agents.outcomes.(i).Agents.vm with
    | Some vm ->
      Counters.abort_count (Vm.counters vm) Nomap_htm.Htm.Conflict
    | None -> 0
  in
  Alcotest.(check bool)
    "per-VM abort breakdown records conflicts" true
    (aborts_of 0 + aborts_of 1 > 0)

(** Deterministic replay: the same (programs, seed, policy) triple is
    bit-identical — results, segment image, checksum and conflict count. *)
let test_seeded_replay_deterministic () =
  let a = contended_run ~seed:3 () in
  let b = contended_run ~seed:3 () in
  let render (r : Agents.run_result) =
    Printf.sprintf "%s | seg=%s | cksum=%Lx | conflicts=%d"
      (String.concat ","
         (Array.to_list
            (Array.map
               (fun (o : Agents.outcome) ->
                 match o.Agents.result with
                 | Ok v -> Value.to_js_string v
                 | Error e -> "error:" ^ e)
               r.Agents.outcomes)))
      (String.concat "," (Array.to_list (Array.map string_of_int r.Agents.segment_data)))
      r.Agents.segment_checksum r.Agents.conflicts
  in
  Alcotest.(check string) "replay is bit-identical" (render a) (render b)

let tests =
  [
    Alcotest.test_case "shared: solo tier invariance" `Quick test_solo_tier_invariance;
    Alcotest.test_case "shared: canonical counter gating" `Quick test_canonical_counter_gating;
    Alcotest.test_case "shared: index wrap" `Quick test_index_wrap;
    Alcotest.test_case "shared: two interp agents, exact count" `Quick test_two_agents_interp;
    Alcotest.test_case "shared: FTL contention, conflict aborts" `Quick
      test_two_agents_ftl_conflicts;
    Alcotest.test_case "shared: seeded replay determinism" `Quick
      test_seeded_replay_deterministic;
  ]
