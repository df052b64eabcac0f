(** Transaction lab: watch HTM transactions commit, abort, and roll back.

    Three experiments:
    1. steady state — the hot loop runs inside transactions that always
       commit; compare all six architectures;
    2. a late overflow — under NoMap the Sticky Overflow Flag aborts the
       transaction, the heap rolls back, and Baseline recomputes with
       doubles; the final value must be identical to Base's deopt path;
    3. a capacity blow-up — the trip count explodes after warmup, the
       transaction overflows the (scaled) cache budget, and the VM demotes
       the function's transactions to smaller tiles.

    Run with: dune exec examples/transaction_lab.exe *)

module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Counters = Nomap_machine.Counters
module Value = Nomap_runtime.Value

let steady =
  {js|
function bench(a) {
  var s = 0;
  for (var i = 0; i < a.length; i++) { s += a[i] * 3 - 1; }
  return s;
}
var data = [];
for (var i = 0; i < 100; i++) { data.push(i); }
var result = 0;
for (var it = 0; it < 60; it++) { result = bench(data); }
|js}

let overflowing =
  {js|
function accumulate(start) {
  var x = start;
  for (var i = 0; i < 50; i++) { x = x + 1000000; }
  return x;
}
var result = 0;
for (var it = 0; it < 60; it++) { result = accumulate(it); }
// Steady state established with small ints; now overflow int32:
result = accumulate(2147000000);
|js}

let capacity =
  {js|
function fill(n) {
  var a = new Array(n);
  for (var i = 0; i < n; i++) { a[i] = i; }
  var s = 0;
  for (var j = 0; j < n; j++) { s += a[j]; }
  return s;
}
var result = 0;
// Warm up with a small n so placement picks a whole-loop transaction...
for (var it = 0; it < 60; it++) { result = fill(64); }
// ...then explode the footprint.
result = fill(30000);
|js}

let run arch src =
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm =
    Vm.create ~fuel:2_000_000_000 ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl prog
  in
  ignore (Vm.run_main vm);
  vm

let show label (vm : Vm.t) =
  let c = Vm.counters vm in
  let aborts =
    List.fold_left
      (fun acc (k, v) -> Printf.sprintf "%s %s=%d" acc k v)
      "" (Counters.abort_breakdown c)
  in
  Printf.printf "  %-10s result=%-12s commits=%-6d aborts=%-3d deopts=%-3d demotions=%d%s\n"
    label
    (match Vm.global vm "result" with Some v -> Value.to_js_string v | None -> "?")
    c.Counters.tx_commits c.Counters.tx_aborts c.Counters.deopts (Vm.tx_demotions vm)
    (if aborts = "" then "" else "  [" ^ String.trim aborts ^ " ]")

let () =
  print_endline "== experiment 1: steady state across all architectures ==";
  List.iter (fun arch -> show (Config.name arch) (run arch steady)) Config.all;
  print_endline "\n== experiment 2: late int32 overflow (SOF abort vs deopt) ==";
  List.iter
    (fun arch -> show (Config.name arch) (run arch overflowing))
    [ Config.Base; Config.NoMap_full ];
  print_endline "  (identical results: the SOF abort rolled back and Baseline redid the math)";
  print_endline "\n== experiment 3: capacity blow-up and transaction demotion ==";
  List.iter
    (fun arch -> show (Config.name arch) (run arch capacity))
    [ Config.Base; Config.NoMap_full; Config.NoMap_RTM ]
