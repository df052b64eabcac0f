(** Footprint-model and HTM unit tests. *)

module Footprint = Nomap_cache.Footprint
module Htm = Nomap_htm.Htm
module Heap = Nomap_runtime.Heap
module Value = Nomap_runtime.Value
module Shape = Nomap_runtime.Shape

let test_footprint_counts_lines () =
  let fp = Footprint.create ~sets:64 ~ways:8 ~line_bytes:64 in
  Alcotest.(check bool) "fits" true (Footprint.touch fp ~addr:0 ~bytes:8);
  Alcotest.(check bool) "same line" true (Footprint.touch fp ~addr:32 ~bytes:8);
  Alcotest.(check int) "one line" 64 (Footprint.bytes fp);
  ignore (Footprint.touch fp ~addr:64 ~bytes:8);
  Alcotest.(check int) "two lines" 128 (Footprint.bytes fp);
  (* Bytes 60..189 straddle three 64B lines. *)
  let fp2 = Footprint.create ~sets:64 ~ways:8 ~line_bytes:64 in
  ignore (Footprint.touch fp2 ~addr:60 ~bytes:130);
  Alcotest.(check int) "straddle" 3 (Footprint.bytes fp2 / 64)

let test_footprint_associativity_overflow () =
  let fp = Footprint.create ~sets:4 ~ways:2 ~line_bytes:64 in
  (* Lines mapping to set 0: line numbers 0, 4, 8 -> third one overflows. *)
  Alcotest.(check bool) "1st fits" true (Footprint.touch fp ~addr:0 ~bytes:8);
  Alcotest.(check bool) "2nd fits" true (Footprint.touch fp ~addr:(4 * 64) ~bytes:8);
  Alcotest.(check bool) "3rd overflows" false (Footprint.touch fp ~addr:(8 * 64) ~bytes:8);
  Alcotest.(check bool) "sticky" false (Footprint.fits fp);
  Alcotest.(check int) "max ways" 3 (Footprint.max_ways fp)

let test_footprint_scaled_geometry () =
  let full = Footprint.l1d () in
  let scaled = Footprint.l1d ~scale:8 () in
  Alcotest.(check int) "full sets" 64 full.Footprint.sets;
  Alcotest.(check int) "scaled sets" 8 scaled.Footprint.sets

let test_htm_commit_keeps_writes () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 4 in
  Heap.set_elem heap arr 0 (Value.Int 1);
  let tx =
    Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0
  in
  Heap.set_elem heap arr 0 (Value.Int 42);
  Htm.commit tx;
  Alcotest.(check string) "write survives commit" "42"
    (Value.to_js_string (Heap.get_elem heap arr 0))

let test_htm_rollback_restores () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 4 in
  let obj = Heap.alloc_object heap in
  Heap.set_elem heap arr 0 (Value.Int 1);
  Heap.set_prop heap obj "x" (Value.Int 5);
  let tx = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  Heap.set_elem heap arr 0 (Value.Int 42);
  Heap.set_elem heap arr 9 (Value.Int 7);
  Heap.set_prop heap obj "x" (Value.Int 99);
  Heap.set_prop heap obj "y" (Value.Int 1);
  Htm.rollback tx;
  Alcotest.(check string) "element restored" "1" (Value.to_js_string (Heap.get_elem heap arr 0));
  Alcotest.(check int) "length restored" 4 arr.Value.alen;
  Alcotest.(check string) "prop restored" "5" (Value.to_js_string (Heap.get_prop heap obj "x"));
  Alcotest.(check string) "added prop gone" "undefined"
    (Value.to_js_string (Heap.get_prop heap obj "y"))

let test_htm_write_footprint_tracked () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 64 in
  let tx = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 0 to 63 do
    Heap.set_elem heap arr i (Value.Int i)
  done;
  (* 64 elements * 8B = 512B = 8 lines. *)
  Alcotest.(check bool) "footprint ~8 lines" true
    (Footprint.bytes tx.Htm.write_fp >= 8 * 64 && Footprint.bytes tx.Htm.write_fp <= 10 * 64);
  Htm.commit tx

let test_htm_rtm_read_tracking () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 64 in
  for i = 0 to 63 do
    Heap.set_elem heap arr i (Value.Int i)
  done;
  let tx = Htm.begin_tx heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 0 to 63 do
    ignore (Heap.get_elem heap arr i)
  done;
  (match tx.Htm.read_fp with
  | Some fp -> Alcotest.(check bool) "reads tracked" true (Footprint.bytes fp > 0)
  | None -> Alcotest.fail "RTM must track reads");
  Alcotest.(check bool) "ROT does not track reads" true
    ((Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0).Htm.read_fp
    = None);
  Heap.(heap.hooks.load <- (fun _ _ -> ()));
  Heap.(heap.hooks.store <- (fun _ _ _ -> ()));
  Heap.(heap.hooks.active <- false)

let test_htm_capacity_abort () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 5000 in
  (* A tiny scaled RTM write set overflows quickly. *)
  let tx =
    Htm.begin_tx ~capacity_scale:64 heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0
      ~owner_frame:0
  in
  let aborted = ref false in
  (try
     for i = 0 to 4999 do
       Heap.set_elem heap arr i (Value.Int i)
     done
   with Htm.Abort Htm.Capacity_write -> aborted := true);
  Htm.rollback tx;
  Alcotest.(check bool) "capacity abort raised" true !aborted

(* Hybrid fallback: the same overflowing write sequence that capacity-aborts
   above must, with [stm_fallback], upgrade the transaction to Stm in place,
   keep executing, and commit with every write intact.  The fallback
   callback fires exactly once with the averted reason, and the prefix
   marks record how much work the doomed hardware attempt had done. *)
let test_htm_stm_fallback_commits () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 5000 in
  let averted = ref [] in
  let tx =
    Htm.begin_tx ~capacity_scale:64 ~stm_fallback:(fun r -> averted := r :: !averted) heap
      ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0
  in
  for i = 0 to 4999 do
    Heap.set_elem heap arr i (Value.Int i)
  done;
  Alcotest.(check bool) "upgraded to Stm" true (tx.Htm.mode = Htm.Stm);
  (match !averted with
  | [ Htm.Capacity_write ] -> ()
  | _ -> Alcotest.failf "expected exactly one averted Capacity_write, got %d" (List.length !averted));
  Alcotest.(check bool) "prefix marks set" true
    (tx.Htm.stm_prefix_writes > 0 && tx.Htm.stm_prefix_writes < tx.Htm.writes);
  Alcotest.(check int) "all writes counted" 5000 tx.Htm.writes;
  (* The write footprint keeps accumulating past the overflow (Table IV). *)
  Alcotest.(check bool) "footprint covers the whole write set" true
    (Footprint.bytes tx.Htm.write_fp >= 5000 * 8);
  Htm.commit tx;
  Alcotest.(check string) "first write survives" "0"
    (Value.to_js_string (Heap.get_elem heap arr 0));
  Alcotest.(check string) "last write survives" "4999"
    (Value.to_js_string (Heap.get_elem heap arr 4999))

(* A fallen-back transaction can still abort (a failed in-tx check raises
   through the machine): the undo log spans the hardware prefix AND the
   software suffix, so rollback must restore the pre-transaction heap
   exactly. *)
let test_htm_stm_rollback_restores () =
  let heap = Heap.create () in
  let arr = Heap.alloc_array heap 5000 in
  Heap.set_elem heap arr 0 (Value.Int 7);
  let tx =
    Htm.begin_tx ~capacity_scale:64 ~stm_fallback:(fun _ -> ()) heap ~mode:Htm.Rtm
      ~snapshot:[] ~resume_pc:0 ~owner_frame:0
  in
  for i = 0 to 4999 do
    Heap.set_elem heap arr i (Value.Int (i + 1))
  done;
  Alcotest.(check bool) "fell back" true (tx.Htm.mode = Htm.Stm);
  Htm.rollback tx;
  Alcotest.(check string) "pre-tx write restored" "7"
    (Value.to_js_string (Heap.get_elem heap arr 0));
  Alcotest.(check string) "speculative suffix write gone" "undefined"
    (Value.to_js_string (Heap.get_elem heap arr 4999))

let qcheck_footprint_line_count =
  QCheck2.Test.make ~name:"footprint counts distinct lines" ~count:200
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 100_000))
    (fun addrs ->
      let fp = Footprint.create ~sets:1024 ~ways:1024 ~line_bytes:64 in
      List.iter (fun a -> ignore (Footprint.touch fp ~addr:a ~bytes:1)) addrs;
      let distinct = List.sort_uniq compare (List.map (fun a -> a / 64) addrs) in
      Footprint.bytes fp = 64 * List.length distinct)

(* A deliberately naive model of [Footprint]: the list of distinct lines
   touched so far and a sticky overflow flag.  The geometry is tiny (4 sets
   x 2 ways) so most streams overflow, and up to 130-byte accesses straddle
   line boundaries; every observable is compared after every touch,
   including the touches after the first overflow (the hybrid STM fallback
   keeps recording past it). *)
let qcheck_footprint_matches_model =
  QCheck2.Test.make ~name:"footprint matches a list model" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_range 0 8191) (int_range 1 130)))
    (fun accesses ->
      let sets = 4 and ways = 2 and line_bytes = 64 in
      let fp = Footprint.create ~sets ~ways ~line_bytes in
      let lines = ref [] and overflowed = ref false in
      List.for_all
        (fun (addr, bytes) ->
          let fits = Footprint.touch fp ~addr ~bytes in
          for line = addr / line_bytes to (addr + bytes - 1) / line_bytes do
            if not (List.mem line !lines) then lines := line :: !lines
          done;
          let ways_of set = List.length (List.filter (fun l -> l mod sets = set) !lines) in
          let max_ways = List.fold_left max 0 (List.init sets ways_of) in
          if max_ways > ways then overflowed := true;
          fits = (not !overflowed)
          && Footprint.fits fp = (not !overflowed)
          && Footprint.bytes fp = line_bytes * List.length !lines
          && Footprint.max_ways fp = max_ways)
        accesses)

let qcheck_rollback_is_identity =
  QCheck2.Test.make ~name:"tx rollback restores arbitrary write sequences" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 19) (int_range (-100) 100)))
    (fun writes ->
      let heap = Heap.create () in
      let arr = Heap.alloc_array heap 10 in
      for i = 0 to 9 do
        Heap.set_elem heap arr i (Value.Int (i * 100))
      done;
      let before = List.init 10 (fun i -> Value.to_js_string (Heap.get_elem heap arr i)) in
      let tx = Htm.begin_tx heap ~mode:Htm.Rot ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
      List.iter (fun (i, v) -> Heap.set_elem heap arr i (Value.Int v)) writes;
      Htm.rollback tx;
      let after = List.init 10 (fun i -> Value.to_js_string (Heap.get_elem heap arr i)) in
      before = after && arr.Value.alen = 10)

(* Regression: the slot table ("butterfly") reallocating while a
   transaction journals must roll back completely — shape, slot-table
   address and every speculative write — and leave pre-tx slot addresses
   untouched.  An object crosses [initial_slot_capacity] (4) inside the
   transaction, interleaved with transitions on a second object so the
   journal mixes both objects' undo closures. *)
let test_slot_growth_under_tx () =
  let heap = Heap.create () in
  let a = Heap.alloc_object heap in
  let b = Heap.alloc_object heap in
  Heap.set_prop heap a "p0" (Value.Int 0);
  Heap.set_prop heap a "p1" (Value.Int 1);
  let pre_shape = a.Value.shape.Shape.id in
  let pre_slots_addr = a.Value.slots_addr in
  let tx = Htm.begin_tx heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 2 to 7 do
    Heap.set_prop heap a (Printf.sprintf "p%d" i) (Value.Int i);
    Heap.set_prop heap b (Printf.sprintf "q%d" i) (Value.Int (i * 10))
  done;
  Alcotest.(check bool) "slot table reallocated in tx" true
    (a.Value.slots_addr <> pre_slots_addr);
  Alcotest.(check string) "p7 visible in tx" "7"
    (Value.to_js_string (Heap.get_prop heap a "p7"));
  Htm.rollback tx;
  Alcotest.(check int) "shape restored" pre_shape a.Value.shape.Shape.id;
  Alcotest.(check int) "slot-table address restored" pre_slots_addr a.Value.slots_addr;
  Alcotest.(check string) "pre-tx p0 kept" "0" (Value.to_js_string (Heap.get_prop heap a "p0"));
  Alcotest.(check string) "pre-tx p1 kept" "1" (Value.to_js_string (Heap.get_prop heap a "p1"));
  Alcotest.(check string) "speculative p5 gone" "undefined"
    (Value.to_js_string (Heap.get_prop heap a "p5"));
  Alcotest.(check int) "b rolled back to root" 0 b.Value.shape.Shape.prop_count;
  (* Same writes again, committed this time: growth must stick. *)
  let tx2 = Htm.begin_tx heap ~mode:Htm.Rtm ~snapshot:[] ~resume_pc:0 ~owner_frame:0 in
  for i = 2 to 7 do
    Heap.set_prop heap a (Printf.sprintf "p%d" i) (Value.Int i)
  done;
  let grown_addr = a.Value.slots_addr in
  Htm.commit tx2;
  Alcotest.(check int) "grown slot table survives commit" grown_addr a.Value.slots_addr;
  Alcotest.(check string) "committed p7 kept" "7"
    (Value.to_js_string (Heap.get_prop heap a "p7"));
  Alcotest.(check int) "eight props" 8 a.Value.shape.Shape.prop_count

let tests =
  [
    Alcotest.test_case "footprint counts lines" `Quick test_footprint_counts_lines;
    Alcotest.test_case "footprint associativity overflow" `Quick
      test_footprint_associativity_overflow;
    Alcotest.test_case "footprint scaled geometry" `Quick test_footprint_scaled_geometry;
    Alcotest.test_case "htm commit keeps writes" `Quick test_htm_commit_keeps_writes;
    Alcotest.test_case "htm rollback restores" `Quick test_htm_rollback_restores;
    Alcotest.test_case "htm write footprint" `Quick test_htm_write_footprint_tracked;
    Alcotest.test_case "htm rtm read tracking" `Quick test_htm_rtm_read_tracking;
    Alcotest.test_case "htm capacity abort" `Quick test_htm_capacity_abort;
    Alcotest.test_case "htm stm fallback commits" `Quick test_htm_stm_fallback_commits;
    Alcotest.test_case "htm stm rollback restores" `Quick test_htm_stm_rollback_restores;
    Alcotest.test_case "slot growth under tx" `Quick test_slot_growth_under_tx;
    QCheck_alcotest.to_alcotest qcheck_footprint_line_count;
    QCheck_alcotest.to_alcotest qcheck_footprint_matches_model;
    QCheck_alcotest.to_alcotest qcheck_rollback_is_identity;
  ]
