(** Execution metrics: dynamic instruction counts by paper category
    (NoFTL / NoTM / TMUnopt / TMOpt), executed checks by kind, simulated
    cycles split into transactional and non-transactional time, and
    transaction statistics — everything Figures 3 and 8-11 and Tables I and
    IV are built from. *)

type category = No_ftl | No_tm | Tm_unopt | Tm_opt

let category_index = function No_ftl -> 0 | No_tm -> 1 | Tm_unopt -> 2 | Tm_opt -> 3
let category_name = function
  | No_ftl -> "NoFTL"
  | No_tm -> "NoTM"
  | Tm_unopt -> "TMUnopt"
  | Tm_opt -> "TMOpt"

let categories = [ No_ftl; No_tm; Tm_unopt; Tm_opt ]

let check_index = function
  | Nomap_lir.Lir.Bounds -> 0
  | Nomap_lir.Lir.Overflow -> 1
  | Nomap_lir.Lir.Type -> 2
  | Nomap_lir.Lir.Property -> 3
  | Nomap_lir.Lir.Hole -> 4
  | Nomap_lir.Lir.Path -> 5

let check_kinds =
  [ Nomap_lir.Lir.Bounds; Nomap_lir.Lir.Overflow; Nomap_lir.Lir.Type; Nomap_lir.Lir.Property;
    Nomap_lir.Lir.Hole; Nomap_lir.Lir.Path ]

(* Abort reasons are counted in a fixed array: the check kinds first, in
   [check_index] order, then the other reasons.  The match is exhaustive,
   so a new reason cannot go uncounted; [abort_reason_table] is its
   inverse and supplies the names at render time. *)
let abort_index : Nomap_htm.Htm.abort_reason -> int = function
  | Check_failed k -> check_index k
  | Capacity_write -> 6
  | Capacity_read -> 7
  | Sof_overflow -> 8
  | Irrevocable -> 9
  | Watchdog -> 10
  | Conflict -> 11

let abort_reason_table : Nomap_htm.Htm.abort_reason array =
  Array.of_list
    (List.map (fun k -> Nomap_htm.Htm.Check_failed k) check_kinds
    @ [ Capacity_write; Capacity_read; Sof_overflow; Irrevocable; Watchdog; Conflict ])

type t = {
  instrs : int array;  (** per category *)
  checks : int array;  (** executed FTL checks per kind *)
  mutable mcycles : int;  (** simulated milli-cycles *)
  mutable tx_mcycles : int;  (** milli-cycles inside transactions (TMTime) *)
  mutable deopts : int;
  mutable ftl_calls : int;  (** invocations of FTL-compiled functions *)
  mutable dfg_calls : int;
  mutable tx_commits : int;
  mutable tx_aborts : int;
  abort_reasons : int array;  (** per [abort_index] *)
  (* Committed-transaction write-set characterization (Table IV). *)
  mutable tx_write_bytes_sum : int;
  mutable tx_write_bytes_max : int;
  mutable tx_assoc_sum : int;
  mutable tx_assoc_max : int;
  mutable tx_samples : int;
  (* Hybrid RTM+STM fallback activity (DESIGN.md §15).  A fallen-back
     transaction that commits counts in both [tx_commits] and
     [stm_commits]; [stm_reads]/[stm_writes] are the total accesses of
     fallen-back transactions (prefix re-execution included). *)
  mutable stm_commits : int;
  mutable stm_aborts : int;
  mutable stm_reads : int;
  mutable stm_writes : int;
  mutable stm_mcycles : int;
      (** subset of [tx_mcycles]: modeled software-transaction overhead
          charged to hybrid transactions that fell back *)
  (* Shared-segment traffic (DESIGN.md §16): every [Shared]/[Atomics]
     operation this VM's agent completed, uniform across tiers and engines
     (the agent's note callback fires once per operation). *)
  mutable shared_loads : int;
  mutable shared_stores : int;
  mutable shared_rmws : int;
  mutable shared_fences : int;
}

let create () =
  {
    instrs = Array.make 4 0;
    checks = Array.make 6 0;
    mcycles = 0;
    tx_mcycles = 0;
    deopts = 0;
    ftl_calls = 0;
    dfg_calls = 0;
    tx_commits = 0;
    tx_aborts = 0;
    abort_reasons = Array.make (Array.length abort_reason_table) 0;
    tx_write_bytes_sum = 0;
    tx_write_bytes_max = 0;
    tx_assoc_sum = 0;
    tx_assoc_max = 0;
    tx_samples = 0;
    stm_commits = 0;
    stm_aborts = 0;
    stm_reads = 0;
    stm_writes = 0;
    stm_mcycles = 0;
    shared_loads = 0;
    shared_stores = 0;
    shared_rmws = 0;
    shared_fences = 0;
  }

let cycles t = float_of_int t.mcycles /. 1000.0
let tx_cycles t = float_of_int t.tx_mcycles /. 1000.0
let stm_cycles t = float_of_int t.stm_mcycles /. 1000.0
let tx_write_kb_sum t = float_of_int t.tx_write_bytes_sum /. 1024.0
let tx_write_kb_max t = float_of_int t.tx_write_bytes_max /. 1024.0
let tx_assoc_sum t = float_of_int t.tx_assoc_sum

let total_instrs t = Array.fold_left ( + ) 0 t.instrs
let total_checks t = Array.fold_left ( + ) 0 t.checks

let[@inline] bump_instrs t ix n = t.instrs.(ix) <- t.instrs.(ix) + n
let[@inline] bump_check t ci = t.checks.(ci) <- t.checks.(ci) + 1
let add_instrs t cat n = bump_instrs t (category_index cat) n

let[@inline] add_cycles t ~in_tx c =
  t.mcycles <- t.mcycles + c;
  if in_tx then t.tx_mcycles <- t.tx_mcycles + c

let record_abort t reason =
  t.tx_aborts <- t.tx_aborts + 1;
  let i = abort_index reason in
  t.abort_reasons.(i) <- t.abort_reasons.(i) + 1

let abort_count t reason = t.abort_reasons.(abort_index reason)

let abort_breakdown t =
  Array.to_list abort_reason_table
  |> List.filter_map (fun r ->
         let n = abort_count t r in
         if n = 0 then None else Some (Nomap_htm.Htm.abort_reason_name r, n))
  |> List.sort compare

let record_commit t ~write_bytes ~assoc =
  t.tx_commits <- t.tx_commits + 1;
  t.tx_samples <- t.tx_samples + 1;
  t.tx_write_bytes_sum <- t.tx_write_bytes_sum + write_bytes;
  t.tx_write_bytes_max <- Int.max t.tx_write_bytes_max write_bytes;
  t.tx_assoc_sum <- t.tx_assoc_sum + assoc;
  t.tx_assoc_max <- Int.max t.tx_assoc_max assoc

(** Instruction-category fractions of the total. *)
let category_fraction t cat =
  let total = total_instrs t in
  if total = 0 then 0.0
  else float_of_int t.instrs.(category_index cat) /. float_of_int total

let checks_per_100 t kind =
  let total = total_instrs t in
  if total = 0 then 0.0
  else 100.0 *. float_of_int t.checks.(check_index kind) /. float_of_int total

let copy t =
  { t with instrs = Array.copy t.instrs; checks = Array.copy t.checks;
    abort_reasons = Array.copy t.abort_reasons }

(** Open a measurement window: returns a snapshot for [diff ~before] and
    resets the running maxima, so the maxima reported by a later [diff] come
    from transactions committed inside the window only (Table IV must not be
    polluted by warmup-only transactions, e.g. pre-demotion placements). *)
let begin_window t =
  let before = copy t in
  t.tx_write_bytes_max <- 0;
  t.tx_assoc_max <- 0;
  before

(** Metrics accumulated between [begin_window] and now (for steady-state
    measurement after warmup).  Maxima are window maxima: [begin_window]
    reset them, so [now]'s values cover exactly the measured interval. *)
let diff ~now ~before =
  let t = create () in
  Array.iteri (fun i x -> t.instrs.(i) <- x - before.instrs.(i)) now.instrs;
  Array.iteri (fun i x -> t.checks.(i) <- x - before.checks.(i)) now.checks;
  t.mcycles <- now.mcycles - before.mcycles;
  t.tx_mcycles <- now.tx_mcycles - before.tx_mcycles;
  t.deopts <- now.deopts - before.deopts;
  t.ftl_calls <- now.ftl_calls - before.ftl_calls;
  t.dfg_calls <- now.dfg_calls - before.dfg_calls;
  t.tx_commits <- now.tx_commits - before.tx_commits;
  t.tx_aborts <- now.tx_aborts - before.tx_aborts;
  Array.iteri
    (fun i x -> t.abort_reasons.(i) <- x - before.abort_reasons.(i))
    now.abort_reasons;
  t.tx_write_bytes_sum <- now.tx_write_bytes_sum - before.tx_write_bytes_sum;
  t.tx_write_bytes_max <- now.tx_write_bytes_max;
  t.tx_assoc_sum <- now.tx_assoc_sum - before.tx_assoc_sum;
  t.tx_assoc_max <- now.tx_assoc_max;
  t.tx_samples <- now.tx_samples - before.tx_samples;
  t.stm_mcycles <- now.stm_mcycles - before.stm_mcycles;
  t.stm_commits <- now.stm_commits - before.stm_commits;
  t.stm_aborts <- now.stm_aborts - before.stm_aborts;
  t.stm_reads <- now.stm_reads - before.stm_reads;
  t.stm_writes <- now.stm_writes - before.stm_writes;
  t.shared_loads <- now.shared_loads - before.shared_loads;
  t.shared_stores <- now.shared_stores - before.shared_stores;
  t.shared_rmws <- now.shared_rmws - before.shared_rmws;
  t.shared_fences <- now.shared_fences - before.shared_fences;
  t

(** Canonical one-line rendering of the full counter table.  Cycles are
    integer milli-cycles and the Table IV sums hex-floats, so the
    comparison is exact to the last bit.  Shared by the
    determinism golden (test/determinism.expected) and the fuzzer's engine
    axis, where the exact and fused modes must match bit-for-bit. *)
let to_canonical_string (c : t) =
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let reasons =
    abort_breakdown c
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
    |> String.concat ","
  in
  (* The stm block is appended only when the hybrid fallback actually fired,
     so every arch (and every hybrid run that never overflowed) keeps the
     historical row format — existing golden rows stay byte-identical. *)
  let stm =
    if
      c.stm_commits = 0 && c.stm_aborts = 0 && c.stm_reads = 0
      && c.stm_writes = 0 && c.stm_mcycles = 0
    then ""
    else
      Printf.sprintf " stm={commits=%d aborts=%d reads=%d writes=%d mcycles=%d}"
        c.stm_commits c.stm_aborts c.stm_reads c.stm_writes c.stm_mcycles
  in
  (* Same trick for shared-segment traffic: workloads that never touch a
     segment — every pre-existing golden row — print unchanged. *)
  let shared =
    if
      c.shared_loads = 0 && c.shared_stores = 0 && c.shared_rmws = 0
      && c.shared_fences = 0
    then ""
    else
      Printf.sprintf " shared={loads=%d stores=%d rmws=%d fences=%d}"
        c.shared_loads c.shared_stores c.shared_rmws c.shared_fences
  in
  Printf.sprintf
    "instrs=[%s] checks=[%s] mcycles=%d tx_mcycles=%d deopts=%d ftl=%d dfg=%d \
     commits=%d aborts=%d reasons={%s} wkb_sum=%h wkb_max=%h assoc_sum=%h \
     assoc_max=%d samples=%d%s%s"
    (ints c.instrs) (ints c.checks) c.mcycles c.tx_mcycles c.deopts c.ftl_calls
    c.dfg_calls c.tx_commits c.tx_aborts reasons (tx_write_kb_sum c) (tx_write_kb_max c)
    (tx_assoc_sum c) c.tx_assoc_max c.tx_samples stm shared
