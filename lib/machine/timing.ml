(** Cycle model (paper §VI-A).

    Execution time in Figures 10/11 is simulated cycles, computed as
    instructions × a per-code-class CPI plus the explicit transactional
    overheads the paper charges.  Every constant is an integer number of
    milli-cycles, so every charge is exact and cycle sums do not depend
    on the order of the adds.

    - XBegin is modeled as an mfence (the dominant cost the paper
      identifies): [xbegin].
    - Lightweight (ROT) XEnd flash-clears SW bits: +5 cycles (paper cites a
      few cycles via a tag-array circuit [41]).
    - RTM XEnd stalls for write-buffer drain: ≥13 cycles (Ritson & Barnes).
    - RTM transactional reads are ~20% slower: [rtm_read_penalty] extra
      per in-transaction load.
    - A deoptimization (OSR exit + Baseline warm-in) and an abort (rollback
      + redirect) get fixed costs; both are rare in steady state.

    CPIs position FTL ≈ 41-64% faster than DFG per instruction (backend
    quality: LLVM instruction selection), with runtime/interpreter code
    missing caches more often. *)

let cpi_ftl = 550
let cpi_dfg = 800
let cpi_runtime = 1000  (* NoFTL: interpreter, baseline, C runtime *)

let xbegin = 30_000
let xend_rot = 5_000
let xend_rtm = 13_000
let rtm_read_penalty = 600  (* per transactional read (~20% of a ~3-cycle load) *)

let deopt = 400_000
let abort = 200_000

(* Hybrid RTM+STM fallback (DESIGN.md §15): a capacity overflow upgrades the
   transaction to a modeled redo-log software transaction instead of
   deoptimizing.  The STM charges a setup cost (descriptor + log
   allocation), a commit cost (write-back; validation is vacuous for a
   single-owner run but the lock acquire/release is not), and a per-access
   instrumentation multiplier [stm_factor] — the single-thread slowdown of
   an instrumented access, inside the 3-10x range the STM literature
   reports — on top of [stm_access], the baseline cost of one load/store
   (matching the 3-instruction load/store cost in the machine's cost
   table). *)
let stm_begin = 60_000
let stm_commit = 40_000
let stm_access = 3_000
let stm_factor = 4
