(** Execution metrics: dynamic instruction counts by paper category (NoFTL /
    NoTM / TMUnopt / TMOpt), executed checks by kind, simulated cycles split
    into transactional and non-transactional time, and transaction
    statistics — everything Figures 3 and 8-11 and Tables I and IV are
    built from. *)

type category =
  | No_ftl  (** interpreter, baseline, C-runtime code *)
  | No_tm  (** FTL code outside any transaction region *)
  | Tm_unopt  (** code executing inside a transaction it was not compiled for *)
  | Tm_opt  (** transaction-aware FTL code inside its own transaction *)

val category_index : category -> int
val category_name : category -> string
val categories : category list

val check_index : Nomap_lir.Lir.check_kind -> int
val check_kinds : Nomap_lir.Lir.check_kind list

(** The float metrics live in an all-float sub-record so OCaml gives them
    the flat (unboxed) representation: [add_cycles] runs once per charged
    instruction and must not allocate. *)
type fstats = {
  mutable cycles : float;
  mutable tx_cycles : float;  (** cycles inside transactions (TMTime) *)
  mutable tx_write_kb_sum : float;
  mutable tx_write_kb_max : float;
  mutable tx_assoc_sum : float;
  mutable stm_cycles : float;
      (** subset of [tx_cycles]: modeled software-transaction overhead of
          hybrid transactions that fell back (DESIGN.md §15) *)
}

type t = {
  instrs : int array;  (** per category *)
  checks : int array;  (** executed FTL checks per kind *)
  f : fstats;
  mutable deopts : int;
  mutable ftl_calls : int;
  mutable dfg_calls : int;
  mutable tx_commits : int;
  mutable tx_aborts : int;
  abort_reasons : int array;
      (** aborts per reason; read through [abort_count]/[abort_breakdown] *)
  mutable tx_assoc_max : int;
  mutable tx_samples : int;
  (* Hybrid RTM+STM fallback activity (DESIGN.md §15).  A fallen-back
     transaction that commits counts in both [tx_commits] and
     [stm_commits]. *)
  mutable stm_commits : int;
  mutable stm_aborts : int;
  mutable stm_reads : int;
  mutable stm_writes : int;
  (* Shared-segment traffic (DESIGN.md §16): completed [Shared]/[Atomics]
     operations, uniform across tiers and engines. *)
  mutable shared_loads : int;
  mutable shared_stores : int;
  mutable shared_rmws : int;
  mutable shared_fences : int;
}

val create : unit -> t

(** Read accessors for the flat float metrics (see [fstats]). *)
val cycles : t -> float

val tx_cycles : t -> float
val stm_cycles : t -> float
val tx_write_kb_sum : t -> float
val tx_write_kb_max : t -> float
val tx_assoc_sum : t -> float
val total_instrs : t -> int
val total_checks : t -> int
val add_instrs : t -> category -> int -> unit

(** The engines' per-instruction bumps: [add_instrs] by a precomputed
    [category_index], and one executed check by its [check_index]. *)
val bump_instrs : t -> int -> int -> unit

val bump_check : t -> int -> unit
val add_cycles : t -> in_tx:bool -> float -> unit
val record_abort : t -> Nomap_htm.Htm.abort_reason -> unit

(** Aborts recorded for one reason. *)
val abort_count : t -> Nomap_htm.Htm.abort_reason -> int

(** The non-zero per-reason abort counts, by reason name (sorted). *)
val abort_breakdown : t -> (string * int) list

(** Record a committed transaction's write-set characterization (Table IV). *)
val record_commit : t -> write_kb:float -> assoc:int -> unit

(** Fraction of total instructions in a category. *)
val category_fraction : t -> category -> float

(** Executed checks of a kind per 100 instructions (Figure 3). *)
val checks_per_100 : t -> Nomap_lir.Lir.check_kind -> float

val copy : t -> t

(** Snapshot the counters and open a measurement window: the running maxima
    ([tx_write_kb_max], [tx_assoc_max]) are reset so a later [diff] against
    the returned snapshot reports maxima over the window only, not over
    warmup. *)
val begin_window : t -> t

(** Metrics accumulated between a [begin_window] snapshot and now
    (steady-state measurement after warmup).  Includes the per-reason abort
    breakdown; maxima are window maxima (see [begin_window]). *)
val diff : now:t -> before:t -> t

(** Canonical one-line rendering of the full counter table (hex-float
    cycles, sorted abort reasons) — the bit-exact equality format used by
    the determinism golden and the fuzzer's engine axis. *)
val to_canonical_string : t -> string
