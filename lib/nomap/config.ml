(** The evaluated architectures: the paper's six (Table II) plus the hybrid
    RTM+STM capacity-fallback column (DESIGN.md §15). *)

type arch =
  | Base  (** unmodified JavaScriptCore; no transactions *)
  | NoMap_S  (** transactions inserted, SMPs become aborts, optimizations run across them *)
  | NoMap_B  (** NoMap_S + hoisting/sinking bounds checks *)
  | NoMap_full  (** NoMap_B + SOF overflow-check removal — the proposed design *)
  | NoMap_BC  (** unrealistic best case: all checks within transactions removed *)
  | NoMap_RTM  (** NoMap_B running on Intel RTM (no SOF on x86) *)
  | NoMap_RTM_STM
      (** NoMap_RTM whose capacity aborts fall back to a modeled software
          transaction instead of deoptimizing — the region keeps running
          its check-elided code and pays a per-access STM overhead
          ([Timing.stm_factor]) instead of a Baseline re-execution *)

(* Append-only: the list order is the nomapd wire format for arch codes and
   the row order of test/determinism.expected. *)
let all = [ Base; NoMap_S; NoMap_B; NoMap_full; NoMap_BC; NoMap_RTM; NoMap_RTM_STM ]

let name = function
  | Base -> "Base"
  | NoMap_S -> "NoMap_S"
  | NoMap_B -> "NoMap_B"
  | NoMap_full -> "NoMap"
  | NoMap_BC -> "NoMap_BC"
  | NoMap_RTM -> "NoMap_RTM"
  | NoMap_RTM_STM -> "NoMap_RTM_STM"

type t = { arch : arch }

let create arch = { arch }

let htm_mode t : Nomap_htm.Htm.mode =
  match t.arch with
  | Base -> Nomap_htm.Htm.Ghost
  | NoMap_RTM | NoMap_RTM_STM -> Nomap_htm.Htm.Rtm
  | NoMap_S | NoMap_B | NoMap_full | NoMap_BC -> Nomap_htm.Htm.Rot

(** Capacity overflow upgrades the transaction to a software transaction
    instead of aborting (DESIGN.md §15). *)
let stm_fallback t = t.arch = NoMap_RTM_STM

(** Convert in-transaction SMPs to aborts (everything but Base). *)
let convert_smps t = t.arch <> Base

let combine_bounds t =
  match t.arch with
  | NoMap_B | NoMap_full | NoMap_BC | NoMap_RTM | NoMap_RTM_STM -> true
  | Base | NoMap_S -> false

(** Remove in-transaction overflow checks, relying on the Sticky Overflow
    Flag.  x86 RTM has no SOF (paper §VI-B), so the RTM-based archs keep
    them. *)
let remove_overflow t =
  match t.arch with NoMap_full | NoMap_BC -> true | _ -> false

let remove_all_checks t = t.arch = NoMap_BC

(** The machine models SOF hardware whenever overflow checks were removed:
    integer overflow inside a transaction sets the sticky flag and the
    outermost Tx_end aborts on it (paper §V-B). *)
let sof_enabled = remove_overflow

(** The workloads are scaled down ~16-30x from the paper's; the modeled HTM
    capacities are scaled by the same factor so the footprint/capacity
    ratios (and hence which transactions fit which HTM) stay in the paper's
    regime.  Documented in DESIGN.md §6. *)
let capacity_scale = 8

(** Write-footprint budget (bytes) for whole-loop transaction placement:
    conservative halves of the capacity the mode can buffer.  NoMap_RTM_STM
    uses the same budgets as NoMap_RTM on purpose — the compiler places
    transactions identically, so any measured difference between the two
    archs is the runtime fallback policy alone. *)
let write_budget t =
  (match htm_mode t with
  | Nomap_htm.Htm.Rtm -> 16 * 1024  (* L1D is 32KB *)
  | _ -> 128 * 1024 (* ROT buffers in the 256KB L2 *))
  / capacity_scale

let read_budget t =
  match htm_mode t with
  | Nomap_htm.Htm.Rtm -> Some (128 * 1024 / capacity_scale)  (* L2 is 256KB *)
  | _ -> None
