(** Transactional memory model (paper §V-A, §VI-A/B; DESIGN.md §15).

    - [Rot]: IBM POWER8 Rollback-Only Transaction mode — only the write
      footprint is buffered (L2 geometry); no read-set tracking
      (single-threaded JavaScript needs no conflict detection).
    - [Rtm]: Intel Restricted Transactional Memory — writes must fit L1D,
      reads must fit L2, and there is no Sticky Overflow Flag.
    - [Stm]: modeled redo-log software transaction — unbounded footprint,
      no capacity aborts; per-access overhead is charged by the timing
      model.  Reached by upgrading a hybrid RTM transaction on capacity
      overflow (see [begin_tx]'s [stm_fallback]).
    - [Ghost]: no transactional semantics; used by the Base configuration
      purely for instruction-category accounting.

    Rollback is an undo log captured through the heap's store hook: the
    real hardware buffers speculative lines in the cache; restoring mutated
    locations is observationally identical for a single-threaded run. *)

module Footprint = Nomap_cache.Footprint

type mode = Rot | Rtm | Stm | Ghost

type abort_reason =
  | Check_failed of Nomap_lir.Lir.check_kind
  | Capacity_write
  | Capacity_read
  | Sof_overflow
  | Irrevocable  (** I/O attempted inside a transaction (paper V-A) *)
  | Watchdog  (** runaway transaction cut off by the simulator *)
  | Conflict
      (** cross-agent conflict on a shared segment (hardware footprint
          overlap, or failed NOrec value validation in the STM fallback) *)

val abort_reason_name : abort_reason -> string

(** Raised by the capacity hooks and by the machine's check failures inside
    transactions; unwinds to the frame that began the transaction. *)
exception Abort of abort_reason

type tx = {
  mutable mode : mode;
      (** mutable for exactly one transition: hybrid RTM upgrading to [Stm]
          on capacity overflow *)
  heap : Nomap_runtime.Heap.t;
  saved_active : bool;  (** hooks.active before this tx installed its own *)
  saved_load : int -> int -> unit;
  saved_store : int -> int -> (unit -> unit) -> unit;
  saved_io : unit -> unit;
  saved_journal : (unit -> unit) -> unit;
  mutable undo : (unit -> unit) list;
      (** newest first: the heap stores' undos and the global stores' *)
  write_fp : Footprint.t;
  read_fp : Footprint.t option;  (** RTM only *)
  mutable sof : bool;  (** sticky overflow flag *)
  mutable nesting : int;  (** flattened nesting depth *)
  snapshot : (int * Nomap_runtime.Value.t) list;
      (** baseline register state checkpointed at XBegin *)
  resume_pc : int;  (** where Baseline restarts the region after an abort *)
  owner_frame : int;  (** machine frame that executed Tx_begin *)
  mutable reads : int;
  mutable writes : int;
  mutable instr_count : int;
  mutable stm_prefix_reads : int;
      (** [reads] at the HTM→STM upgrade point (work wasted under
          hardware); 0 unless the transaction fell back *)
  mutable stm_prefix_writes : int;  (** [writes] at the upgrade point *)
}

(** Begin a transaction: installs journaling/footprint hooks on the heap.
    [capacity_scale] shrinks the modeled cache geometry (DESIGN.md §6).
    [stm_fallback], when given, turns a capacity overflow into an in-place
    upgrade to [Stm] — the function is called once with the averted abort
    reason (integer bookkeeping only; cycle charges belong to the
    transaction's finish point) — instead of raising [Abort]. *)
val begin_tx :
  ?capacity_scale:int ->
  ?stm_fallback:(abort_reason -> unit) ->
  Nomap_runtime.Heap.t ->
  mode:mode ->
  snapshot:(int * Nomap_runtime.Value.t) list ->
  resume_pc:int ->
  owner_frame:int ->
  tx

(** Make the speculative writes permanent and restore the heap hooks. *)
val commit : tx -> unit

(** Undo every speculative write (newest first) and restore the hooks. *)
val rollback : tx -> unit
