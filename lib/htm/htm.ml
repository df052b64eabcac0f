(** Transactional memory model.

    Two hardware modes from the paper, a modeled software mode, and a ghost
    mode for accounting:

    - [Rot] — IBM POWER8 Rollback-Only Transaction mode (paper §V-A): only
      the write footprint is buffered (in L2: 256KB, 8-way); commit
      flash-clears SW bits (5 cycles); XBegin costs a fence.  There is no
      read-set tracking because single-threaded JavaScript needs no conflict
      detection.
    - [Rtm] — Intel Restricted Transactional Memory (paper §VI-B): writes
      must fit L1D (32KB, 8-way), reads must fit L2, commit stalls ~13
      cycles, transactional reads are ~20% slower, and there is no SOF.
    - [Stm] — a modeled redo-log software transaction (DESIGN.md §15):
      unbounded footprint, no capacity aborts; every transactional access
      pays a configurable ownership-record/logging overhead charged by the
      timing model, not here.  A transaction is never *born* in this mode by
      the hybrid architecture — it is upgraded into it when an RTM capacity
      check fails (see [begin_tx]'s [stm_fallback]).
    - [Ghost] — no transactional semantics at all; used by the Base
      configuration so instruction accounting can still classify code by
      transaction region (paper Figures 8-11 break Base down the same way).

    Rollback is an undo log captured via the heap's store hook: the paper's
    hardware buffers speculative lines in the cache; we restore mutated
    locations instead, which is observationally identical for a
    single-threaded run.  Global variables live outside the footprint
    model, but their stores join the same log through the heap's
    [journal] hook, so an abort restores them too.  The STM mode reuses
    the identical undo log (our host-side journal stands in for the STM's
    redo log — both make the region's writes revocable, and for a
    single-threaded run commit/abort outcomes are indistinguishable). *)

module Heap = Nomap_runtime.Heap
module Value = Nomap_runtime.Value
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
      (** cross-agent conflict: another agent touched this transaction's
          read/write footprint on a shared segment (or, for a fallen-back
          software transaction, NOrec value validation failed at commit) *)

let abort_reason_name = function
  | Check_failed k -> "check:" ^ Nomap_lir.Lir.check_kind_name k
  | Capacity_write -> "capacity-write"
  | Capacity_read -> "capacity-read"
  | Sof_overflow -> "sof-overflow"
  | Irrevocable -> "irrevocable-io"
  | Watchdog -> "watchdog"
  | Conflict -> "conflict"

exception Abort of abort_reason

type tx = {
  mutable mode : mode;
      (** mutable for exactly one transition: a hybrid RTM transaction
          upgrading to [Stm] on capacity overflow *)
  heap : Heap.t;
  saved_active : bool;
  saved_load : int -> int -> unit;
  saved_store : int -> int -> (unit -> unit) -> unit;
  saved_io : unit -> unit;
  saved_journal : (unit -> unit) -> unit;
  mutable undo : (unit -> unit) list;
      (** newest first: the heap stores' undos and the global stores' *)
  write_fp : Footprint.t;
  read_fp : Footprint.t option;  (** RTM only *)
  mutable sof : bool;  (** sticky overflow flag (ROT + SOF hardware) *)
  mutable nesting : int;  (** flattened nesting depth *)
  snapshot : (int * Value.t) list;  (** baseline register state at XBegin *)
  resume_pc : int;  (** where Baseline restarts the region *)
  owner_frame : int;  (** machine frame that executed Tx_begin *)
  mutable reads : int;
  mutable writes : int;
  mutable instr_count : int;
  mutable stm_prefix_reads : int;
      (** [reads] at the HTM→STM upgrade point: accesses executed (and
          wasted) under hardware before the capacity overflow.  0 unless the
          transaction fell back. *)
  mutable stm_prefix_writes : int;  (** [writes] at the upgrade point *)
}

(* Global stores join the undo log, outside the footprint model: they
   touch no line and count no access. *)
let journal tx undo = tx.undo <- undo :: tx.undo

(* Software-mode hooks: identical journaling, no capacity raise.  The write
   footprint keeps being recorded ([Footprint.touch] accumulates lines past
   overflow; its boolean is simply ignored) so Table-IV-style write-set
   statistics stay exact for fallen-back transactions. *)
let install_stm_hooks tx =
  let heap = tx.heap in
  heap.Heap.hooks.store <-
    (fun addr bytes undo ->
      tx.undo <- undo :: tx.undo;
      tx.writes <- tx.writes + 1;
      ignore (Footprint.touch tx.write_fp ~addr ~bytes));
  heap.Heap.hooks.load <- (fun _ _ -> tx.reads <- tx.reads + 1);
  heap.Heap.hooks.io <- (fun () -> raise (Abort Irrevocable));
  heap.Heap.hooks.journal <- journal tx;
  heap.Heap.hooks.active <- true

(** Upgrade a hardware transaction to the modeled software transaction
    in place: mark how much work the doomed hardware attempt had done (the
    timing model charges its re-execution), flip the mode, and swap in
    capacity-free hooks.  The undo log persists across the transition, so a
    later rollback (failed in-tx check) still restores the pre-[begin_tx]
    heap exactly.  In-place upgrade is observationally identical to
    "abort, then re-execute the region under STM" for a deterministic
    single-threaded run — the re-executed prefix would perform the same
    reads and writes — which is why the machine can keep running the
    NoMap-optimized code without materializing a restart. *)
let fallback_to_stm tx =
  tx.stm_prefix_reads <- tx.reads;
  tx.stm_prefix_writes <- tx.writes;
  tx.mode <- Stm;
  install_stm_hooks tx

(** Begin a transaction: snapshot is the architectural-register state the
    hardware checkpoints at XBegin.  [stm_fallback], when given, makes a
    capacity overflow upgrade the transaction to [Stm] (calling the
    function with the averted abort reason — integer bookkeeping only; any
    cycle charge belongs to the transaction's single finish point) instead
    of raising [Abort]. *)
let begin_tx ?(capacity_scale = 1) ?stm_fallback heap ~mode ~snapshot ~resume_pc
    ~owner_frame =
  let tx =
    {
      mode;
      heap;
      saved_active = heap.Heap.hooks.active;
      saved_load = heap.Heap.hooks.load;
      saved_store = heap.Heap.hooks.store;
      saved_io = heap.Heap.hooks.io;
      saved_journal = heap.Heap.hooks.journal;
      undo = [];
      write_fp =
        (match mode with
        | Rtm -> Footprint.l1d ~scale:capacity_scale ()
        | _ -> Footprint.l2 ~scale:capacity_scale ());
      read_fp =
        (match mode with Rtm -> Some (Footprint.l2 ~scale:capacity_scale ()) | _ -> None);
      sof = false;
      nesting = 1;
      snapshot;
      resume_pc;
      owner_frame;
      reads = 0;
      writes = 0;
      instr_count = 0;
      stm_prefix_reads = 0;
      stm_prefix_writes = 0;
    }
  in
  (match mode with
  | Ghost -> ()
  | Stm -> install_stm_hooks tx
  | Rot | Rtm ->
    let capacity reason =
      match stm_fallback with
      | Some notify ->
        notify reason;
        fallback_to_stm tx
      | None -> raise (Abort reason)
    in
    heap.Heap.hooks.store <-
      (fun addr bytes undo ->
        tx.undo <- undo :: tx.undo;
        tx.writes <- tx.writes + 1;
        if not (Footprint.touch tx.write_fp ~addr ~bytes) then capacity Capacity_write);
    heap.Heap.hooks.load <-
      (fun addr bytes ->
        tx.reads <- tx.reads + 1;
        match tx.read_fp with
        | Some fp -> if not (Footprint.touch fp ~addr ~bytes) then capacity Capacity_read
        | None -> ());
    heap.Heap.hooks.io <- (fun () -> raise (Abort Irrevocable));
    heap.Heap.hooks.journal <- journal tx;
    heap.Heap.hooks.active <- true);
  tx

let restore_hooks tx =
  tx.heap.Heap.hooks.active <- tx.saved_active;
  tx.heap.Heap.hooks.load <- tx.saved_load;
  tx.heap.Heap.hooks.store <- tx.saved_store;
  tx.heap.Heap.hooks.io <- tx.saved_io;
  tx.heap.Heap.hooks.journal <- tx.saved_journal

(** Commit: speculative writes become permanent.  (The 5-cycle SW-bit
    flash-clear / 13-cycle RTM drain — and the STM write-back/validation —
    is charged by the timing model, not here.)  Returns the final write
    footprint for Table IV. *)
let commit tx =
  restore_hooks tx;
  tx.undo <- []

(** Abort: undo every speculative write, newest first, and drop the tx. *)
let rollback tx =
  restore_hooks tx;
  List.iter (fun undo -> undo ()) tx.undo;
  tx.undo <- []
