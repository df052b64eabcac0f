(** Measurement scheduler: the "execute" layer of the plan/execute/render
    harness (DESIGN.md §10).

    Experiments declare the measurements they need as pure-data {!Key.t}
    values; {!prefetch} unions and dedups those keys and executes them on a
    pool of OCaml 5 domains, collecting results into a process-global
    exactly-once store.  Render code then reads measurements back through
    {!measurement}, which also computes on a miss, so every figure function
    still works standalone and serially. *)

module Registry = Nomap_workloads.Registry
module Config = Nomap_nomap.Config

module Key : sig
  (** One schedulable measurement, as pure data, compared and hashed
      structurally: two equal keys are one measurement and execute once.
      The constructors below are the only way to build a key, and each
      maps its spelling of a run onto the one key of that run. *)
  type t = private
    | Vm of {
        bench : Registry.benchmark;
        arch : Config.arch;
        cap : Nomap_vm.Vm.tier_cap;
        knobs : Nomap_opt.Pipeline.knobs;
      }
    | Lang of { bench : Registry.benchmark; lang : Runner.language }
    | Deopt of Registry.benchmark

  (** Full tier, every pass on (Figures 3 and 8–11, Table IV). *)
  val arch : arch:Config.arch -> Registry.benchmark -> t

  (** Full tier with the passes [knobs] selects (the ablation). *)
  val ablation : arch:Config.arch -> knobs:Nomap_opt.Pipeline.knobs -> Registry.benchmark -> t

  (** Base architecture capped at a tier (Table I). *)
  val cap : cap:Nomap_vm.Vm.tier_cap -> Registry.benchmark -> t

  (** A Figure 1 language; [Lang_js] is the Base-architecture {!arch} key,
      so Figure 1 shares that run with Figures 3/8-11 (see
      [Runner.measure_language]). *)
  val lang : lang:Runner.language -> Registry.benchmark -> t

  (** The §III-A2 deopt statistics. *)
  val deopt : Registry.benchmark -> t
end

(** The memoized measurement of a key: computed on a miss, read from the
    store on a hit.  Equal keys return the physically identical
    measurement.  Safe to call from any domain.
    @raise Invalid_argument on a {!Key.deopt} key. *)
val measurement : Key.t -> Runner.measurement

(** The memoized statistics of [Key.deopt bench]. *)
val deopt_stats : Registry.benchmark -> Runner.deopt_stats

(** Number of key executions performed so far (for dedup tests). *)
val executed : unit -> int

(** Drop every stored outcome (cold-start for benchmarking).  Call it
    while no measurement is running. *)
val reset : unit -> unit

(** [Domain.recommended_domain_count ()] — the default for [-j]. *)
val default_jobs : unit -> int

(** [parallel_map ~jobs f xs] maps [f] over [xs] on up to [jobs] domains,
    preserving order.  [jobs <= 1] degenerates to [List.map].  If any
    application raises, remaining work is abandoned and the first exception
    (by completion order) is re-raised in the calling domain with its
    backtrace — a worker raising [Runner.Checksum_mismatch] fails the whole
    call rather than hanging or vanishing. *)
val parallel_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [prefetch ~jobs keys] dedups [keys], drops those already in the store,
    and executes the rest, in plan order, on up to [jobs] domains.
    Returns the number of keys actually executed.  Worker exceptions
    propagate to the caller (see {!parallel_map}). *)
val prefetch : jobs:int -> Key.t list -> int
