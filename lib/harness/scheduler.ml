(** Measurement scheduler: plan keys in, parallel execution across OCaml 5
    domains, exactly-once result store out.  See scheduler.mli and
    DESIGN.md §10 for the architecture and the domain-safety argument. *)

module Registry = Nomap_workloads.Registry
module Config = Nomap_nomap.Config
module Pipeline = Nomap_opt.Pipeline
module Artifact_cache = Nomap_server.Artifact_cache

module Key = struct
  type t =
    | Vm of {
        bench : Registry.benchmark;
        arch : Config.arch;
        cap : Nomap_vm.Vm.tier_cap;
        knobs : Pipeline.knobs;
      }
    | Lang of { bench : Registry.benchmark; lang : Runner.language }
    | Deopt of Registry.benchmark

  let ablation ~arch ~knobs bench = Vm { bench; arch; cap = Nomap_vm.Vm.Cap_ftl; knobs }
  let arch ~arch bench = ablation ~arch ~knobs:Pipeline.all_on bench
  let cap ~cap bench = Vm { bench; arch = Config.Base; cap; knobs = Pipeline.all_on }

  let lang ~lang bench =
    match lang with
    | Runner.Lang_js -> arch ~arch:Config.Base bench
    | _ -> Lang { bench; lang }

  let deopt bench = Deopt bench
end

type outcome =
  | Measurement of Runner.measurement
  | Deopt_stats of Runner.deopt_stats

let exec_count = Atomic.make 0
let executed () = Atomic.get exec_count

let exec key =
  Atomic.incr exec_count;
  match key with
  | Key.Vm { bench; arch; cap; knobs } ->
    Measurement (Runner.measure_vm ~arch ~cap ~knobs bench)
  | Key.Lang { bench; lang } -> Measurement (Runner.measure_language ~lang bench)
  | Key.Deopt bench -> Deopt_stats (Runner.measure_deopt bench)

(* ------------------------------------------------------------------ *)
(* The store: the exactly-once memo table the registry uses too.  A key
   is computed with no lock held; a domain that asks for a key another
   domain is computing waits for that value instead of computing it again.
   One shard of 4,096 entries, above the catalogue's 752 keys, so nothing
   is evicted. *)

let fresh_store () : (Key.t, outcome) Artifact_cache.t =
  Artifact_cache.create ~capacity:4096 ~shards:1 ()

let store = ref (fresh_store ())
let get key = snd (Artifact_cache.find_or_add !store key (fun () -> exec key))
let reset () = store := fresh_store ()

let measurement key =
  match get key with
  | Measurement m -> m
  | Deopt_stats _ -> invalid_arg "Scheduler.measurement: a deopt key"

let deopt_stats bench =
  match get (Key.deopt bench) with
  | Deopt_stats d -> d
  | Measurement _ -> assert false

(* ------------------------------------------------------------------ *)
(* Parallel execution *)

let default_jobs () = Domain.recommended_domain_count ()

let parallel_map (type a b) ~jobs (f : a -> b) (items : a list) : b list =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f items
  else begin
    let results : b option array = Array.make n None in
    let next = Atomic.make 0 in
    let failure : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue := false
        else
          match f arr.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue := false
      done
    in
    let domains = List.init jobs (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> invalid_arg "parallel_map: hole") results)
  end

let prefetch ~jobs keys =
  let seen : (Key.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let todo =
    List.filter
      (fun k ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          not (Artifact_cache.mem !store k)
        end)
      keys
  in
  ignore (parallel_map ~jobs (fun k -> ignore (get k)) todo);
  List.length todo
