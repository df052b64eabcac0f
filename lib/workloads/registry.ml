(** Benchmark registry: ids, suite membership, AvgS membership (paper Table
    III), compiled programs, and expected checksums established by the
    reference interpreter. *)

type suite = Sunspider | Kraken | Shootout

let suite_name = function
  | Sunspider -> "SunSpider"
  | Kraken -> "Kraken"
  | Shootout -> "Shootout"

type benchmark = {
  id : string;  (** e.g. "S01" *)
  name : string;  (** e.g. "3d-cube" *)
  suite : suite;
  source : string;
  in_avg_s : bool;
}

let make suite prefix avg_s i (name, source) =
  {
    id = Printf.sprintf "%s%02d" prefix (i + 1);
    name;
    suite;
    source;
    in_avg_s = List.mem (i + 1) avg_s;
  }

let sunspider =
  List.mapi (make Sunspider "S" Sunspider.avg_s_members) Sunspider.all

let kraken = List.mapi (make Kraken "K" Kraken.avg_s_members) Kraken.all

let shootout =
  List.mapi (fun i (name, source) ->
      { id = Printf.sprintf "SH%02d" (i + 1); name; suite = Shootout; source; in_avg_s = true })
    Shootout.all

let all = sunspider @ kraken @ shootout

let by_id id = List.find_opt (fun b -> b.id = id) all
let by_name name = List.find_opt (fun b -> b.name = name) all

let of_suite = function
  | Sunspider -> sunspider
  | Kraken -> kraken
  | Shootout -> shootout

(** Compile a benchmark's source (memoized).  The cache is an
    [Artifact_cache] — the same mutex-guarded LRU the execution daemon
    shares across domains — sized above the benchmark count so registry
    entries are never evicted.  Its exactly-once contract (lock held
    across the compile) is what lets parallel scheduler workers all read
    the physically identical program value. *)
let compiled_cache : (string, Nomap_bytecode.Opcode.program) Nomap_server.Artifact_cache.t =
  Nomap_server.Artifact_cache.create ~capacity:128 ()

let compile b =
  snd
    (Nomap_server.Artifact_cache.find_or_add compiled_cache b.id (fun () ->
         Nomap_bytecode.Compile.compile_source ~name:b.name b.source))

(** Reference result: run [benchmark()] once under the plain interpreter. *)
let run_reference b =
  let prog = compile b in
  let inst = Nomap_interp.Instance.create ~fuel:500_000_000 prog in
  let rec env =
    {
      Nomap_interp.Interp.instance = inst;
      mode = Nomap_interp.Interp.Interp_tier;
      profile = None;
      charge = (fun _ -> ());
      call =
        (fun ~fid ~this ~args -> Nomap_interp.Interp.call_function env ~fid ~this ~args);
    }
  in
  ignore
    (Nomap_interp.Interp.call_function env ~fid:prog.Nomap_bytecode.Opcode.main_fid
       ~this:Nomap_runtime.Value.Undef ~args:[]);
  match Nomap_bytecode.Opcode.func_by_name prog "benchmark" with
  | Some f ->
    Nomap_runtime.Value.to_js_string
      (Nomap_interp.Interp.call_function env ~fid:f.Nomap_bytecode.Opcode.fid
         ~this:Nomap_runtime.Value.Undef ~args:[])
  | None -> invalid_arg (b.id ^ " has no benchmark() function")

(** [run_reference], memoized per benchmark in an [Artifact_cache] like
    [compile]: computed exactly once even when several domains ask at the
    same time, and every caller gets the physically identical string. *)
let reference_cache : (string, string) Nomap_server.Artifact_cache.t =
  Nomap_server.Artifact_cache.create ~capacity:128 ()

let reference_result b =
  snd
    (Nomap_server.Artifact_cache.find_or_add reference_cache b.id (fun () -> run_reference b))
