(** loadgen.exe: load generator for the nomapd daemon, closed- or
    open-loop.

    {b Closed loop} (default): [--clients N] client domains each run a
    fetch-execute loop over a shared request counter: take the next
    request number, send the corresponding workload-registry program to
    the daemon, block for the response, record the latency, repeat —
    offered load adapts to service rate instead of overrunning it.

    {b Open loop} ([--rps R1,R2,... --duration S]): requests fire on a
    fixed or Poisson ([--poisson]) schedule over [--conns] persistent
    connections, one sweep step per listed rate.  Latency is measured
    from each request's {e scheduled} fire time, not from when a sender
    got around to it, so sender-side queueing when the daemon falls
    behind is charged to the daemon (no coordinated omission).  A step is
    sustainable when nothing failed, nothing was shed (no
    timeouts/overloads), p99 stays under [--p99-limit-ms], and achieved
    throughput reaches 90% of target; the highest sustainable rate is the
    [max_sustainable_rps] headline, and every step lands in the
    latency-under-load curve.

    Requests cycle round-robin through the selected workloads, which
    makes the run mostly warm: each program compiles once (a cache miss)
    and every revisit is a hit, the serving-side analogue of the paper's
    hot-code amortization.

    Both modes report p50/p95/p99 ([Stats.percentile]), split into cold
    (artifact-cache miss) and warm (hit) populations, and write
    BENCH_server.json (schema nomap-server-v2).  Exit code 0 iff no
    response failed (and, under --check, every one matched direct [Vm]
    execution bit-for-bit); open-loop timeouts/overloads beyond the knee
    are measurements, not failures. *)

module Client = Nomap_server.Client
module Protocol = Nomap_server.Protocol
module Registry = Nomap_workloads.Registry
module Stats = Nomap_util.Stats
module Prng = Nomap_util.Prng
module Clock = Nomap_util.Clock
module Vm = Nomap_vm.Vm
module Config = Nomap_nomap.Config
module Value = Nomap_runtime.Value
module Heap_checksum = Nomap_vm.Heap_checksum

open Cmdliner

let socket =
  Arg.(
    value
    & opt string "nomapd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket path.")

let requests =
  Arg.(
    value & opt int 200
    & info [ "requests"; "n" ] ~docv:"N" ~doc:"Closed loop: total requests to issue.")

let clients =
  Arg.(
    value & opt int 4
    & info [ "clients"; "c" ] ~docv:"N" ~doc:"Closed loop: concurrent client domains.")

let rps =
  Arg.(
    value
    & opt (some string) None
    & info [ "rps" ] ~docv:"R1,R2,..."
        ~doc:
          "Open loop: comma-separated target request rates; each runs for $(b,--duration) \
           seconds and becomes one point of the latency-under-load curve.")

let duration =
  Arg.(
    value & opt float 5.0
    & info [ "duration" ] ~docv:"S" ~doc:"Open loop: seconds per swept rate.")

let conns =
  Arg.(
    value & opt int 8
    & info [ "conns" ] ~docv:"N"
        ~doc:"Open loop: persistent connections firing the schedule.")

let poisson =
  Arg.(
    value & flag
    & info [ "poisson" ]
        ~doc:"Open loop: Poisson arrivals (seeded, reproducible) instead of fixed spacing.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Open loop: Poisson schedule seed.")

let p99_limit =
  Arg.(
    value & opt float 50.0
    & info [ "p99-limit-ms" ] ~docv:"MS"
        ~doc:"Open loop: a swept rate is sustainable only if p99 stays under this.")

let suite =
  Arg.(
    value
    & opt string "shootout"
    & info [ "suite" ] ~docv:"NAME"
        ~doc:"Workload suite: sunspider, kraken, shootout, or all.")

let benchs =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"IDS" ~doc:"Comma-separated benchmark ids (overrides --suite).")

let tier =
  Arg.(value & opt string "ftl" & info [ "tier" ] ~docv:"T" ~doc:"interp|baseline|dfg|ftl.")

let arch =
  Arg.(
    value
    & opt string "NoMap"
    & info [ "arch" ] ~docv:"A" ~doc:"Architecture name (paper Table II), e.g. Base, NoMap.")

let iters =
  Arg.(
    value
    & opt int 0
    & info [ "iters" ] ~docv:"N" ~doc:"benchmark() calls per request after the top level.")

let fuel = Arg.(value & opt int 0 & info [ "fuel" ] ~docv:"N" ~doc:"Per-request fuel (0 = server default).")

let deadline =
  Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request queue deadline (0 = none).")

let json =
  Arg.(
    value
    & opt string "BENCH_server.json"
    & info [ "json" ] ~docv:"PATH" ~doc:"Machine-readable report path.")

let keepalive =
  Arg.(
    value & flag
    & info [ "keepalive" ]
        ~doc:
          "Closed loop: one persistent connection per client.  The daemon schedules frames, \
           not connections, so keepalive clients beyond the worker count are fine.  \
           Default: one connection per request.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Verify every response (result + heap checksum) against direct in-process Vm \
           execution; mismatches fail the run.")

let shutdown =
  Arg.(value & flag & info [ "shutdown" ] ~doc:"Send SHUTDOWN to the daemon after the run.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only the summary line.")

let parse_tier = function
  | "interp" -> Vm.Cap_interp
  | "baseline" -> Vm.Cap_baseline
  | "dfg" -> Vm.Cap_dfg
  | "ftl" -> Vm.Cap_ftl
  | t -> invalid_arg ("unknown tier " ^ t ^ " (interp|baseline|dfg|ftl)")

let parse_arch s =
  match
    List.find_opt
      (fun a -> String.lowercase_ascii (Config.name a) = String.lowercase_ascii s)
      Config.all
  with
  | Some a -> a
  | None ->
    invalid_arg
      ("unknown arch " ^ s ^ " (one of " ^ String.concat ", " (List.map Config.name Config.all)
     ^ ")")

let select_benchmarks suite benchs =
  match benchs with
  | Some ids ->
    List.map
      (fun id ->
        match Registry.by_id (String.trim id) with
        | Some b -> b
        | None -> invalid_arg ("unknown benchmark id " ^ id))
      (String.split_on_char ',' ids)
  | None -> (
    match String.lowercase_ascii suite with
    | "sunspider" -> Registry.of_suite Registry.Sunspider
    | "kraken" -> Registry.of_suite Registry.Kraken
    | "shootout" -> Registry.of_suite Registry.Shootout
    | "all" -> Registry.all
    | s -> invalid_arg ("unknown suite " ^ s))

(* One slot per request, so client domains record without contention. *)
type outcome = Ok_hit | Ok_miss | Timed_out | Overloaded | Failed of string

type record = { latency_s : float; outcome : outcome }

(* Direct in-process execution, for --check: must match the daemon's
   observation byte for byte (same VM entry points as Session.run). *)
let expected_observation ~tier ~arch ~iters ~fuel (b : Registry.benchmark) =
  let prog = Nomap_bytecode.Compile.compile_source ~name:b.Registry.name b.Registry.source in
  let fuel = if fuel <= 0 then Nomap_server.Session.default_fuel else fuel in
  let vm = Vm.create ~fuel ~config:(Config.create arch) ~tier_cap:tier prog in
  ignore (Vm.run_main vm);
  let last = ref None in
  for _ = 1 to iters do
    last := Some (Vm.call_function vm "benchmark" [])
  done;
  let result =
    match !last with
    | Some v -> Value.to_js_string v
    | None -> (
      match Vm.global vm "result" with Some v -> Value.to_js_string v | None -> "<no result>")
  in
  (result, Heap_checksum.checksum (Vm.instance vm))

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Shared per-run context: workload selection, expected observations,
   response classification.  Both loop modes use the same machinery so
   their latency populations are comparable. *)

type run_ctx = {
  benchmarks : Registry.benchmark array;
  mk_request : int -> int * Protocol.request;  (** request number -> (workload idx, RUN) *)
  classify : int -> Protocol.response -> outcome;
}

let make_run_ctx ~tier ~arch ~iters ~fuel ~deadline ~check benchmarks =
  (* Expected observations computed once per workload, on demand, shared
     across client domains. *)
  let expected = Array.make (Array.length benchmarks) None in
  let expected_lock = Mutex.create () in
  let expect i =
    Mutex.protect expected_lock (fun () ->
        match expected.(i) with
        | Some o -> o
        | None ->
          let o = expected_observation ~tier ~arch ~iters ~fuel benchmarks.(i) in
          expected.(i) <- Some o;
          o)
  in
  let mk_request i =
    let bidx = i mod Array.length benchmarks in
    let b = benchmarks.(bidx) in
    ( bidx,
      Protocol.Run
        { tier; arch; iters; fuel; deadline_ms = deadline; src = b.Registry.source } )
  in
  let classify bidx = function
    | Protocol.Run_ok { cache_hit; result; heap; _ } ->
      if check then begin
        let exp_result, exp_heap = expect bidx in
        if result <> exp_result || heap <> exp_heap then
          Failed
            (Printf.sprintf "%s: daemon said result=%s heap=%s, direct Vm says result=%s heap=%s"
               benchmarks.(bidx).Registry.id result heap exp_result exp_heap)
        else if cache_hit then Ok_hit
        else Ok_miss
      end
      else if cache_hit then Ok_hit
      else Ok_miss
    | Protocol.Error { err = Protocol.Etimeout; _ } -> Timed_out
    | Protocol.Error { err = Protocol.Eoverloaded; _ } -> Overloaded
    | Protocol.Error { err; msg } ->
      Failed (Printf.sprintf "%s: %s" (Protocol.err_name err) msg)
    | Protocol.Stats_ok _ | Protocol.Pong | Protocol.Shutting_down ->
      Failed "unexpected response kind"
  in
  { benchmarks; mk_request; classify }

type tally = {
  oks : record list;
  warm : record list;
  cold : record list;
  timeouts : record list;
  overloaded : record list;
  failures : string list;
}

let tally records =
  let recs = Array.to_list records |> List.filter_map (fun r -> r) in
  let by p = List.filter (fun r -> p r.outcome) recs in
  {
    oks = by (function Ok_hit | Ok_miss -> true | _ -> false);
    warm = by (function Ok_hit -> true | _ -> false);
    cold = by (function Ok_miss -> true | _ -> false);
    timeouts = by (function Timed_out -> true | _ -> false);
    overloaded = by (function Overloaded -> true | _ -> false);
    failures = List.filter_map (function { outcome = Failed m; _ } -> Some m | _ -> None) recs;
  }

let ms l = List.map (fun r -> r.latency_s *. 1000.0) l

let pct l p = if l = [] then 0.0 else Stats.percentile (ms l) p

let fetch_stats_and_maybe_shutdown ~socket ~shutdown =
  let conn = Client.connect ~retry_for_s:5.0 socket in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      let stats =
        match Client.rpc conn Protocol.Stats with
        | Protocol.Stats_ok s -> s
        | _ -> "<stats unavailable>"
      in
      if shutdown then ignore (Client.rpc conn Protocol.Shutdown);
      stats)

(* ------------------------------------------------------------------ *)
(* Open loop *)

type step = {
  target_rps : float;
  offered : int;
  wall_s : float;
  achieved_rps : float;
  t : tally;
  p50 : float;
  p95 : float;
  p99 : float;
  sustainable : bool;
}

let run_open_step ~socket ~rctx ~conns ~poisson ~seed ~duration ~p99_limit rate =
  let n = max 1 (int_of_float (rate *. duration)) in
  (* The whole schedule is precomputed so every sender agrees on fire
     times and a rerun with the same seed offers the identical load. *)
  let arrivals = Array.make n 0.0 in
  if poisson then begin
    let prng = Prng.create ~seed in
    let at = ref 0.0 in
    for i = 0 to n - 1 do
      let u = max 1e-12 (Prng.float prng 1.0) in
      at := !at +. (-.log u /. rate);
      arrivals.(i) <- !at
    done
  end
  else
    for i = 0 to n - 1 do
      arrivals.(i) <- float_of_int i /. rate
    done;
  let records = Array.make n None in
  let next = Atomic.make 0 in
  let start = Clock.now_s () +. 0.05 in
  let sender () =
    let conn = Client.connect ~retry_for_s:5.0 socket in
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let fire = start +. arrivals.(i) in
            let d = fire -. Clock.now_s () in
            if d > 0.0 then Unix.sleepf d;
            let bidx, req = rctx.mk_request i in
            let resp = Client.rpc conn req in
            (* Latency from the scheduled fire time: a sender that fell
               behind (every connection busy) is queueing delay the load
               really experienced. *)
            let latency_s = Clock.now_s () -. fire in
            records.(i) <- Some { latency_s; outcome = rctx.classify bidx resp };
            go ()
          end
        in
        go ())
  in
  let senders = List.init conns (fun _ -> Domain.spawn sender) in
  List.iter Domain.join senders;
  let wall_s = Float.max (Clock.now_s () -. start) duration in
  let t = tally records in
  let p50 = pct t.oks 50.0 and p95 = pct t.oks 95.0 and p99 = pct t.oks 99.0 in
  let achieved_rps = float_of_int (List.length t.oks) /. wall_s in
  let sustainable =
    t.failures = [] && t.timeouts = [] && t.overloaded = []
    && List.length t.oks > 0
    && p99 <= p99_limit
    && achieved_rps >= 0.9 *. rate
  in
  { target_rps = rate; offered = n; wall_s; achieved_rps; t; p50; p95; p99; sustainable }

let parse_rates s =
  String.split_on_char ',' s
  |> List.map (fun r ->
         match float_of_string_opt (String.trim r) with
         | Some f when f > 0.0 -> f
         | _ -> invalid_arg ("bad --rps value " ^ r))

let open_loop ~socket ~rctx ~conns ~poisson ~seed ~duration ~p99_limit ~check ~shutdown ~quiet
    ~json ~tier_s ~arch_s ~iters rates =
  (* Warm the artifact cache first: the sweep measures steady-state
     latency under load, and a one-time compile landing inside the first
     (lowest-rate, fewest-samples) step would dominate its p99. *)
  (let conn = Client.connect ~retry_for_s:5.0 socket in
   Fun.protect
     ~finally:(fun () -> Client.close conn)
     (fun () ->
       Array.iteri
         (fun i _ ->
           let bidx, req = rctx.mk_request i in
           ignore bidx;
           ignore (Client.rpc conn req))
         rctx.benchmarks));
  let steps =
    List.map
      (fun rate ->
        let s = run_open_step ~socket ~rctx ~conns ~poisson ~seed ~duration ~p99_limit rate in
        if not quiet then begin
          List.iteri
            (fun i m -> if i < 5 then Printf.eprintf "loadgen: FAILURE %s\n%!" m)
            s.t.failures;
          Printf.printf
            "rps %7.1f: offered %5d, ok %5d, p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms, \
             achieved %7.1f rps, timeout %d overloaded %d failed %d%s\n%!"
            s.target_rps s.offered (List.length s.t.oks) s.p50 s.p95 s.p99 s.achieved_rps
            (List.length s.t.timeouts)
            (List.length s.t.overloaded)
            (List.length s.t.failures)
            (if s.sustainable then "" else "  [over the knee]")
        end;
        (* Let queued work drain so one step's backlog doesn't pollute the
           next step's latency population. *)
        Unix.sleepf 0.2;
        s)
      rates
  in
  let max_sustainable_rps =
    List.fold_left (fun acc s -> if s.sustainable then Float.max acc s.target_rps else acc) 0.0
      steps
  in
  let stats_txt = fetch_stats_and_maybe_shutdown ~socket ~shutdown in
  if not quiet then begin
    print_endline "--- server stats ---";
    print_endline stats_txt
  end;
  let oc = open_out json in
  let step_json s =
    Printf.sprintf
      {|    { "target_rps": %.3f, "offered": %d, "ok": %d, "achieved_rps": %.3f,
      "p50_ms": %.6f, "p95_ms": %.6f, "p99_ms": %.6f,
      "warm": %d, "cold": %d, "timeouts": %d, "overloaded": %d, "errors": %d,
      "sustainable": %b }|}
      s.target_rps s.offered (List.length s.t.oks) s.achieved_rps s.p50 s.p95 s.p99
      (List.length s.t.warm) (List.length s.t.cold)
      (List.length s.t.timeouts)
      (List.length s.t.overloaded)
      (List.length s.t.failures) s.sustainable
  in
  Printf.fprintf oc
    {|{
  "schema": "nomap-server-v2",
  "mode": "open-loop",
  "host": { "ocaml_version": "%s", "word_size": %d, "recommended_domains": %d },
  "socket": "%s",
  "workloads": %d,
  "tier": "%s",
  "arch": "%s",
  "iters": %d,
  "conns": %d,
  "duration_s": %.3f,
  "poisson": %b,
  "checked": %b,
  "p99_limit_ms": %.3f,
  "max_sustainable_rps": %.3f,
  "curve": [
%s
  ]
}
|}
    (json_escape Sys.ocaml_version) Sys.word_size
    (Domain.recommended_domain_count ())
    (json_escape socket)
    (Array.length rctx.benchmarks)
    (json_escape tier_s) (json_escape arch_s) iters conns duration poisson check p99_limit
    max_sustainable_rps
    (String.concat ",\n" (List.map step_json steps));
  close_out oc;
  let total_failures = List.concat_map (fun s -> s.t.failures) steps in
  Printf.printf
    "max sustainable rps %.1f (p99 <= %.1f ms) over %d rates x %.1fs -> %s\n"
    max_sustainable_rps p99_limit (List.length steps) duration json;
  if total_failures = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* Closed loop *)

let closed_loop ~socket ~rctx ~requests ~clients ~keepalive ~check ~shutdown ~quiet ~json
    ~tier ~arch ~iters () =
  let records = Array.make requests None in
  let next = Atomic.make 0 in
  let run_one conn i =
    let bidx, req = rctx.mk_request i in
    let t0 = Clock.now_s () in
    let resp = Client.rpc conn req in
    let latency_s = Clock.now_s () -. t0 in
    records.(i) <- Some { latency_s; outcome = rctx.classify bidx resp }
  in
  let client_loop () =
    if keepalive then begin
      let conn = Client.connect ~retry_for_s:5.0 socket in
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < requests then begin
          run_one conn i;
          go ()
        end
      in
      Fun.protect ~finally:(fun () -> Client.close conn) go
    end
    else
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < requests then begin
          let conn = Client.connect ~retry_for_s:5.0 socket in
          Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> run_one conn i);
          go ()
        end
      in
      go ()
  in
  let wall0 = Clock.now_s () in
  let domains = List.init clients (fun _ -> Domain.spawn client_loop) in
  List.iter Domain.join domains;
  let wall_s = Clock.now_s () -. wall0 in
  let t = tally records in
  if not quiet then
    List.iteri
      (fun i m -> if i < 10 then Printf.eprintf "loadgen: FAILURE %s\n%!" m)
      t.failures;
  let throughput = if wall_s > 0.0 then float_of_int (List.length t.oks) /. wall_s else 0.0 in
  let hit_rate =
    let h = List.length t.warm and m = List.length t.cold in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let cold_p50 = pct t.cold 50.0 and warm_p50 = pct t.warm 50.0 in
  let stats_txt = fetch_stats_and_maybe_shutdown ~socket ~shutdown in
  if not quiet then begin
    Printf.printf "--- nomapd load test: %d requests, %d clients, %d workloads (%s/%s, iters %d) ---\n"
      requests clients
      (Array.length rctx.benchmarks)
      (Vm.cap_name tier) (Config.name arch) iters;
    Printf.printf "wall %.2fs  throughput %.0f req/s\n" wall_s throughput;
    Printf.printf "latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n" (pct t.oks 50.0)
      (pct t.oks 95.0) (pct t.oks 99.0);
    Printf.printf "cold (cache miss): %4d requests, p50 %.3f ms\n" (List.length t.cold) cold_p50;
    Printf.printf "warm (cache hit):  %4d requests, p50 %.3f ms  (%.1fx faster, hit rate %.1f%%)\n"
      (List.length t.warm) warm_p50
      (if warm_p50 > 0.0 then cold_p50 /. warm_p50 else 0.0)
      (100.0 *. hit_rate);
    Printf.printf "errors %d  timeouts %d  overloaded %d%s\n" (List.length t.failures)
      (List.length t.timeouts) (List.length t.overloaded)
      (if check then "  (responses verified against direct Vm execution)" else "");
    print_endline "--- server stats ---";
    print_endline stats_txt
  end;
  let oc = open_out json in
  Printf.fprintf oc
    {|{
  "schema": "nomap-server-v2",
  "mode": "closed-loop",
  "host": { "ocaml_version": "%s", "word_size": %d, "recommended_domains": %d },
  "socket": "%s",
  "requests": %d,
  "clients": %d,
  "workloads": %d,
  "tier": "%s",
  "arch": "%s",
  "iters": %d,
  "keepalive": %b,
  "checked": %b,
  "wall_s": %.6f,
  "throughput_rps": %.3f,
  "ok": %d,
  "errors": %d,
  "timeouts": %d,
  "overloaded": %d,
  "latency_ms": { "p50": %.6f, "p95": %.6f, "p99": %.6f },
  "cold": { "count": %d, "p50_ms": %.6f },
  "warm": { "count": %d, "p50_ms": %.6f },
  "cold_over_warm_p50": %.3f,
  "cache_hit_rate": %.4f
}
|}
    (json_escape Sys.ocaml_version) Sys.word_size
    (Domain.recommended_domain_count ())
    (json_escape socket) requests clients
    (Array.length rctx.benchmarks)
    (json_escape (Vm.cap_name tier))
    (json_escape (Config.name arch))
    iters keepalive check wall_s throughput (List.length t.oks) (List.length t.failures)
    (List.length t.timeouts)
    (List.length t.overloaded)
    (pct t.oks 50.0) (pct t.oks 95.0) (pct t.oks 99.0) (List.length t.cold) cold_p50
    (List.length t.warm) warm_p50
    (if warm_p50 > 0.0 then cold_p50 /. warm_p50 else 0.0)
    hit_rate;
  close_out oc;
  Printf.printf "%d/%d ok (%.0f req/s, p50 %.3f ms warm / %.3f ms cold) -> %s\n"
    (List.length t.oks) requests throughput warm_p50 cold_p50 json;
  if t.failures = [] && t.timeouts = [] && t.overloaded = [] then 0 else 1

let main socket requests clients rps duration conns poisson seed p99_limit suite benchs tier_s
    arch_s iters fuel deadline json keepalive check shutdown quiet =
  let tier = parse_tier tier_s and arch = parse_arch arch_s in
  let benchmarks = Array.of_list (select_benchmarks suite benchs) in
  if Array.length benchmarks = 0 then invalid_arg "no benchmarks selected";
  let rctx = make_run_ctx ~tier ~arch ~iters ~fuel ~deadline ~check benchmarks in
  match rps with
  | Some rates ->
    let rates = parse_rates rates in
    let conns = max 1 conns and duration = Float.max 0.1 duration in
    open_loop ~socket ~rctx ~conns ~poisson ~seed ~duration ~p99_limit ~check ~shutdown ~quiet
      ~json ~tier_s:(Vm.cap_name tier) ~arch_s:(Config.name arch) ~iters rates
  | None ->
    let requests = max 1 requests and clients = max 1 clients in
    closed_loop ~socket ~rctx ~requests ~clients ~keepalive ~check ~shutdown ~quiet ~json ~tier
      ~arch ~iters ()

let cmd =
  let doc = "Closed- and open-loop load generator for the nomapd execution daemon" in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const main $ socket $ requests $ clients $ rps $ duration $ conns $ poisson $ seed
      $ p99_limit $ suite $ benchs $ tier $ arch $ iters $ fuel $ deadline $ json $ keepalive
      $ check $ shutdown $ quiet)

let () = exit (Cmd.eval' cmd)
