(** serve-shootout: nomapd started in-process with [Server.start] and one
    worker domain, driven in a closed loop by two client domains (one per
    vCPU) over keepalive connections with [Client.rpc].

    Requests are drawn by seed from the Shootout programs, arch NoMap,
    [iters=1]; a seeded half append a never-seen comment, so the artifact
    cache misses and the front end compiles.  It is the only workload
    through the protocol, poller, queue, artifact cache and front end,
    fresh-VM creation and the heap checksum, with cache hits beside
    misses.  ([iters=0] requests are too short: they time vCPU wake-ups,
    not the daemon.)

    The closed loop runs in windows of [window] requests: at each window
    boundary both clients are idle while the main domain takes a canary
    sample, and a request's latency is corrected by the samples on either
    side of its window.  A window is the pass: [ops_per_s] is the median
    over windows of requests per corrected second. *)

module Registry = Nomap_workloads.Registry
module Server = Nomap_server.Server
module Client = Nomap_server.Client
module Protocol = Nomap_server.Protocol
module Session = Nomap_server.Session
module Artifact_cache = Nomap_server.Artifact_cache
module Vm = Nomap_vm.Vm
module Heap_checksum = Nomap_vm.Heap_checksum
module Config = Nomap_nomap.Config
module Value = Nomap_runtime.Value
module Prng = Nomap_util.Prng
module Stats = Nomap_util.Stats
module Vec = Nomap_util.Vec

let programs = Array.of_list Registry.shootout
let np = Array.length programs
let arch = Config.NoMap_full
let clients = 2
let window = 24

(** Requests the traced run sends one by one before the closed loop, so
    its counts do not depend on how two clients interleave. *)
let prefix = 4 * np

type req = { idx : int; prog : int; miss : bool; src : string }

let cls q = (2 * q.prog) + if q.miss then 1 else 0

let request_stream seed =
  let prng = Prng.create ~seed in
  let next = ref 0 in
  fun () ->
    let idx = !next in
    incr next;
    let prog = Prng.int prng np and miss = Prng.bool prng in
    let src = programs.(prog).Registry.source in
    let src = if miss then Printf.sprintf "%s\n// perfbench seed %d request %d\n" src seed idx else src in
    { idx; prog; miss; src }

let run_of q =
  { Protocol.tier = Vm.Cap_ftl; arch; iters = 1; fuel = 0; deadline_ms = 0; src = q.src }

(** The oracle: the program run directly on an in-process [Vm], the way a
    session runs it. *)
let direct tr src =
  let span name f = Trace.span tr name f in
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm =
    span "vm.create" (fun () ->
        Vm.create ~fuel:Session.default_fuel ~config:(Config.create arch) ~tier_cap:Vm.Cap_ftl prog)
  in
  span "vm.run_main" (fun () -> ignore (Vm.run_main vm));
  let v = span "interp.call" (fun () -> Vm.call_function vm "benchmark" []) in
  (Value.to_js_string v, span "vm.heap_checksum" (fun () -> Heap_checksum.checksum (Vm.instance vm)))

let verify expected q = function
  | Protocol.Run_ok { result; heap; _ } -> (result, heap) = expected.(q.prog)
  | _ -> false

(** One completed request. *)
type done_op = { op_cls : int; lat : float; win : int; ok : bool }

type gate = {
  lock : Mutex.t;
  changed : Condition.t;
  mutable limit : int;  (** requests admitted so far, over all windows *)
  mutable taken : int;
  mutable finished : int;
  mutable win : int;
  mutable win_end : int64;
  mutable stop : bool;
  next_req : unit -> req;
}

(** Per-layer replays of one request in a client domain (traced run). *)
let replay tr local_cache q resp =
  let span name f = Trace.span tr name f in
  let req = Protocol.Run (run_of q) in
  ignore (span "protocol.encode" (fun () -> Protocol.encode_request req));
  Option.iter
    (fun resp ->
      let payload = Protocol.encode_response resp in
      ignore (span "protocol.decode" (fun () -> Protocol.decode_response payload)))
    resp;
  ignore (span "server.session_run" (fun () -> Session.run ~cache:local_cache (run_of q)));
  let tokens =
    if q.miss then begin
      let toks = span "jsir.lex" (fun () -> Nomap_jsir.Lexer.tokenize q.src) in
      let ast = span "jsir.parse" (fun () -> Nomap_jsir.Parser.parse_program_exn q.src) in
      ignore (span "bytecode.compile" (fun () -> Nomap_bytecode.Compile.compile_program ast));
      List.length toks
    end
    else 0
  in
  ignore (direct tr q.src);
  tokens

let client g conn expected tr local_cache (out : done_op Vec.t) =
  let rec loop () =
    Mutex.lock g.lock;
    while (not g.stop) && g.taken >= g.limit do
      Condition.wait g.changed g.lock
    done;
    if g.stop then Mutex.unlock g.lock
    else begin
      g.taken <- g.taken + 1;
      let win = g.win in
      let q = g.next_req () in
      Mutex.unlock g.lock;
      Trace.set_op tr ~op:q.idx ~cls:(cls q);
      let t0 = Host.now_ns () in
      let resp =
        try Some (Trace.span tr "op" (fun () -> Trace.span tr "server.rpc" (fun () -> Client.rpc conn (Protocol.Run (run_of q)))))
        with _ -> None
      in
      let t1 = Host.now_ns () in
      let ok = match resp with Some r -> verify expected q r | None -> false in
      ignore (Vec.push out { op_cls = cls q; lat = Host.span_s t0 t1; win; ok });
      if tr.Trace.on then ignore (replay tr local_cache q resp);
      Mutex.lock g.lock;
      g.finished <- g.finished + 1;
      if g.finished = g.limit then begin
        g.win_end <- t1;
        Condition.broadcast g.changed
      end;
      Mutex.unlock g.lock;
      loop ()
    end
  in
  loop ()

let parse_stat text key =
  (* "key=N" anywhere in the STATS text. *)
  let pat = key ^ "=" in
  let n = String.length text and k = String.length pat in
  let rec find i =
    if i + k > n then 0.0
    else if String.sub text i k = pat then begin
      let j = ref (i + k) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      float_of_string (String.sub text (i + k) (!j - i - k))
    end
    else find (i + 1)
  in
  find 0

let run ~seed ~seconds ~traced =
  let r = Report.create () in
  let socket_path = Printf.sprintf ".bench_build/perfbench-%d.sock" (Unix.getpid ()) in
  (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
  let off = Trace.create () in
  let expected = Array.make np ("", "") in
  let server = ref None and conns = ref [] in
  let setup_s, setup_raw =
    Report.time_setup (fun rep m ->
        Array.iteri
          (fun p (b : Registry.benchmark) ->
            Meter.time m ~cls:p (fun () -> expected.(p) <- direct off b.Registry.source))
          programs;
        Meter.time m ~cls:np (fun () ->
            let s =
              Server.start { (Server.default_config ~socket_path) with Server.domains = 1 }
            in
            server := Some s;
            conns := List.init (clients + 1) (fun _ -> Client.connect ~retry_for_s:5.0 socket_path));
        if rep < Report.setup_reps - 1 then begin
          List.iter Client.close !conns;
          Server.stop (Option.get !server)
        end)
  in
  Report.e2e r "setup_s" setup_s;
  Report.layer r "raw.setup_s" setup_raw;
  let server = Option.get !server in
  let main_conn, client_conns = (List.hd !conns, List.tl !conns) in
  let next_req = request_stream seed in
  let local_cache : Session.cache = Artifact_cache.create ~capacity:128 () in
  let main_tr = Trace.create () in
  (* Traced prefix: sequential requests whose counts must repeat exactly. *)
  let hits = ref 0 and misses = ref 0 and tokens = ref 0 and nmiss = ref 0 in
  let pc = Vmwork.zero_counts () in
  if traced then begin
    main_tr.Trace.on <- true;
    for _ = 1 to prefix do
      let q = next_req () in
      Trace.set_op main_tr ~op:q.idx ~cls:(cls q);
      Report.check r (fun () ->
          let resp =
            Trace.span main_tr "op" (fun () ->
                Trace.span main_tr "server.rpc" (fun () -> Client.rpc main_conn (Protocol.Run (run_of q))))
          in
          let t = replay main_tr local_cache q (Some resp) in
          if q.miss then begin
            tokens := !tokens + t;
            incr nmiss
          end;
          (match resp with
          | Protocol.Run_ok { cache_hit; counters = c; _ } ->
            if cache_hit then incr hits else incr misses;
            pc.Vmwork.instrs <- pc.Vmwork.instrs + c.Protocol.instrs;
            pc.Vmwork.checks <- pc.Vmwork.checks + c.Protocol.checks;
            pc.Vmwork.commits <- pc.Vmwork.commits + c.Protocol.tx_commits;
            pc.Vmwork.aborts <- pc.Vmwork.aborts + c.Protocol.tx_aborts;
            pc.Vmwork.deopts <- pc.Vmwork.deopts + c.Protocol.deopts;
            pc.Vmwork.ops <- pc.Vmwork.ops + 1
          | _ -> ());
          verify expected q resp)
    done;
    main_tr.Trace.on <- false
  end;
  let g =
    { lock = Mutex.create (); changed = Condition.create (); limit = 0; taken = 0; finished = 0;
      win = 0; win_end = 0L; stop = false; next_req }
  in
  let trs = List.init clients (fun c -> Trace.create ~id_base:((c + 1) * 1_000_000_000) ()) in
  let outs = List.init clients (fun _ -> Vec.create ~dummy:{ op_cls = 0; lat = 0.0; win = 0; ok = false }) in
  let doms =
    List.map2
      (fun (conn, tr) out -> Domain.spawn (fun () -> client g conn expected tr local_cache out))
      (List.combine client_conns trs) outs
  in
  (* One phase of windows; returns its meter and per-window durations. *)
  let phase ~trace ~secs =
    List.iter (fun tr -> tr.Trace.on <- trace) trs;
    let m = Meter.create () in
    let wins = ref [] in
    let d = Report.deadline secs in
    let w0 = g.win in
    while Report.before d do
      Meter.sample m;
      Mutex.lock g.lock;
      let t0 = Host.now_ns () in
      g.limit <- g.limit + window;
      Condition.broadcast g.changed;
      while g.finished < g.limit do
        Condition.wait g.changed g.lock
      done;
      wins := (g.win - w0, Host.span_s t0 g.win_end) :: !wins;
      g.win <- g.win + 1;
      Mutex.unlock g.lock
    done;
    Meter.close m;
    (m, w0, List.rev !wins)
  in
  let collect (m, w0, wins) =
    let nwins = List.length wins in
    List.iter
      (fun out ->
        Vec.iter
          (fun (o : done_op) ->
            let w = o.win - w0 in
            if w >= 0 && w < nwins then begin
              r.Report.attempted <- r.Report.attempted + 1;
              if not o.ok then r.Report.failed <- r.Report.failed + 1;
              Meter.record m { Meter.cls = o.op_cls; raw = o.lat; seg = w }
            end)
          out)
      outs;
    let rates ~corrected =
      List.map
        (fun (w, dur) ->
          float_of_int window /. if corrected then dur *. Meter.factor m w else dur)
        wins
    in
    (m, rates ~corrected:true, rates ~corrected:false)
  in
  let e2e (m, rates, raw_rates) =
    Report.e2e r "op_us" (Meter.class_geomean ~corrected:true m *. 1e6);
    Report.e2e r "ops_per_s" (Meter.median rates);
    Report.layer r "raw.op_us" (Meter.class_geomean ~corrected:false m *. 1e6);
    Report.layer r "raw.ops_per_s" (Meter.median raw_rates);
    Report.layer r "server.p50_ms" (Meter.percentile ~corrected:true m 50.0 *. 1e3);
    Report.layer r "server.p99_ms" (Meter.percentile ~corrected:true m 99.0 *. 1e3);
    let med, spread = Meter.canary_stats m in
    Report.layer r "host.canary_us" (med *. 1e6);
    Report.layer r "host.canary_spread" spread;
    Report.line r "host: canary_us=%.2f spread=%.4f raw op_us=%.3f raw ops_per_s=%.2f" (med *. 1e6)
      spread (Meter.class_geomean ~corrected:false m *. 1e6) (Meter.median raw_rates);
    Report.line r
      "serve-shootout: p50_ms=%.4f ms  p99_ms=%.4f ms  rps=%.1f  op_us=%.2f us  (%d requests, %d windows)"
      (Meter.percentile ~corrected:true m 50.0 *. 1e3)
      (Meter.percentile ~corrected:true m 99.0 *. 1e3)
      (Meter.median rates) (Meter.class_geomean ~corrected:true m *. 1e6) (Meter.count m)
      (List.length rates);
    if (not traced) && Meter.count m < 1000 then
      Printf.eprintf "perfbench: only %d requests; p99 has fewer than 10 samples beyond it\n"
        (Meter.count m)
  in
  let joined = ref false in
  let finish () =
    if not !joined then begin
      joined := true;
      Mutex.lock g.lock;
      g.stop <- true;
      Condition.broadcast g.changed;
      Mutex.unlock g.lock;
      List.iter Domain.join doms
    end
  in
  let spans =
    Fun.protect
      ~finally:(fun () ->
        finish ();
        List.iter Client.close !conns;
        Server.stop server;
        try Sys.remove socket_path with Sys_error _ -> ())
      (fun () ->
        if not traced then begin
          let p = collect (phase ~trace:false ~secs:seconds) in
          finish ();
          e2e p;
          []
        end
        else begin
          let p0 = phase ~trace:false ~secs:(seconds /. 3.0) in
          let p1 = phase ~trace:true ~secs:(seconds *. 2.0 /. 3.0) in
          let stats = Server.stats_text server in
          finish ();
          let ((m0, _, _) as c0) = collect p0 in
          let m1, _, _ = collect p1 in
          e2e c0;
          let spans = main_tr.Trace.spans @ List.concat_map (fun tr -> tr.Trace.spans) trs in
          let g name = Trace.class_geomean_us spans name in
          List.iter
            (fun (metric, span) -> Report.layer r metric (g span))
            [ ("server.rpc_us", "server.rpc"); ("server.session_run_us", "server.session_run");
              ("protocol.encode_us", "protocol.encode"); ("protocol.decode_us", "protocol.decode");
              ("jsir.lex_us", "jsir.lex"); ("jsir.parse_us", "jsir.parse");
              ("bytecode.compile_us", "bytecode.compile"); ("vm.create_us", "vm.create");
              ("vm.run_main_us", "vm.run_main"); ("interp.call_us", "interp.call");
              ("vm.heap_checksum_us", "vm.heap_checksum") ];
          Report.layer r "server.transport_us" (g "server.rpc" -. g "server.session_run");
          let rpc = Trace.class_medians spans "server.rpc" in
          let extra =
            List.filter_map
              (fun p ->
                match (List.assoc_opt (2 * p) rpc, List.assoc_opt ((2 * p) + 1) rpc) with
                | Some hit, Some miss -> Some (miss -. hit)
                | _ -> None)
              (List.init np Fun.id)
          in
          Report.layer r "server.miss_extra_us" (if extra = [] then 0.0 else Stats.mean extra *. 1e6);
          Report.layer r "server.cache_hits" (float_of_int !hits);
          Report.layer r "server.cache_misses" (float_of_int !misses);
          Report.layer r "server.cache_hit_ratio"
            (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
          Report.layer r "jsir.tokens" (float_of_int !tokens /. float_of_int (max 1 !nmiss));
          Vmwork.report_counts r pc ~calls_per_op:1;
          Report.layer r "server.queue_depth" (parse_stat stats "depth");
          Report.layer r "server.accepted" (parse_stat stats "accepted");
          Report.layer r "server.overloaded_rejections" (parse_stat stats "overloaded_rejections");
          Report.layer r "trace.overhead_frac"
            (Meter.class_geomean ~corrected:true m1 /. Meter.class_geomean ~corrected:true m0 -. 1.0);
          Report.layer r "trace.child_cover_min" (Trace.min_child_share spans "op");
          spans
        end)
  in
  (r, spans)
