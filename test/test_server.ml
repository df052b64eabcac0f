(* The nomapd serving layer: wire protocol totality, artifact-cache LRU
   semantics (including a cross-domain hammer), and a live daemon on a temp
   socket exercised by concurrent clients against the fuzz corpus, checked
   bit-for-bit against direct Vm execution. *)

module Protocol = Nomap_server.Protocol
module Artifact_cache = Nomap_server.Artifact_cache
module Session = Nomap_server.Session
module Server = Nomap_server.Server
module Client = Nomap_server.Client
module Vm = Nomap_vm.Vm
module Heap_checksum = Nomap_vm.Heap_checksum
module Config = Nomap_nomap.Config
module Value = Nomap_runtime.Value

(* ------------------------------------------------------------------ *)
(* Protocol *)

let sample_run =
  {
    Protocol.tier = Vm.Cap_ftl;
    arch = Config.NoMap_full;
    iters = 3;
    fuel = 1_000_000;
    deadline_ms = 250;
    src = "var result = 1 + 2;";
  }

let roundtrip_request req =
  match Protocol.decode_request (Protocol.encode_request req) with
  | Ok req' -> req'
  | Result.Error msg -> Alcotest.failf "request did not roundtrip: %s" msg

let roundtrip_response resp =
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok resp' -> resp'
  | Result.Error msg -> Alcotest.failf "response did not roundtrip: %s" msg

let test_request_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.(check bool) "request roundtrips" true (roundtrip_request req = req))
    [
      Protocol.Run sample_run;
      Protocol.Run { sample_run with tier = Vm.Cap_interp; arch = Config.Base; src = "" };
      Protocol.Run_shared { run = sample_run; session = "room-1" };
      Protocol.Run_shared { run = sample_run; session = "" };
      Protocol.Stats;
      Protocol.Ping;
      Protocol.Shutdown;
    ]

let test_response_roundtrip () =
  let counters =
    {
      Protocol.instrs = 12345;
      checks = 678;
      cycles = 90123.5;
      tx_commits = 4;
      tx_aborts = 1;
      deopts = 2;
      ftl_calls = 7;
    }
  in
  List.iter
    (fun resp ->
      Alcotest.(check bool) "response roundtrips" true (roundtrip_response resp = resp))
    [
      Protocol.Run_ok { cache_hit = true; result = "42"; heap = "deadbeefdeadbeef"; counters };
      Protocol.Stats_ok "queue depth=0\ncache size=1";
      Protocol.Pong;
      Protocol.Shutting_down;
      Protocol.Error { err = Protocol.Eoverloaded; msg = "queue full" };
      Protocol.Error { err = Protocol.Etimeout; msg = "" };
      Protocol.Error { err = Protocol.Efuel_limit; msg = "requested fuel 1 exceeds limit 0" };
    ]

let expect_bad what payload =
  match Protocol.decode_request payload with
  | Ok _ -> Alcotest.failf "%s: decoder accepted malformed input" what
  | Result.Error _ -> ()

let test_malformed_rejected () =
  let good = Protocol.encode_request (Protocol.Run sample_run) in
  expect_bad "empty" "";
  expect_bad "bad version" ("\x07" ^ String.sub good 1 (String.length good - 1));
  expect_bad "unknown verb" "\x01\x63";
  expect_bad "truncated run" (String.sub good 0 (String.length good - 3));
  expect_bad "trailing garbage" (good ^ "xx");
  (* Announced string length far past the payload. *)
  expect_bad "lying length"
    "\x01\x01\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff";
  match Protocol.decode_response "\x01\x63" with
  | Ok _ -> Alcotest.fail "unknown status accepted"
  | Result.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Artifact cache *)

let test_lru_eviction_order () =
  let c = Artifact_cache.create ~capacity:2 () in
  let add k = ignore (Artifact_cache.find_or_add c k (fun () -> String.uppercase_ascii k)) in
  add "a";
  add "b";
  (* Refresh "a": now "b" is the least recently used. *)
  let hit, v = Artifact_cache.find_or_add c "a" (fun () -> assert false) in
  Alcotest.(check bool) "refresh was a hit" true hit;
  Alcotest.(check string) "cached value" "A" v;
  add "c";
  Alcotest.(check bool) "a survives (recently used)" true (Artifact_cache.mem c "a");
  Alcotest.(check bool) "b evicted (LRU)" false (Artifact_cache.mem c "b");
  Alcotest.(check bool) "c present" true (Artifact_cache.mem c "c");
  let s = Artifact_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Artifact_cache.hits;
  Alcotest.(check int) "misses" 3 s.Artifact_cache.misses;
  Alcotest.(check int) "evictions" 1 s.Artifact_cache.evictions;
  Alcotest.(check int) "size" 2 s.Artifact_cache.size;
  (* Re-adding the victim recomputes: a genuine miss. *)
  add "b";
  let s = Artifact_cache.stats c in
  Alcotest.(check int) "miss after eviction" 4 s.Artifact_cache.misses

let test_cache_compute_failure_not_inserted () =
  let c = Artifact_cache.create ~capacity:4 () in
  (try ignore (Artifact_cache.find_or_add c "k" (fun () -> failwith "compile error"))
   with Failure _ -> ());
  Alcotest.(check bool) "failed compute not cached" false (Artifact_cache.mem c "k");
  let _, v = Artifact_cache.find_or_add c "k" (fun () -> 7) in
  Alcotest.(check int) "recomputed after failure" 7 v

let test_cache_domain_hammer () =
  let capacity = 8 and keyspace = 16 and domains = 4 and iters = 2000 in
  let c = Artifact_cache.create ~capacity () in
  let computes = Array.init keyspace (fun _ -> Atomic.make 0) in
  let worker d () =
    for i = 0 to iters - 1 do
      let k = ((d * 7919) + (i * 104729) + (i * i * 31)) mod keyspace in
      let _, v =
        Artifact_cache.find_or_add c k (fun () ->
            Atomic.incr computes.(k);
            k * 2)
      in
      if v <> k * 2 then Alcotest.failf "domain %d saw wrong value %d for key %d" d v k
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let s = Artifact_cache.stats c in
  let total_computes = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 computes in
  Alcotest.(check int) "every lookup accounted" (domains * iters)
    (s.Artifact_cache.hits + s.Artifact_cache.misses);
  Alcotest.(check int) "misses = computes" total_computes s.Artifact_cache.misses;
  Alcotest.(check int) "evictions = computes - live entries"
    (total_computes - s.Artifact_cache.size)
    s.Artifact_cache.evictions;
  Alcotest.(check bool) "bounded" true (s.Artifact_cache.size <= capacity)

(* Regression for the hash-collision bug: the session used to key the
   artifact cache on hash(src) x tier x arch alone, so two sources
   colliding on the 64-bit fingerprint served each other's compiled
   program.  The fix keeps the source in the key; structural key equality
   then verifies it on every hit.  A real FNV-1a-64 collision is
   impractical to construct, so we force one the same way the bug would
   manifest: a deliberately truncated (1-bit) hash makes every source
   collide, and the cache must still keep the artifacts apart. *)
let test_cache_truncated_hash_collision () =
  let truncated src = Int64.logand (Nomap_util.Fnv.hash64 src) 1L in
  let key src =
    { Session.hash = truncated src; src; tier = Vm.Cap_ftl; arch = Config.NoMap_full }
  in
  let srcs =
    (* More sources than hash values: the pigeonhole guarantees collisions
       whichever way the truncated bits fall. *)
    List.init 4 (fun i -> Printf.sprintf "var result = %d;" i)
  in
  let cache : (Session.key, string) Artifact_cache.t = Artifact_cache.create ~capacity:16 () in
  List.iter
    (fun src ->
      let hit, artifact = Artifact_cache.find_or_add cache (key src) (fun () -> src) in
      Alcotest.(check bool) ("first sight of " ^ src ^ " is a miss") false hit;
      Alcotest.(check string) "fresh artifact" src artifact)
    srcs;
  (* Every re-lookup must hit AND return its own artifact, never a
     hash-colliding neighbour's. *)
  List.iter
    (fun src ->
      let hit, artifact =
        Artifact_cache.find_or_add cache (key src) (fun () ->
            Alcotest.fail "re-lookup recomputed")
      in
      Alcotest.(check bool) ("re-lookup of " ^ src ^ " hits") true hit;
      Alcotest.(check string) "own artifact, not a collision victim's" src artifact)
    srcs

(* ------------------------------------------------------------------ *)
(* Live daemon integration *)

let corpus_dir = if Sys.file_exists "fuzz_corpus" then "fuzz_corpus" else "test/fuzz_corpus"

let corpus () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".js")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in (Filename.concat corpus_dir f) in
         let n = in_channel_length ic in
         let s = really_input_string ic n in
         close_in ic;
         (f, s))

let temp_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nomapd-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(domains = 2) ?(queue = 64) ?(max_fuel = Session.default_fuel) cfg_f =
  let path = temp_socket () in
  let t =
    Server.start
      {
        Server.socket_path = path;
        domains;
        queue_capacity = queue;
        cache_capacity = 32;
        max_connections = 128;
        max_fuel;
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> cfg_f path t)

(* Exactly Session.run's execution recipe, in-process: the contract the
   daemon must match byte for byte. *)
let direct ~tier ~arch src =
  let prog = Nomap_bytecode.Compile.compile_source src in
  let vm = Vm.create ~fuel:Session.default_fuel ~config:(Config.create arch) ~tier_cap:tier prog in
  ignore (Vm.run_main vm);
  let result =
    match Vm.global vm "result" with Some v -> Value.to_js_string v | None -> "<no result>"
  in
  (result, Heap_checksum.checksum (Vm.instance vm))

let run_req ?(tier = Vm.Cap_ftl) ?(arch = Config.NoMap_full) ?(iters = 0) ?(fuel = 0)
    ?(deadline_ms = 0) src =
  Protocol.Run { tier; arch; iters; fuel; deadline_ms; src }

let test_corpus_concurrent_clients () =
  let programs = corpus () in
  Alcotest.(check bool) "corpus nonempty" true (programs <> []);
  let expected =
    List.map (fun (f, src) -> (f, src, direct ~tier:Vm.Cap_ftl ~arch:Config.NoMap_full src))
      programs
  in
  with_server (fun path _t ->
      let clients = 4 in
      let failures = Atomic.make 0 in
      let client () =
        (* One persistent connection per client: more clients than worker
           domains would starve with keepalive, so connect per program. *)
        List.iter
          (fun (f, src, (exp_result, exp_heap)) ->
            let conn = Client.connect ~retry_for_s:5.0 path in
            Fun.protect
              ~finally:(fun () -> Client.close conn)
              (fun () ->
                match Client.rpc conn (run_req src) with
                | Protocol.Run_ok { result; heap; _ } ->
                  if result <> exp_result || heap <> exp_heap then begin
                    Printf.eprintf "%s: daemon (%s,%s) <> direct (%s,%s)\n%!" f result heap
                      exp_result exp_heap;
                    Atomic.incr failures
                  end
                | resp ->
                  Printf.eprintf "%s: unexpected response %s\n%!" f
                    (Protocol.encode_response resp);
                  Atomic.incr failures))
          expected
      in
      let ds = List.init clients (fun _ -> Domain.spawn client) in
      List.iter Domain.join ds;
      Alcotest.(check int) "all concurrent responses bit-identical to direct Vm" 0
        (Atomic.get failures))

(* [g] starts Undef (falsy) in a fresh VM; if any globals/heap leaked
   between requests, the second run would observe g = 1 and flip to 1. *)
let isolation_probe = "var n = (g ? 1 : 0);\ng = 1;\nvar result = n;"

let test_session_isolation () =
  with_server (fun path _t ->
      let conn = Client.connect ~retry_for_s:5.0 path in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          for i = 1 to 3 do
            match Client.rpc conn (run_req isolation_probe) with
            | Protocol.Run_ok { result; _ } ->
              Alcotest.(check string)
                (Printf.sprintf "request %d sees a fresh VM" i)
                "0" result
            | _ -> Alcotest.fail "isolation probe did not run"
          done))

let test_error_paths () =
  with_server (fun path _t ->
      (* Ping. *)
      let conn = Client.connect ~retry_for_s:5.0 path in
      (match Client.rpc conn Protocol.Ping with
      | Protocol.Pong -> ()
      | _ -> Alcotest.fail "no pong");
      (* Crash: program that doesn't parse. *)
      (match Client.rpc conn (run_req "var = ) {") with
      | Protocol.Error { err = Protocol.Ecrash; _ } -> ()
      | _ -> Alcotest.fail "parse error should be a crash response");
      (* Timeout: fuel exhaustion. *)
      (match
         Client.rpc conn
           (run_req ~fuel:1000 "var s = 0; for (var i = 0; i < 1000000; i++) { s = s + i; } var result = s;")
       with
      | Protocol.Error { err = Protocol.Etimeout; _ } -> ()
      | _ -> Alcotest.fail "fuel exhaustion should be a timeout response");
      (* The connection survives run-level errors and still serves. *)
      (match Client.rpc conn (run_req "var result = 6 * 7;") with
      | Protocol.Run_ok { result; _ } -> Alcotest.(check string) "recovers" "42" result
      | _ -> Alcotest.fail "connection did not recover");
      (* STATS over the wire. *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      (match Client.rpc conn Protocol.Stats with
      | Protocol.Stats_ok text ->
        Alcotest.(check bool) "stats mentions the cache" true (contains text "cache")
      | _ -> Alcotest.fail "no stats");
      Client.close conn;
      (* Malformed frame: garbage payload gets a MALFORMED reply, then the
         daemon hangs up. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Protocol.write_frame fd "this is not a request";
      (match Protocol.read_frame fd with
      | Protocol.Frame payload -> (
        match Protocol.decode_response payload with
        | Ok (Protocol.Error { err = Protocol.Emalformed; _ }) -> ()
        | _ -> Alcotest.fail "garbage should be answered MALFORMED")
      | _ -> Alcotest.fail "no reply to garbage");
      (match Protocol.read_frame fd with
      | Protocol.Eof -> ()
      | _ -> Alcotest.fail "daemon should hang up after a malformed frame");
      Unix.close fd)

(* Cache-hit flag over the wire: first sight of a source is a miss, every
   identical resend is a hit (same key: hash x tier x arch); a different
   tier is a different artifact. *)
let test_cache_hit_flag () =
  with_server (fun path _t ->
      let conn = Client.connect ~retry_for_s:5.0 path in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let src = "var result = 1 + 1;" in
          let hit_of = function
            | Protocol.Run_ok { cache_hit; _ } -> cache_hit
            | _ -> Alcotest.fail "run failed"
          in
          Alcotest.(check bool) "first run misses" false
            (hit_of (Client.rpc conn (run_req src)));
          Alcotest.(check bool) "second run hits" true
            (hit_of (Client.rpc conn (run_req src)));
          Alcotest.(check bool) "other tier misses" false
            (hit_of (Client.rpc conn (run_req ~tier:Vm.Cap_interp src)))))

(* Server-side fuel cap (--max-fuel): an over-limit request is refused with
   the typed FUEL_LIMIT error before any work; an unset request fuel is
   clamped to the cap instead of getting the unbounded built-in default;
   in-limit requests are honored untouched. *)
let test_fuel_cap () =
  let heavy =
    "var s = 0; for (var i = 0; i < 1000000; i++) { s = s + i; } var result = s;"
  in
  with_server ~max_fuel:50_000 (fun path _t ->
      let conn = Client.connect ~retry_for_s:5.0 path in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* Over the cap: typed error, nothing executed. *)
          (match Client.rpc conn (run_req ~fuel:1_000_000 "var result = 1;") with
          | Protocol.Error { err = Protocol.Efuel_limit; msg } ->
            Alcotest.(check bool) "refusal names the limit" true
              (let contains hay needle =
                 let nh = String.length hay and nn = String.length needle in
                 let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
                 go 0
               in
               contains msg "50000")
          | resp ->
            Alcotest.failf "over-limit fuel should be refused, got %s"
              (Protocol.err_name
                 (match resp with Protocol.Error { err; _ } -> err | _ -> Protocol.Ecrash)))
          ;
          (* Unset fuel: clamped to the 50k cap, so the heavy loop times out
             instead of running on the ~100M built-in default. *)
          (match Client.rpc conn (run_req heavy) with
          | Protocol.Error { err = Protocol.Etimeout; _ } -> ()
          | Protocol.Run_ok _ ->
            Alcotest.fail "unset fuel escaped the server cap (ran to completion)"
          | _ -> Alcotest.fail "unset-fuel probe: unexpected response");
          (* In-limit explicit fuel still runs, and the connection survived
             both refusals. *)
          match Client.rpc conn (run_req ~fuel:40_000 "var result = 6 * 7;") with
          | Protocol.Run_ok { result; _ } -> Alcotest.(check string) "in-limit runs" "42" result
          | _ -> Alcotest.fail "in-limit request should run"))

let slow_src =
  "var s = 0; for (var i = 0; i < 5000000; i++) { s = (s + i) & 1048575; } var result = s;"

(* Raw framed socket, for tests that need to send without blocking on the
   reply (Client.rpc is strictly send-then-wait). *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let raw_send fd req = Protocol.write_frame fd (Protocol.encode_request req)

let raw_recv what fd =
  match Protocol.read_frame fd with
  | Protocol.Frame payload -> (
    match Protocol.decode_response payload with
    | Ok resp -> resp
    | Result.Error msg -> Alcotest.failf "%s: bad response: %s" what msg)
  | _ -> Alcotest.failf "%s: no response frame" what

(* Backpressure and queue deadlines, deterministically: a 1-domain daemon
   with a frame queue of 1.  A slow request occupies the only worker; the
   next request fills the queue; the one after that must be answered
   OVERLOADED (the connection survives — backpressure sheds work, not
   clients).  When the worker finally frees up, the queued request —
   stamped with a 1 ms deadline at *frame arrival* on the monotonic
   clock — has been waiting far longer and must be answered TIMEOUT
   without executing. *)
let test_overload_and_deadline () =
  with_server ~domains:1 ~queue:1 (fun path _t ->
      let slow = Client.connect ~retry_for_s:5.0 path in
      let slow_result = ref None in
      (* Occupy the worker from another domain. *)
      let runner =
        Domain.spawn (fun () ->
            slow_result := Some (Client.rpc slow (run_req ~tier:Vm.Cap_interp slow_src));
            Client.close slow)
      in
      Unix.sleepf 0.3;
      (* Worker busy; this request takes the only queue slot.  Sent raw so
         we don't block on its reply. *)
      let queued = raw_connect path in
      raw_send queued (run_req ~deadline_ms:1 "var result = 1;");
      Unix.sleepf 0.3;
      (* Queue full: a third request must be shed at the admission queue,
         and its connection must survive the rejection. *)
      let shed = raw_connect path in
      raw_send shed (run_req "var result = 2;");
      (match raw_recv "shed request" shed with
      | Protocol.Error { err = Protocol.Eoverloaded; _ } -> ()
      | _ -> Alcotest.fail "third request should be answered overloaded");
      (* A 1 ms queue deadline: the worker picks the queued frame up only
         after the slow run finishes, so its wait dwarfs the deadline. *)
      (match raw_recv "queued request" queued with
      | Protocol.Error { err = Protocol.Etimeout; _ } -> ()
      | _ -> Alcotest.fail "stale queued request should time out");
      Domain.join runner;
      (match !slow_result with
      | Some (Protocol.Run_ok _) -> ()
      | _ -> Alcotest.fail "slow request should still succeed");
      (* The shed connection was kept: once load drains it serves again. *)
      raw_send shed (run_req "var result = 3;");
      (match raw_recv "shed connection after drain" shed with
      | Protocol.Run_ok { result; _ } ->
        Alcotest.(check string) "shed connection recovers" "3" result
      | _ -> Alcotest.fail "shed connection should serve after drain");
      Unix.close shed;
      Unix.close queued)

(* Regression (the stale pipelined queue-wait bug): the daemon used to
   measure queue wait once per *connection* at dequeue time and reuse it
   for every later request on that connection — so after any queued start,
   every pipelined request with a deadline was compared against a wait
   that had nothing to do with it.  Here the connection's first request
   genuinely waits ~a second for the busy worker (no deadline, so it
   runs); the second request arrives when the daemon is idle and carries a
   deadline far larger than its own (near-zero) wait.  Pre-fix it was
   spuriously timed out against the first request's wait. *)
let test_pipelined_deadline_fresh_wait () =
  with_server ~domains:1 (fun path _t ->
      let slow = Client.connect ~retry_for_s:5.0 path in
      let runner =
        Domain.spawn (fun () ->
            ignore (Client.rpc slow (run_req ~tier:Vm.Cap_interp slow_src));
            Client.close slow)
      in
      Unix.sleepf 0.2;
      let conn = Client.connect ~retry_for_s:5.0 path in
      (* First request: queued behind the slow run for ~seconds. *)
      (match Client.rpc conn (run_req "var result = 10;") with
      | Protocol.Run_ok { result; _ } -> Alcotest.(check string) "first run ok" "10" result
      | Protocol.Error { err; msg } ->
        Alcotest.failf "first run failed: %s %s" (Protocol.err_name err) msg
      | _ -> Alcotest.fail "first run: unexpected response");
      Domain.join runner;
      (* Second request on the same connection: the daemon is idle now, so
         its own queue wait is microseconds — a 250 ms deadline must hold. *)
      (match Client.rpc conn (run_req ~deadline_ms:250 "var result = 11;") with
      | Protocol.Run_ok { result; _ } ->
        Alcotest.(check string) "second run not spuriously timed out" "11" result
      | Protocol.Error { err = Protocol.Etimeout; msg } ->
        Alcotest.failf "second run judged by a stale queue wait: %s" msg
      | _ -> Alcotest.fail "second run: unexpected response");
      Client.close conn)

(* Frame-level scheduling: pipelined requests sent back-to-back on one
   connection, before reading anything, come back in order. *)
let test_pipelined_requests_in_order () =
  with_server (fun path _t ->
      let fd = raw_connect path in
      raw_send fd (run_req "var result = 1;");
      raw_send fd (run_req "var result = 2;");
      raw_send fd (run_req "var result = 3;");
      List.iter
        (fun expect ->
          match raw_recv "pipelined" fd with
          | Protocol.Run_ok { result; _ } ->
            Alcotest.(check string) "pipelined response order" expect result
          | _ -> Alcotest.fail "pipelined request did not run")
        [ "1"; "2"; "3" ];
      Unix.close fd)

(* A slow compute for key A must not block a warm hit for key B — the
   compute runs outside every cache lock (capacity 8 means a single
   shard, so this exercises the in-flight slot, not shard luck). *)
let test_cache_contention_compute_doesnt_block () =
  let c = Artifact_cache.create ~capacity:8 () in
  ignore (Artifact_cache.find_or_add c "B" (fun () -> "warm"));
  let a_started = Atomic.make false in
  let slow =
    Domain.spawn (fun () ->
        Artifact_cache.find_or_add c "A" (fun () ->
            Atomic.set a_started true;
            Unix.sleepf 0.8;
            "slow"))
  in
  while not (Atomic.get a_started) do
    Domain.cpu_relax ()
  done;
  (* A's compute is in flight and holds no lock: warm hits stay fast. *)
  let t0 = Nomap_util.Clock.now_s () in
  for _ = 1 to 20 do
    let hit, v = Artifact_cache.find_or_add c "B" (fun () -> Alcotest.fail "B recomputed") in
    Alcotest.(check bool) "warm hit" true hit;
    Alcotest.(check string) "warm value" "warm" v
  done;
  let elapsed = Nomap_util.Clock.now_s () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "20 warm hits under in-flight compute took %.3fs (must be << 0.8s)" elapsed)
    true (elapsed < 0.4);
  let hit_a, v_a = Domain.join slow in
  Alcotest.(check bool) "A was computed, not hit" false hit_a;
  Alcotest.(check string) "A's value" "slow" v_a;
  let s = Artifact_cache.stats c in
  Alcotest.(check int) "exactly two computes" 2 s.Artifact_cache.misses

(* Idle keepalive connections must not pin workers: as many idle clients
   as worker domains, plus one fresh client whose request must still be
   served.  Pre-fix, each worker was welded to one connection for its
   lifetime, so two idle clients starved a 2-domain daemon forever. *)
let test_idle_keepalive_no_starvation () =
  with_server ~domains:2 (fun path _t ->
      let idle =
        List.init 2 (fun _ ->
            let c = Client.connect ~retry_for_s:5.0 path in
            (match Client.rpc c Protocol.Ping with
            | Protocol.Pong -> ()
            | _ -> Alcotest.fail "idle client got no pong");
            c)
      in
      (* Both idle connections are live and silent; a fresh client's run
         must complete (SO_RCVTIMEO turns a starved daemon into a clean
         failure instead of a hung test). *)
      let fd = raw_connect path in
      raw_send fd (run_req "var result = 7;");
      (match raw_recv "fresh client vs idle keepalives" fd with
      | Protocol.Run_ok { result; _ } ->
        Alcotest.(check string) "fresh client served" "7" result
      | _ -> Alcotest.fail "fresh client's run failed");
      Unix.close fd;
      List.iter Client.close idle)

(* Shared sessions: two clients naming one session observe each other's
   atomic increments through the communal segment; a third client in a
   different session starts from a fresh segment; STATS reports the shared
   section. *)
let test_shared_sessions () =
  let probe = "Atomics.add(0, 1); var result = Atomics.load(0);" in
  let shared_req ~session src =
    Protocol.Run_shared
      {
        run =
          { Protocol.tier = Vm.Cap_interp; arch = Config.Base; iters = 0; fuel = 0;
            deadline_ms = 0; src };
        session;
      }
  in
  let expect_result name conn req expected =
    match Client.rpc conn req with
    | Protocol.Run_ok { result; _ } -> Alcotest.(check string) name expected result
    | resp -> Alcotest.failf "%s: unexpected response %s" name (Protocol.encode_response resp)
  in
  with_server (fun path _t ->
      let a = Client.connect ~retry_for_s:5.0 path in
      let b = Client.connect ~retry_for_s:5.0 path in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          (* Same session: B sees A's increment, A sees B's in turn. *)
          expect_result "A increments fresh segment" a (shared_req ~session:"room" probe) "1";
          expect_result "B observes A's increment" b (shared_req ~session:"room" probe) "2";
          expect_result "A observes B's increment" a (shared_req ~session:"room" probe) "3";
          (* A different session starts from its own zeroed segment. *)
          expect_result "other session isolated" b (shared_req ~session:"annex" probe) "1";
          (* Plain RUN stays fully private: a solo segment per request. *)
          expect_result "plain RUN never shares" a
            (run_req ~tier:Vm.Cap_interp ~arch:Config.Base probe)
            "1";
          (* STATS carries the shared-session section. *)
          match Client.rpc a Protocol.Stats with
          | Protocol.Stats_ok text ->
            let has sub =
              let n = String.length text and m = String.length sub in
              let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "stats: session count" true (has "shared sessions=2");
            Alcotest.(check bool) "stats: served count" true (has "run_shared=4");
            Alcotest.(check bool) "stats: conflict aborts" true (has "conflict_aborts=0");
            Alcotest.(check bool) "stats: segment bytes" true
              (has
                 (Printf.sprintf "segment_bytes=%d"
                    (2 * 8 * Session.shared_session_words)))
          | _ -> Alcotest.fail "no stats"))

let tests =
  [
    Alcotest.test_case "protocol: request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol: response roundtrip" `Quick test_response_roundtrip;
    Alcotest.test_case "protocol: malformed inputs rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "cache: LRU eviction order and counters" `Quick test_lru_eviction_order;
    Alcotest.test_case "cache: failed compute not inserted" `Quick
      test_cache_compute_failure_not_inserted;
    Alcotest.test_case "cache: concurrent domain hammer" `Quick test_cache_domain_hammer;
    Alcotest.test_case "cache: truncated-hash collision serves the right artifact" `Quick
      test_cache_truncated_hash_collision;
    Alcotest.test_case "cache: in-flight compute doesn't block other keys" `Quick
      test_cache_contention_compute_doesnt_block;
    Alcotest.test_case "daemon: corpus x concurrent clients == direct Vm" `Slow
      test_corpus_concurrent_clients;
    Alcotest.test_case "daemon: sessions are isolated" `Quick test_session_isolation;
    Alcotest.test_case "daemon: shared sessions communicate, others isolated" `Quick
      test_shared_sessions;
    Alcotest.test_case "daemon: error paths (crash/timeout/malformed/stats)" `Quick
      test_error_paths;
    Alcotest.test_case "daemon: cache-hit flag keyed by source x tier" `Quick
      test_cache_hit_flag;
    Alcotest.test_case "daemon: --max-fuel refuses, clamps, and honors" `Quick test_fuel_cap;
    Alcotest.test_case "daemon: backpressure rejects, queue deadline times out" `Slow
      test_overload_and_deadline;
    Alcotest.test_case "daemon: pipelined request gets its own queue wait" `Slow
      test_pipelined_deadline_fresh_wait;
    Alcotest.test_case "daemon: pipelined requests answered in order" `Quick
      test_pipelined_requests_in_order;
    Alcotest.test_case "daemon: idle keepalive connections don't starve workers" `Quick
      test_idle_keepalive_no_starvation;
  ]
