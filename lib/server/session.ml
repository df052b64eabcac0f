module Vm = Nomap_vm.Vm
module Heap_checksum = Nomap_vm.Heap_checksum
module Config = Nomap_nomap.Config
module Value = Nomap_runtime.Value
module Instance = Nomap_interp.Instance
module Counters = Nomap_machine.Counters
module Fnv = Nomap_util.Fnv
module Agent = Nomap_shared.Agent
module Segment = Nomap_shared.Segment
module Interleave = Nomap_shared.Interleave

(* [src] is part of the key, not just its hash: two sources colliding on
   the 64-bit FNV fingerprint must NOT serve each other's compiled program.
   The hash still does the heavy lifting — shard selection and cheap
   inequality — while key equality (structural, so full string compare)
   verifies the source on every hit.  The collision regression test in
   test_server.ml forces the issue with a deliberately truncated hash. *)
type key = { hash : int64; src : string; tier : Vm.tier_cap; arch : Config.arch }

type cache = (key, Nomap_bytecode.Opcode.program) Artifact_cache.t

(* Generous for real programs, small enough that a hostile infinite loop
   costs bounded CPU: roughly one fuzz-oracle tiered budget (DESIGN.md §11). *)
let default_fuel = 100_000_000

let counters_of_vm vm : Protocol.run_counters =
  let c = Vm.counters vm in
  {
    Protocol.instrs = Counters.total_instrs c;
    checks = Counters.total_checks c;
    cycles = Counters.cycles c;
    tx_commits = c.Counters.tx_commits;
    tx_aborts = c.Counters.tx_aborts;
    deopts = c.Counters.deopts;
    ftl_calls = c.Counters.ftl_calls;
  }

(* ------------------------------------------------------------------ *)
(* Shared sessions (DESIGN.md §16): named communal segments.

   A RUN_SHARED names a session; all requests naming the same session run
   their VMs as agents of one registry over one segment, so concurrent
   clients genuinely communicate through Shared/Atomics (and genuinely
   conflict-abort each other's transactions).  The registry uses the
   [Free] scheduler policy: the daemon serves real concurrent clients, so
   there is no deterministic schedule to honor — serialization happens at
   the registry lock, per shared operation, exactly like real hardware.

   Sessions are created on first use and live for the daemon's lifetime
   (like the artifact cache, they are bounded: a fixed agent pool and a
   fixed segment size per session).  Each request borrows an agent slot
   for its duration; a session with every slot busy answers OVERLOADED
   rather than queueing. *)

let shared_session_agents = 64
let shared_session_words = 256

type shared_session = {
  sreg : Agent.registry;
  mutable free_slots : int list;
  mutable served : int;  (** RUN_SHARED requests completed against this session *)
}

type shared = { slock : Mutex.t; sessions : (string, shared_session) Hashtbl.t }

let shared_create () = { slock = Mutex.create (); sessions = Hashtbl.create 8 }

let acquire_agent shared ~session =
  Mutex.protect shared.slock (fun () ->
      let s =
        match Hashtbl.find_opt shared.sessions session with
        | Some s -> s
        | None ->
          let segment = Segment.create ~size:shared_session_words in
          let sreg =
            Agent.create_registry ~policy:Interleave.Free ~segment
              ~n:shared_session_agents ()
          in
          let s = { sreg; free_slots = List.init shared_session_agents Fun.id; served = 0 } in
          Hashtbl.replace shared.sessions session s;
          s
      in
      match s.free_slots with
      | [] -> None
      | i :: rest ->
        s.free_slots <- rest;
        Some (s, Agent.agent s.sreg i))

let release_agent shared s ag =
  (* The VM may have died mid-transaction; drop any published footprint
     before the slot is handed to the next request. *)
  Agent.tx_abort ag;
  Mutex.protect shared.slock (fun () ->
      s.served <- s.served + 1;
      s.free_slots <- Agent.id ag :: s.free_slots)

(** One STATS line: session count, borrowed agents, communal segment
    bytes, cross-agent conflict aborts served, RUN_SHARED requests done. *)
let shared_stats shared =
  Mutex.protect shared.slock (fun () ->
      let sessions = Hashtbl.length shared.sessions in
      let bytes, conflicts, in_use, served =
        Hashtbl.fold
          (fun _ s (b, c, u, v) ->
            ( b + Segment.size_bytes (Agent.segment s.sreg),
              c + Agent.conflicts s.sreg,
              u + (shared_session_agents - List.length s.free_slots),
              v + s.served ))
          shared.sessions (0, 0, 0, 0)
      in
      Printf.sprintf
        "shared sessions=%d agents_in_use=%d segment_bytes=%d conflict_aborts=%d \
         run_shared=%d"
        sessions in_use bytes conflicts served)

let run ?(max_fuel = default_fuel) ?shared_agent ~cache (r : Protocol.run) :
    Protocol.response =
  if r.Protocol.fuel > max_fuel then
    (* Typed refusal, not a silent clamp: a client that asked for more than
       the server allows should know its request was not honored. *)
    Protocol.Error
      {
        err = Protocol.Efuel_limit;
        msg =
          Printf.sprintf "requested fuel %d exceeds the server limit %d" r.Protocol.fuel
            max_fuel;
      }
  else
    match
      Artifact_cache.find_or_add cache
        {
          hash = Fnv.hash64 r.Protocol.src;
          src = r.Protocol.src;
          tier = r.Protocol.tier;
          arch = r.Protocol.arch;
        }
        (fun () -> Nomap_bytecode.Compile.compile_source r.Protocol.src)
    with
  | exception e ->
    Protocol.Error { err = Protocol.Ecrash; msg = "compile: " ^ Printexc.to_string e }
  | cache_hit, prog -> (
    (* An unset fuel means "the server's default", itself capped by the
       operator's --max-fuel. *)
    let fuel = if r.Protocol.fuel <= 0 then min default_fuel max_fuel else r.Protocol.fuel in
    match
      let vm =
        Vm.create ~fuel ?shared:shared_agent ~config:(Config.create r.Protocol.arch)
          ~tier_cap:r.Protocol.tier prog
      in
      ignore (Vm.run_main vm);
      let last = ref None in
      for _ = 1 to r.Protocol.iters do
        last := Some (Vm.call_function vm "benchmark" [])
      done;
      let result =
        match !last with
        | Some v -> Value.to_js_string v
        | None -> (
          match Vm.global vm "result" with
          | Some v -> Value.to_js_string v
          | None -> "<no result>")
      in
      Protocol.Run_ok
        {
          cache_hit;
          result;
          heap = Heap_checksum.checksum (Vm.instance vm);
          counters = counters_of_vm vm;
        }
    with
    | resp -> resp
    | exception Instance.Out_of_fuel ->
      Protocol.Error
        { err = Protocol.Etimeout; msg = Printf.sprintf "exceeded fuel budget (%d ops)" fuel }
    | exception e -> Protocol.Error { err = Protocol.Ecrash; msg = Printexc.to_string e })

type ctx = {
  cache : cache;
  shared : shared;
  max_fuel : int;
  stats_text : unit -> string;
  request_shutdown : unit -> unit;
  on_response : Protocol.response -> unit;
  on_run_wait : float -> unit;
}

let run_shared ctx (r : Protocol.run) ~session : Protocol.response =
  match acquire_agent ctx.shared ~session with
  | None ->
    Protocol.Error
      {
        err = Protocol.Eoverloaded;
        msg =
          Printf.sprintf "session %S: all %d agent slots busy" session
            shared_session_agents;
      }
  | Some (s, ag) ->
    Fun.protect
      ~finally:(fun () -> release_agent ctx.shared s ag)
      (fun () -> run ~max_fuel:ctx.max_fuel ~shared_agent:ag ~cache:ctx.cache r)

let reply ctx fd resp =
  ctx.on_response resp;
  Protocol.write_frame fd (Protocol.encode_response resp)

let handle_frame ctx ~queue_wait_s fd payload =
  let step () =
    match Protocol.decode_request payload with
    | Result.Error msg ->
      (* The stream may be desynchronized — answer and hang up. *)
      reply ctx fd (Protocol.Error { err = Protocol.Emalformed; msg });
      `Close
    | Ok Protocol.Ping ->
      reply ctx fd Protocol.Pong;
      `Keep
    | Ok Protocol.Stats ->
      reply ctx fd (Protocol.Stats_ok (ctx.stats_text ()));
      `Keep
    | Ok Protocol.Shutdown ->
      reply ctx fd Protocol.Shutting_down;
      ctx.request_shutdown ();
      `Close
    | Ok (Protocol.Run _ | Protocol.Run_shared _) as req ->
      let r, session =
        match req with
        | Ok (Protocol.Run r) -> (r, None)
        | Ok (Protocol.Run_shared { run; session }) -> (run, Some session)
        | _ -> assert false
      in
      ctx.on_run_wait queue_wait_s;
      (* [queue_wait_s] is *this frame's* wait — stamped when the frame
         completed at the poller, measured on the monotonic clock — so a
         deadline verdict is about this request, not about when its
         connection happened to be accepted. *)
      if r.Protocol.deadline_ms > 0 && queue_wait_s *. 1000.0 > float_of_int r.Protocol.deadline_ms
      then begin
        reply ctx fd
          (Protocol.Error
             {
               err = Protocol.Etimeout;
               msg =
                 Printf.sprintf "queued %.0f ms past the %d ms deadline"
                   (queue_wait_s *. 1000.0) r.Protocol.deadline_ms;
             });
        `Keep
      end
      else begin
        (match session with
        | None -> reply ctx fd (run ~max_fuel:ctx.max_fuel ~cache:ctx.cache r)
        | Some session -> reply ctx fd (run_shared ctx r ~session));
        `Keep
      end
  in
  (* A peer that vanishes mid-reply (EPIPE on our write) is indistinguishable
     from one that hung up early: drop the connection either way. *)
  try step () with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> `Close
