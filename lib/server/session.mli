(** Per-connection request execution with VM-instance isolation.

    Every RUN request gets a brand-new [Vm.t] — its own heap, globals,
    profile and counters — built from a compiled program shared read-only
    through the artifact cache.  Nothing mutable outlives a request, so
    concurrent clients (and consecutive requests on one connection) cannot
    observe each other's globals or heap; the only cross-request state is
    the immutable compiled artifact and the daemon's own statistics. *)

type key = {
  hash : int64;  (** FNV-1a of the program source *)
  src : string;
      (** the source itself: key equality verifies it on every hit, so a
          64-bit hash collision is a miss, never a wrong program *)
  tier : Nomap_vm.Vm.tier_cap;
  arch : Nomap_nomap.Config.arch;
}
(** Artifact-cache key.  Tier and architecture are part of the key even
    though today's artifact (front-end bytecode) is identical across them:
    the key space is the contract, so a future tier- or arch-specialized
    artifact (pre-transformed LIR) slots in without a wire or cache
    migration. *)

type cache = (key, Nomap_bytecode.Opcode.program) Artifact_cache.t

val default_fuel : int
(** Execution budget when the request doesn't set one. *)

type shared
(** The daemon's shared-session table (DESIGN.md §16): named communal
    segments, created on first RUN_SHARED use.  Requests naming the same
    session run as agents over one segment (so concurrent clients
    communicate through Shared/Atomics and conflict-abort each other);
    different sessions are fully isolated.  Each session has a fixed agent
    pool ([shared_session_agents]) and segment size; a request borrows a
    slot for its duration and a fully-busy session answers OVERLOADED. *)

val shared_session_agents : int
(** Agent slots per session; concurrent RUN_SHAREDs past this are refused. *)

val shared_session_words : int
(** Segment elements per session. *)

val shared_create : unit -> shared

val shared_stats : shared -> string
(** The STATS line for shared sessions: count, borrowed agents, communal
    segment bytes, cross-agent conflict aborts, RUN_SHARED requests
    served. *)

val run :
  ?max_fuel:int ->
  ?shared_agent:Nomap_shared.Agent.t ->
  cache:cache ->
  Protocol.run ->
  Protocol.response
(** Execute one RUN request: look up / compile the artifact, run the
    program's top level on a fresh VM (plus [iters] calls of
    [benchmark()]), and report the [result] global, the structural heap
    checksum, and the request's machine counters.  [shared_agent] binds
    the VM to a communal shared segment (RUN_SHARED); without it the VM
    gets its own private solo segment.  A request whose fuel exceeds
    [max_fuel] (default [default_fuel]) is refused with [Efuel_limit]
    before any work; an unset request fuel means [min default_fuel
    max_fuel].  Fuel exhaustion maps to [Etimeout], compile or runtime
    failures to [Ecrash]; no exception escapes. *)

(** Callbacks a session uses to reach daemon-level state without depending
    on [Server] (which depends on this module). *)
type ctx = {
  cache : cache;
  shared : shared;  (** shared-session table, owned by the daemon *)
  max_fuel : int;  (** server-side cap on client-requested fuel *)
  stats_text : unit -> string;  (** STATS verb payload *)
  request_shutdown : unit -> unit;  (** SHUTDOWN verb: begin daemon stop *)
  on_response : Protocol.response -> unit;  (** accounting tap, called per reply *)
  on_run_wait : float -> unit;
      (** accounting tap: a RUN or RUN_SHARED frame's queue wait, in
          seconds, called before it is answered *)
}

val handle_frame :
  ctx -> queue_wait_s:float -> Unix.file_descr -> string -> [ `Keep | `Close ]
(** Handle one already-framed request payload: decode, execute, reply.
    [queue_wait_s] is how long {e this frame} sat in the admission queue
    (monotonic clock, stamped at frame completion by the poller — each
    pipelined request on a keepalive connection gets its own measurement);
    a RUN whose [deadline_ms] is positive and smaller is answered
    [Etimeout] without executing.  Returns [`Keep] when the connection can
    serve further frames and [`Close] when it must be dropped: malformed
    payloads (the stream can no longer be trusted), SHUTDOWN, or a peer
    that vanished mid-reply.  Never closes the descriptor itself; the
    poller owns connection lifecycle. *)
