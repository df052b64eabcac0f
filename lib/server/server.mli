(** nomapd: the long-running execution daemon.

    Architecture: one poller domain plus a pool of OCaml 5 [Domain]
    workers fed by a bounded admission queue of {e frames}.  The poller
    owns every descriptor: it accepts connections, selects over the idle
    ones, assembles bytes into complete frames, and queues each frame as
    an independent job stamped with its monotonic arrival time.  A worker
    executes one frame, writes the reply, and hands the connection back —
    so a worker is never pinned to a connection, idle keepalive clients
    cost one fd each instead of a worker, and pipelined requests on one
    connection each get their own queue-wait measurement.

    Backpressure is reject-not-buffer at two doors: a frame arriving to a
    full job queue is answered OVERLOADED (the connection survives — the
    client can retry), and a connection past [max_connections] is turned
    away whole.  A traffic spike costs clients a retry instead of costing
    the daemon unbounded memory.

    Shared mutable state and its guards:
    - the artifact cache: internally sharded and mutex-guarded
      ([Artifact_cache]); compiles run outside any shard lock;
    - the job queue and returned-connection queue: the pool mutex +
      condition variable (+ a self-pipe to nudge the select-blocked
      poller);
    - request statistics: a separate stats mutex, taken per response.

    All latency and deadline arithmetic uses the monotonic clock
    ([Nomap_util.Clock.now_s]); wall time appears only in the human-facing
    [uptime_s] STATS line.

    A worker that somehow throws past [Session.handle_frame]'s
    per-request catch-all (a daemon bug, not a client error) poisons the
    pool: the first such exception initiates shutdown and is re-raised
    from [wait], mirroring the harness scheduler's worker-exception
    propagation. *)

type config = {
  socket_path : string;  (** Unix-domain socket path; stale files are replaced *)
  domains : int;  (** worker pool size (min 1) *)
  queue_capacity : int;  (** admission queue bound (in frames); beyond it, OVERLOADED *)
  cache_capacity : int;  (** artifact-cache entries *)
  max_connections : int;  (** open-connection bound; beyond it, rejected at the door *)
  max_fuel : int;
      (** cap on client-requested RUN fuel; over-limit requests get
          [Efuel_limit], non-positive values fall back to
          [Session.default_fuel] *)
}

val default_config : socket_path:string -> config
(** 2 workers, queue of 64 frames, cache of 128, 512 connections. *)

type t

val start : config -> t
(** Bind, listen, and spawn the poller and worker domains.  Returns once
    the socket is accepting (a client may connect immediately). *)

val request_stop : t -> unit
(** Begin shutdown: stop admitting, let workers drain the queue and exit.
    Also reachable remotely via the SHUTDOWN verb.  Idempotent. *)

val wait : t -> unit
(** Block until the daemon has stopped (via [request_stop] or SHUTDOWN),
    join every domain, close every descriptor, unlink the socket.
    Re-raises the first worker-fatal exception, if any. *)

val stop : t -> unit
(** [request_stop] then [wait]. *)

val stats_text : t -> string
(** The STATS verb payload: queue, connections, cache, and per-class
    request counters. *)

val cache : t -> Session.cache
