type config = {
  socket_path : string;
  domains : int;
  queue_capacity : int;
  cache_capacity : int;
  max_connections : int;
  max_fuel : int;  (** cap on client-requested RUN fuel (--max-fuel) *)
}

let default_config ~socket_path =
  {
    socket_path;
    domains = 2;
    queue_capacity = 64;
    cache_capacity = 128;
    max_connections = 512;
    max_fuel = Session.default_fuel;
  }

type stats = {
  mutable accepted : int;
  mutable rejected_overloaded : int;
  mutable open_conns : int;
  mutable run_ok : int;
  mutable run_hit : int;
  mutable stats_served : int;
  mutable pings : int;
  mutable err_malformed : int;
  mutable err_overloaded : int;
  mutable err_timeout : int;
  mutable err_crash : int;
  mutable err_fuel_limit : int;
}

(* One client connection.  Exactly one of three places owns it at any
   moment: the poller (idle, watched by select), the job queue, or a
   worker (executing its frame).  The poller performs every open and
   close, so descriptor lifecycle has a single writer. *)
type conn = { fd : Unix.file_descr; reader : Protocol.reader }

type job = {
  jconn : conn;
  payload : string;  (** one complete frame payload *)
  arrival_s : float;  (** monotonic stamp at frame completion *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (** self-pipe: workers nudge a select-blocked poller *)
  wake_w : Unix.file_descr;
  cache : Session.cache;
  shared : Session.shared;  (** named shared-segment sessions (RUN_SHARED) *)
  jobs : job Queue.t;  (** admission queue of frames, bound [queue_capacity] *)
  returned : (conn * [ `Keep | `Close ]) Queue.t;  (** conns workers are done with *)
  lock : Mutex.t;  (** guards [jobs], [returned], [stopping] *)
  nonempty : Condition.t;
  mutable stopping : bool;
  stats_lock : Mutex.t;
  stats : stats;
  started_wall : float;  (** wall clock, only for the human-facing uptime line *)
  mutable pool : unit Domain.t list;  (** poller + workers; emptied by [wait] *)
  mutable fatal : (exn * Printexc.raw_backtrace) option;  (** first daemon bug *)
}

let cache t = t.cache

(* ------------------------------------------------------------------ *)
(* Statistics *)

let record_response t (resp : Protocol.response) =
  Mutex.protect t.stats_lock (fun () ->
      let s = t.stats in
      match resp with
      | Protocol.Run_ok { cache_hit; _ } ->
        s.run_ok <- s.run_ok + 1;
        if cache_hit then s.run_hit <- s.run_hit + 1
      | Protocol.Stats_ok _ -> s.stats_served <- s.stats_served + 1
      | Protocol.Pong -> s.pings <- s.pings + 1
      | Protocol.Shutting_down -> ()
      | Protocol.Error { err; _ } -> (
        match err with
        | Protocol.Emalformed -> s.err_malformed <- s.err_malformed + 1
        | Protocol.Eoverloaded -> s.err_overloaded <- s.err_overloaded + 1
        | Protocol.Etimeout -> s.err_timeout <- s.err_timeout + 1
        | Protocol.Ecrash -> s.err_crash <- s.err_crash + 1
        | Protocol.Efuel_limit -> s.err_fuel_limit <- s.err_fuel_limit + 1))

let stats_text t =
  let depth = Mutex.protect t.lock (fun () -> Queue.length t.jobs) in
  let s = Mutex.protect t.stats_lock (fun () -> { t.stats with accepted = t.stats.accepted }) in
  String.concat "\n"
    [
      Printf.sprintf "nomapd uptime_s=%.1f domains=%d"
        (Unix.gettimeofday () -. t.started_wall)
        t.cfg.domains;
      Printf.sprintf
        "queue depth=%d capacity=%d conns=%d/%d accepted=%d overloaded_rejections=%d" depth
        t.cfg.queue_capacity s.open_conns t.cfg.max_connections s.accepted s.rejected_overloaded;
      Printf.sprintf "cache %s" (Artifact_cache.stats_to_string t.cache);
      Session.shared_stats t.shared;
      Printf.sprintf
        "requests run_ok=%d run_hit=%d run_miss=%d stats=%d ping=%d \
         errors=[malformed=%d overloaded=%d timeout=%d crash=%d fuel_limit=%d]"
        s.run_ok s.run_hit (s.run_ok - s.run_hit) s.stats_served s.pings s.err_malformed
        s.err_overloaded s.err_timeout s.err_crash s.err_fuel_limit;
    ]

(* ------------------------------------------------------------------ *)
(* Lifecycle plumbing *)

let wake t =
  (* Nonblocking write; a full pipe already holds a pending wake. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) -> ()

let request_stop t =
  Mutex.protect t.lock (fun () ->
      t.stopping <- true;
      Condition.broadcast t.nonempty);
  wake t

let session_ctx t : Session.ctx =
  {
    Session.cache = t.cache;
    shared = t.shared;
    max_fuel = t.cfg.max_fuel;
    stats_text = (fun () -> stats_text t);
    request_shutdown = (fun () -> request_stop t);
    on_response = record_response t;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let record_fatal t e bt =
  Mutex.protect t.lock (fun () -> if t.fatal = None then t.fatal <- Some (e, bt));
  request_stop t

(* Error replies pushed by the poller itself (door rejection, per-frame
   overload, oversized frame).  The write is blocking, but these responses
   are far below any socket buffer, so the poller cannot be wedged by a
   deaf client.  Returns [false] when the peer is gone. *)
let poller_reply t fd resp =
  record_response t resp;
  match Protocol.write_frame fd (Protocol.encode_response resp) with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false

(* ------------------------------------------------------------------ *)
(* The poller: accept, read, frame, dispatch.

   One domain owns every descriptor and runs a select loop over the
   listening socket, the wake pipe, and all idle connections.  Bytes are
   fed to each connection's incremental frame reader; a completed frame
   becomes a job (stamped with its monotonic arrival time) and its
   connection goes dark until a worker hands it back — so an idle
   keepalive connection costs one fd, never a worker, and a worker is
   never pinned waiting for a client to type. *)

let poller_loop t =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let readbuf = Bytes.create 65536 in
  let live = ref 0 in
  let set_open_conns () =
    Mutex.protect t.stats_lock (fun () -> t.stats.open_conns <- !live)
  in
  let close_conn c =
    close_quietly c.fd;
    decr live;
    set_open_conns ()
  in
  (* Turn buffered bytes into at most one queued job.  Only one frame per
     connection may be in flight (a worker replies on the fd; two at once
     would interleave writes), so a queued frame parks the connection until
     the worker returns it; later pipelined frames wait in its reader. *)
  let rec dispatch c =
    match Protocol.reader_next c.reader with
    | `None -> Hashtbl.replace conns c.fd c (* idle: watch for more bytes *)
    | `Oversized n ->
      ignore
        (poller_reply t c.fd
           (Protocol.Error
              {
                err = Protocol.Emalformed;
                msg = Printf.sprintf "frame of %d bytes exceeds cap %d" n Protocol.max_frame;
              }));
      close_conn c
    | `Frame payload -> (
      let arrival_s = Nomap_util.Clock.now_s () in
      let verdict =
        Mutex.protect t.lock (fun () ->
            if t.stopping then `Drop
            else if Queue.length t.jobs >= t.cfg.queue_capacity then `Full
            else begin
              Queue.add { jconn = c; payload; arrival_s } t.jobs;
              Condition.signal t.nonempty;
              `Queued
            end)
      in
      match verdict with
      | `Queued -> () (* busy: the worker will hand it back *)
      | `Drop -> close_conn c
      | `Full ->
        (* Reject the frame, keep the connection: the client already paid
           for the connect, and backpressure is about not buffering work. *)
        Mutex.protect t.stats_lock (fun () ->
            t.stats.rejected_overloaded <- t.stats.rejected_overloaded + 1);
        if
          poller_reply t c.fd
            (Protocol.Error
               {
                 err = Protocol.Eoverloaded;
                 msg =
                   Printf.sprintf "admission queue full (%d frames)" t.cfg.queue_capacity;
               })
        then dispatch c
        else close_conn c)
  in
  let accept_one () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | fd, _ ->
      Mutex.protect t.stats_lock (fun () -> t.stats.accepted <- t.stats.accepted + 1);
      if !live >= t.cfg.max_connections then begin
        (* Reject at the door: past the fd budget (select also has a hard
           FD_SETSIZE ceiling), a new connection is turned away whole. *)
        Mutex.protect t.stats_lock (fun () ->
            t.stats.rejected_overloaded <- t.stats.rejected_overloaded + 1);
        ignore
          (poller_reply t fd
             (Protocol.Error
                {
                  err = Protocol.Eoverloaded;
                  msg =
                    Printf.sprintf "connection limit reached (%d)" t.cfg.max_connections;
                }));
        close_quietly fd
      end
      else begin
        incr live;
        set_open_conns ();
        dispatch { fd; reader = Protocol.reader_create () }
      end
  in
  let drain_wake () =
    let rec go () =
      match Unix.read t.wake_r readbuf 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    in
    go ()
  in
  let drain_returned () =
    let batch =
      Mutex.protect t.lock (fun () ->
          let xs = List.of_seq (Queue.to_seq t.returned) in
          Queue.clear t.returned;
          xs)
    in
    List.iter
      (fun (c, directive) ->
        match directive with
        | `Close -> close_conn c
        | `Keep -> dispatch c (* buffered pipelined frames run before select *))
      batch
  in
  let read_conn c =
    Hashtbl.remove conns c.fd;
    match Unix.read c.fd readbuf 0 (Bytes.length readbuf) with
    | 0 -> close_conn c (* EOF *)
    | n ->
      Protocol.reader_feed c.reader readbuf n;
      dispatch c
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> close_conn c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> Hashtbl.replace conns c.fd c
  in
  let continue = ref true in
  while !continue do
    if Mutex.protect t.lock (fun () -> t.stopping) then begin
      (* Stop watching: close idle connections and whatever workers have
         already handed back.  Jobs still queued stay alive — workers
         drain them and their conns are reaped by [wait]. *)
      drain_returned ();
      Hashtbl.iter (fun _ c -> close_quietly c.fd) conns;
      Hashtbl.reset conns;
      continue := false
    end
    else begin
      drain_returned ();
      let watched = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
      match Unix.select (t.listen_fd :: t.wake_r :: watched) [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then accept_one ()
            else if fd = t.wake_r then drain_wake ()
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> read_conn c
              | None -> () (* already dispatched or closed this round *))
          readable
    end
  done

(* ------------------------------------------------------------------ *)
(* Workers: execute one frame at a time, from any connection. *)

let worker_loop t =
  let ctx = session_ctx t in
  let continue = ref true in
  while !continue do
    let job =
      Mutex.protect t.lock (fun () ->
          while Queue.is_empty t.jobs && not t.stopping do
            Condition.wait t.nonempty t.lock
          done;
          if Queue.is_empty t.jobs then None (* stopping and drained *)
          else Some (Queue.pop t.jobs))
    in
    match job with
    | None -> continue := false
    | Some { jconn; payload; arrival_s } ->
      let queue_wait_s = Nomap_util.Clock.now_s () -. arrival_s in
      let directive =
        try Session.handle_frame ctx ~queue_wait_s jconn.fd payload
        with e ->
          (* Not a client-triggerable path — Session.handle_frame converts
             those to error responses.  A worker bug poisons the pool:
             shut down and let [wait] re-raise. *)
          record_fatal t e (Printexc.get_raw_backtrace ());
          `Close
      in
      Mutex.protect t.lock (fun () -> Queue.add (jconn, directive) t.returned);
      wake t
  done

let start cfg =
  let cfg =
    {
      cfg with
      domains = max 1 cfg.domains;
      queue_capacity = max 1 cfg.queue_capacity;
      max_connections = max 1 cfg.max_connections;
      max_fuel = (if cfg.max_fuel <= 0 then Session.default_fuel else cfg.max_fuel);
    }
  in
  (* A client hanging up mid-reply must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists cfg.socket_path then Unix.unlink cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      listen_fd;
      wake_r;
      wake_w;
      cache = Artifact_cache.create ~capacity:cfg.cache_capacity ();
      shared = Session.shared_create ();
      jobs = Queue.create ();
      returned = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      stats_lock = Mutex.create ();
      stats =
        {
          accepted = 0;
          rejected_overloaded = 0;
          open_conns = 0;
          run_ok = 0;
          run_hit = 0;
          stats_served = 0;
          pings = 0;
          err_malformed = 0;
          err_overloaded = 0;
          err_timeout = 0;
          err_crash = 0;
          err_fuel_limit = 0;
        };
      started_wall = Unix.gettimeofday ();
      pool = [];
      fatal = None;
    }
  in
  let guarded f () =
    try f t with e -> record_fatal t e (Printexc.get_raw_backtrace ())
  in
  let workers = List.init cfg.domains (fun _ -> Domain.spawn (guarded worker_loop)) in
  let poller = Domain.spawn (guarded poller_loop) in
  t.pool <- poller :: workers;
  t

let wait t =
  let pool = t.pool in
  t.pool <- [];
  List.iter Domain.join pool;
  if pool <> [] then begin
    (* Everything has quiesced: reap connections the poller never saw
       again (handed back after it exited, or still queued at stop). *)
    Mutex.protect t.lock (fun () ->
        Queue.iter (fun (c, _) -> close_quietly c.fd) t.returned;
        Queue.clear t.returned;
        Queue.iter (fun j -> close_quietly j.jconn.fd) t.jobs;
        Queue.clear t.jobs);
    close_quietly t.listen_fd;
    close_quietly t.wake_r;
    close_quietly t.wake_w;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  end;
  match t.fatal with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let stop t =
  request_stop t;
  wait t
