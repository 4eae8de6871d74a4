(* The daemon: accept loop + admission control in the caller's thread,
   request service on a Domain_pool. One mutex guards admission state
   and the SLO metrics — every critical section is a handful of integer
   updates, far off the search hot path. *)

type config = {
  socket_path : string;
  alphabet : Bioseq.Alphabet.t;
  workers : int;
  queue_depth : int;
  allow_sleep : bool;
  recv_timeout : float;
}

let config ?(workers = 4) ?(queue_depth = 16) ?(allow_sleep = false)
    ?(recv_timeout = 10.) ~alphabet ~socket_path () =
  if workers < 1 then invalid_arg "Server.config: workers must be >= 1";
  if queue_depth < 0 then invalid_arg "Server.config: queue_depth must be >= 0";
  if recv_timeout <= 0. then
    invalid_arg "Server.config: recv_timeout must be positive";
  { socket_path; alphabet; workers; queue_depth; allow_sleep; recv_timeout }

type t = {
  cfg : config;
  make_worker : int -> Backend.worker;
  stop_flag : bool Atomic.t;
  mutex : Mutex.t;
  mutable in_flight : int;
  mutable slots : Backend.worker list;  (* free backends, LIFO *)
  mutable started : bool;
  (* SLO metrics, guarded by [mutex] (Obs metrics are not atomic). *)
  registry : Obs.Registry.t;
  accepted : Obs.Metric.counter;
  completed : Obs.Metric.counter;
  rejected_overload : Obs.Metric.counter;
  bad_request : Obs.Metric.counter;
  disconnects : Obs.Metric.counter;
  errors : Obs.Metric.counter;
  hits_streamed : Obs.Metric.counter;
  in_flight_gauge : Obs.Metric.gauge;
  latency_us : Obs.Metric.histogram;
  queue_wait_us : Obs.Metric.histogram;
}

let create cfg ~make_worker =
  let registry = Obs.Registry.create () in
  {
    cfg;
    make_worker;
    stop_flag = Atomic.make false;
    mutex = Mutex.create ();
    in_flight = 0;
    slots = [];
    started = false;
    registry;
    accepted = Obs.Registry.counter registry "serve.accepted";
    completed = Obs.Registry.counter registry "serve.completed";
    rejected_overload = Obs.Registry.counter registry "serve.rejected_overload";
    bad_request = Obs.Registry.counter registry "serve.bad_request";
    disconnects = Obs.Registry.counter registry "serve.disconnects";
    errors = Obs.Registry.counter registry "serve.errors";
    hits_streamed = Obs.Registry.counter registry "serve.hits_streamed";
    in_flight_gauge = Obs.Registry.gauge registry "serve.in_flight";
    latency_us = Obs.Registry.histogram registry "serve.latency_us";
    queue_wait_us = Obs.Registry.histogram registry "serve.queue_wait_us";
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stop t = Atomic.set t.stop_flag true
let capacity t = t.cfg.workers + t.cfg.queue_depth

let stats_pairs t =
  locked t (fun () ->
      [
        ("serve.accepted", Obs.Metric.count t.accepted);
        ("serve.completed", Obs.Metric.count t.completed);
        ("serve.rejected_overload", Obs.Metric.count t.rejected_overload);
        ("serve.bad_request", Obs.Metric.count t.bad_request);
        ("serve.disconnects", Obs.Metric.count t.disconnects);
        ("serve.errors", Obs.Metric.count t.errors);
        ("serve.hits_streamed", Obs.Metric.count t.hits_streamed);
        ("serve.in_flight", Obs.Metric.value t.in_flight_gauge);
        ("serve.in_flight_peak", Obs.Metric.peak t.in_flight_gauge);
        ("serve.capacity", capacity t);
        ("serve.requests", Obs.Metric.hist_count t.latency_us);
        ("serve.latency_us_p50", Obs.Metric.quantile t.latency_us 0.5);
        ("serve.latency_us_p99", Obs.Metric.quantile t.latency_us 0.99);
        ("serve.latency_us_max", Obs.Metric.hist_max t.latency_us);
        ("serve.queue_wait_us_p50", Obs.Metric.quantile t.queue_wait_us 0.5);
        ("serve.queue_wait_us_p99", Obs.Metric.quantile t.queue_wait_us 0.99);
      ])

let tick t c = locked t (fun () -> Obs.Metric.incr c)
let us_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)
let send fd resp = Protocol.write_frame fd (Protocol.encode_response resp)

(* Best-effort reply on a connection we are about to drop (reject or
   error): never block past the send timeout, never raise. *)
let send_final fd resp =
  try send fd resp with Unix.Unix_error _ | Invalid_argument _ -> ()

(* An admitted connection. Its admission slot goes back as the final
   frame goes out, not when the task ends: a client that reads its
   reply and at once connects again must find the daemon idle. The
   pool task that still holds a worker only has the close left, and a
   newly admitted task waits in the pool queue for it. *)
type conn = { fd : Unix.file_descr; mutable admitted : bool }

let release t c =
  locked t (fun () ->
      if c.admitted then begin
        c.admitted <- false;
        t.in_flight <- t.in_flight - 1;
        Obs.Metric.set t.in_flight_gauge t.in_flight
      end)

(* The last frame of an admitted connection. *)
let reply t c resp =
  release t c;
  send_final c.fd resp

let wire_outcome = function
  | Oasis.Engine.Complete -> Protocol.Complete
  | Oasis.Engine.Exhausted { remaining_bound } ->
    Protocol.Exhausted { remaining_bound }
  | Oasis.Engine.Searching ->
    (* Only reachable when the client's own max_hits cap stopped the
       stream; the client knows its cap was the reason. *)
    Protocol.Complete

let serve_search t (worker : Backend.worker) c (s : Protocol.search) =
  match Backend.parse ~alphabet:t.cfg.alphabet s with
  | Error msg ->
    tick t t.bad_request;
    reply t c (Protocol.Reject (Protocol.Bad_request msg))
  | Ok (query, config, max_hits, seed) ->
    let t0 = Unix.gettimeofday () in
    let stream = worker.search ~query ~config ~seed in
    Fun.protect ~finally:stream.finish @@ fun () ->
    let cap = match max_hits with Some n -> n | None -> max_int in
    let disconnected = ref false in
    let hits = ref 0 in
    (try
       while (not !disconnected) && !hits < cap do
         match stream.next () with
         | None -> raise Exit
         | Some h ->
           send c.fd
             (Protocol.Hit
                {
                  seq_index = h.Oasis.Hit.seq_index;
                  score = h.Oasis.Hit.score;
                  query_stop = h.Oasis.Hit.query_stop;
                  target_stop = h.Oasis.Hit.target_stop;
                  seq_id = stream.seq_id h.Oasis.Hit.seq_index;
                });
           incr hits
       done
     with
    | Exit -> ()
    | Unix.Unix_error
        ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN | Unix.EAGAIN), _, _)
      ->
      (* The client hung up mid-stream (its prerogative: every hit it
         already has is final) — abort this search's remaining work. *)
      disconnected := true);
    locked t (fun () -> Obs.Metric.add t.hits_streamed !hits);
    if !disconnected then tick t t.disconnects
    else begin
      let outcome = wire_outcome (stream.outcome ()) in
      reply t c
        (Protocol.Done { outcome; hits = !hits; wall_us = us_since t0 });
      tick t t.completed
    end

let serve_request t worker c = function
  | Protocol.Search s -> serve_search t worker c s
  | Protocol.Ping ->
    reply t c Protocol.Pong;
    tick t t.completed
  | Protocol.Stats ->
    reply t c (Protocol.Stats_reply (stats_pairs t));
    tick t t.completed
  | Protocol.Sleep ms ->
    if t.cfg.allow_sleep then begin
      Unix.sleepf (float_of_int ms /. 1000.);
      reply t c Protocol.Pong;
      tick t t.completed
    end
    else begin
      tick t t.bad_request;
      reply t c
        (Protocol.Reject (Protocol.Bad_request "sleep verb is disabled"))
    end
  | Protocol.Shutdown ->
    stop t;
    reply t c Protocol.Pong;
    tick t t.completed

let handle_conn t worker c ~accepted_at =
  locked t (fun () -> Obs.Metric.observe t.queue_wait_us (us_since accepted_at));
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO t.cfg.recv_timeout;
  Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO 30.;
  (match Protocol.read_request (Protocol.reader_of_fd c.fd) with
  | Error Protocol.Closed -> tick t t.disconnects
  | Error e ->
    tick t t.bad_request;
    reply t c (Protocol.Reject (Protocol.Bad_request (Protocol.error_to_string e)))
  | Ok req -> serve_request t worker c req);
  locked t (fun () -> Obs.Metric.observe t.latency_us (us_since accepted_at))

(* One pool task per admitted connection. At most [workers] tasks run
   concurrently (that is the pool's size), so the free-slot stack can
   never be empty when a task starts. *)
let conn_task t fd accepted_at () =
  let c = { fd; admitted = true } in
  let worker =
    locked t (fun () ->
        match t.slots with
        | [] -> assert false
        | w :: rest ->
          t.slots <- rest;
          w)
  in
  Fun.protect
    ~finally:(fun () ->
      release t c;
      locked t (fun () -> t.slots <- worker :: t.slots);
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try handle_conn t worker c ~accepted_at
      with e ->
        tick t t.errors;
        reply t c
          (Protocol.Reject (Protocol.Server_error (Printexc.to_string e))))

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let admit t pool fd =
  let accepted_at = Unix.gettimeofday () in
  let verdict =
    locked t (fun () ->
        if Atomic.get t.stop_flag then `Reject Protocol.Shutting_down
        else if t.in_flight >= capacity t then begin
          Obs.Metric.incr t.rejected_overload;
          `Reject
            (Protocol.Overloaded { in_flight = t.in_flight; capacity = capacity t })
        end
        else begin
          t.in_flight <- t.in_flight + 1;
          Obs.Metric.set t.in_flight_gauge t.in_flight;
          Obs.Metric.incr t.accepted;
          `Admit
        end)
  in
  match verdict with
  | `Admit -> Oasis.Domain_pool.submit pool (conn_task t fd accepted_at)
  | `Reject reason ->
    (* The whole point of admission control: the refusal is immediate
       and typed, not a hang. Bound the send so a slow-reading client
       cannot stall the accept loop. *)
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.;
    send_final fd (Protocol.Reject reason);
    (try Unix.close fd with Unix.Unix_error _ -> ())

let run t =
  locked t (fun () ->
      if t.started then invalid_arg "Server.run: already ran";
      t.started <- true);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers = Array.init t.cfg.workers t.make_worker in
  t.slots <- Array.to_list workers;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      unlink_quiet t.cfg.socket_path;
      Array.iter (fun (w : Backend.worker) -> w.close ()) workers)
    (fun () ->
      unlink_quiet t.cfg.socket_path;
      Unix.bind lfd (Unix.ADDR_UNIX t.cfg.socket_path);
      Unix.listen lfd 64;
      let pool = Oasis.Domain_pool.create ~domains:t.cfg.workers in
      Fun.protect
        ~finally:(fun () -> Oasis.Domain_pool.shutdown pool)
        (fun () ->
          while not (Atomic.get t.stop_flag) do
            match Unix.select [ lfd ] [] [] 0.2 with
            | [], _, _ -> ()
            | _ :: _, _, _ -> (
              match Unix.accept lfd with
              | fd, _ -> admit t pool fd
              | exception
                  Unix.Unix_error
                    ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                      | Unix.ECONNABORTED ),
                      _,
                      _ ) ->
                ())
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done))
