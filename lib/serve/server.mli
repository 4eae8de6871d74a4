(** The always-on search daemon.

    One Unix-domain listening socket; each accepted connection carries
    one {!Protocol.request} and its response stream. Admission control
    happens {e at accept time}, under one mutex: at most [workers +
    queue_depth] connections are in flight, and anything beyond that is
    answered immediately with a typed [Overloaded] reject — an
    overloaded daemon fails fast instead of hanging clients. A
    connection leaves the count as its last frame is sent, so a client
    that sends requests one after another is never refused.

    Admitted connections become tasks on an {!Oasis.Domain_pool} of
    [workers] domains. Each running task borrows one {!Backend.worker}
    from a pool-sized stack (at most [workers] tasks run at once, so a
    slot is always free), reads the request, and serves it:

    - [Search] streams one [Hit] frame per result as the engine emits
      it — online, non-increasing scores — then a [Done] frame with the
      outcome and wall time. A client that hangs up mid-stream aborts
      the remaining work for that request only.
    - [Stats] returns the SLO counters and latency quantiles.
    - [Shutdown] answers [Pong] and stops the accept loop; in-flight
      requests drain before {!run} returns and unlinks the socket. *)

type config = {
  socket_path : string;
  alphabet : Bioseq.Alphabet.t;
  workers : int;  (** worker domains; >= 1 *)
  queue_depth : int;
      (** connections admitted beyond the running [workers]; 0 means
          reject whenever every worker is busy *)
  allow_sleep : bool;
      (** honor the {!Protocol.request.Sleep} verb (load-testing only) *)
  recv_timeout : float;
      (** seconds an admitted connection may take to send its request
          before the server drops it *)
}

val config :
  ?workers:int ->
  ?queue_depth:int ->
  ?allow_sleep:bool ->
  ?recv_timeout:float ->
  alphabet:Bioseq.Alphabet.t ->
  socket_path:string ->
  unit ->
  config
(** Defaults: 4 workers, queue depth 16, sleep disabled, 10 s receive
    timeout. Raises [Invalid_argument] on a non-positive worker count
    or negative queue depth. *)

type t

val create : config -> make_worker:(int -> Backend.worker) -> t
(** [make_worker i] builds worker [i]'s backend; all are created at the
    start of {!run} (in its thread, before the first accept). *)

val run : t -> unit
(** Bind, listen, and serve until a [Shutdown] request or {!stop}.
    Replaces any stale socket file at the path; unlinks it again, after
    draining in-flight requests, on the way out. Ignores [SIGPIPE] for
    the whole process (streaming to vanishing clients is normal
    operation). Can only be called once. *)

val stop : t -> unit
(** Ask the accept loop to wind down (thread-safe, returns
    immediately). [run] notices within its accept tick (~0.2 s). *)

val stats_pairs : t -> (string * int) list
(** The SLO snapshot the [Stats] verb serves: request counters
    (accepted / completed / rejected_overload / bad_request /
    disconnects / errors / hits_streamed), the in-flight gauge, and
    p50/p99 of the end-to-end latency and queue-wait histograms
    (microseconds, from {!Obs} histograms — quantiles are upper bucket
    bounds, within 2x). Deterministic key order. *)
