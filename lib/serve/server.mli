(** The [nocmap serve] daemon: a single-threaded select loop over a
    Unix-domain socket, scheduling batches onto the shared
    {!Noc_util.Domain_pool}.

    {2 Concurrency model}

    No thread library: the loop multiplexes non-blocking client
    sockets with [Unix.select], and executes each drained batch of
    requests {e synchronously} through {!Service.execute_batch}.
    While a batch runs, new connections backlog in the listen queue
    and new request lines accumulate in kernel socket buffers — the
    next loop iteration drains them all at once, so load arriving
    during a computation forms the next batch naturally (and the
    wider the batch, the more single-flight coalescing pays off).
    [linger_ms] widens batches further by holding a non-empty queue
    open for that long before executing.

    {2 Admission control}

    Three layers, each answered with a structured {!Protocol.Failure}
    rather than a stalled socket:
    - a client that exceeds [max_inflight] queued requests gets
      [Too_many_inflight] (with [retry_after_ms]);
    - when the pending queue holds [max_queue] requests the server is
      saturated and sheds with [Overloaded] (with [retry_after_ms]);
    - once draining begins, executable requests get [Shutting_down].

    {2 Shutdown}

    [shutdown] requests, {!stop}, and (when [install_signals])
    SIGTERM/SIGINT all trigger the same drain: the listen socket
    closes (new connections are refused by the OS), queued work
    executes, every response flushes, the mapping cache's persistent
    tier is flushed ({!Noc_core.Mapping_cache.flush}), and the socket
    path is unlinked before {!run} returns.

    {2 Metrics}

    The loop feeds the process-wide {!Noc_obs.Metrics} registry:
    [serve.requests], [serve.responses], [serve.coalesced],
    [serve.shed], [serve.batches], [serve.clients] and
    [serve.queue_depth] gauges, and [serve.batch_size] /
    [serve.latency_ns] histograms (admission-to-response wall time).
    A [stats] request returns the registry's JSON snapshot. *)

type config = {
  socket_path : string;
  max_queue : int;        (** pending-request cap across all clients *)
  max_inflight : int;     (** per-client queued-request cap *)
  linger_ms : float;      (** batching window once the queue is non-empty *)
  retry_after_ms : int;   (** backoff hint attached to load-shed failures *)
  install_signals : bool; (** drain on SIGTERM/SIGINT (the CLI sets this;
                              tests use {!stop} instead) *)
}

val default_config : socket_path:string -> config
(** [max_queue 64], [max_inflight 8], no linger, [retry_after_ms 50],
    no signal handlers. *)

val stop : unit -> unit
(** Ask the running server to drain and return — the same path a
    SIGTERM takes.  Callable from any domain or from a signal
    handler; idempotent; a no-op when no server is running. *)

val run : config -> (unit, string) result
(** Bind the socket and serve until a shutdown request, {!stop}, or a
    handled signal.  Blocks the calling domain.  Errors when the
    socket cannot be bound (e.g. the path is taken by a live server).
    A stale socket file whose server is gone is replaced.  At most
    one server may run per process at a time. *)
