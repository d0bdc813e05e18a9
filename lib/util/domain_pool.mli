(** A process-wide pool of worker domains for embarrassingly parallel
    batches.

    The sweep layers of the design flow (design-space exploration,
    minimum-frequency grids, benchmark figures, the daemon's request
    batches) and the simulator's GT pass (one task per GT connection
    run alone, above [Noc_sim.Simulator.gt_pool_floor]) all reduce to
    "run these independent closures and give me the results in
    order".  Spawning a [Domain.t] per closure costs a
    fresh minor heap and a kernel thread every call; this module
    instead spawns the workers once per process and feeds them batches
    through a chunked, atomically-claimed task queue (each participant
    steals the next unclaimed chunk of indices, so uneven task costs
    balance out).  The mesh-size growth search itself
    ({!Noc_core.Mapping.map_design}) is sequential and never submits a
    batch.

    Guarantees:
    - results come back ordered by task index, independent of how the
      chunks were scheduled across workers;
    - an exception raised by a task is captured and re-raised in the
      submitter, with the lowest-index failure winning — exactly what a
      left-to-right sequential run of the same closures would raise;
    - a task that itself submits a batch (e.g. a [Min_freq] probe
      inside a benchmark figure's pool task) runs that nested batch
      inline on its own domain, so the pool never deadlocks and never
      oversubscribes the machine;
    - with one job (or on a single-core machine) everything runs inline
      on the calling domain — no domains are spawned at all.

    Traced runs record one [pool:chunk] span per chunk on the domain
    that ran it, and a [pool:wait] span for the submitter's wait for
    the helpers after it has drained the queue itself. *)

val default_jobs : unit -> int
(** Worker budget used when [?jobs] is omitted.  Initially
    [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Override the default worker budget (the CLI [--jobs N] knob).
    Values below 1 are clamped to 1. *)

val effective_jobs : ?jobs:int -> unit -> int
(** The parallelism a batch submitted right now would actually get:
    [jobs] (or the default), clamped to 1 inside a pool worker (nested
    batches run inline). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element, evaluating up to [jobs]
    elements concurrently, and returns the results in list order. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array counterpart of {!map}. *)

val shutdown : unit -> unit
(** Join the worker domains (registered via [at_exit]; callable
    directly from tests).  The pool respawns on the next submission. *)
