(** Slot-accurate simulation of one NoC configuration.

    Substitute for the paper's SystemC/VHDL phase-4 simulation: the
    same contention-free TDMA discipline is executed slot by slot.
    Each guaranteed-throughput connection offers fluid traffic at its
    contracted bandwidth; a flit of one slot's payload departs whenever
    one of the connection's reserved starting slots comes around, and
    reaches the destination [hops] slots later.  The simulator
    independently rebuilds the (link, slot) occupancy from the routes
    ({!Noc_arch.Activation}) and reports any collision — a disagreement
    would mean the mapper's slot tables are wrong.

    Best-effort connections (paper Sec 2's second Aethereal traffic
    class) are forwarded hop by hop over slots the GT schedule leaves
    free, with per-link round-robin arbitration between BE streams;
    they get whatever is left and no latency bound.

    Two cores execute that semantics.  The [`Event] core (default)
    precomputes per-slot activation indexes and drives an
    {!Event_wheel} so it steps only slots in which traffic arrives or
    a queue can drain, jumping over idle ranges — the fast path for
    bursty and trace-driven workloads whose slots are mostly empty.
    The [`Reference] core is the pinned tick loop stepping every slot.
    Both run the same per-slot operations in the same order, so their
    results are byte-identical on every source mix (pinned by a QCheck
    property in [test_sim.ml] and a CI [cmp] job).

    GT connections run alone.  A GT connection with a fluid or on/off
    source interacts with nothing: its launches are fixed by its
    reserved starts, it owns a single queue, and best-effort traffic
    only uses the slots GT leaves free.  The event core therefore runs
    each such connection on its own over the whole horizon (the GT
    pass, traced as [sim:gt]) with an implicit queue and no per-slot
    allocation, performing the reference's float operations in the
    reference's order; only BE connections, same-switch BE connections
    and replay sources go through the calendar ([sim:event-loop]).
    Measured on example1's first use-case (release build, 2-vCPU VM):
    3200 fluid slots 1.22 -> 0.20 ms, 32000 bursty slots 0.56 -> 0.12
    ms.
    [sim.events] and [sim.skipped_slots] count the calendar's slots,
    so a GT-only configuration reports every slot as skipped. *)

type conn_stats = {
  flow_id : int;
  src_core : int;
  dst_core : int;
  service : Noc_arch.Route.service;
  offered_mbps : float;     (** contracted (GT) or offered (BE) bandwidth *)
  delivered_mbps : float;   (** measured over the simulated window *)
  mean_latency_ns : float;  (** mean chunk latency (queueing + transit) *)
  max_latency_ns : float;
  bound_ns : float;         (** the analytic worst-case bound; [infinity] for BE *)
  final_backlog_bytes : float;  (** source queue left at the end *)
  max_backlog_bytes : float;
      (** peak queue occupancy — compare with
          {!Noc_arch.Ni_buffer.required_bytes} *)
}

type source =
  | Fluid
      (** constant-rate arrivals at the connection's bandwidth (default) *)
  | On_off of {
      period_slots : int;  (** burst cycle length *)
      duty : float;        (** fraction of the cycle that is ON, in (0, 1] *)
    }
      (** bursty arrivals: the mean rate stays the connection's
          bandwidth, but it arrives at [bandwidth/duty] during the ON
          phase and not at all during the OFF phase — video-frame-style
          traffic.  GT reservations smooth such bursts at the cost of
          NI buffering. *)
  | Replay of Trace.t
      (** replay an explicit packet trace (see {!Trace}); the
          connection's nominal bandwidth is ignored for arrivals *)

type result = {
  duration_slots : int;
  slot_ns : float;   (** slot duration used, for slack computations *)
  collisions : int;  (** (link, slot) claimed by two connections *)
  conns : conn_stats list;
}

type core =
  [ `Event     (** activation-indexed event-calendar core: skips idle
                   slots; the default *)
  | `Reference (** the pinned tick loop stepping every slot *) ]

val simulate_with :
  core:core ->
  sources:(int * source) list ->
  config:Noc_arch.Noc_config.t ->
  routes:Noc_arch.Route.t list ->
  duration_slots:int ->
  result
(** Simulate the routes of one use-case configuration for
    [duration_slots] slots on the selected core, with the arrival
    process of individual connections overridden by flow id
    (connections not named fall back to [Fluid]).  The source list is
    validated before the first slot runs.  Both cores return
    byte-identical results.
    @raise Invalid_argument when [duration_slots <= 0], a source names
    a flow id matching no route or one already named, an on/off shape
    is malformed
    ([period_slots <= 0] or [duty] outside (0, 1]), or a trace fails
    {!Trace.validate}. *)

val simulate :
  config:Noc_arch.Noc_config.t ->
  routes:Noc_arch.Route.t list ->
  duration_slots:int ->
  result
(** [simulate_with ~core:`Event ~sources:[]] — fluid sources on the
    event core. *)

val simulate_sources :
  sources:(int * source) list ->
  config:Noc_arch.Noc_config.t ->
  routes:Noc_arch.Route.t list ->
  duration_slots:int ->
  result
(** [simulate_with ~core:`Event] — source overrides on the event
    core. *)

val within_contract : ?tolerance:float -> result -> bool
(** True when every *guaranteed* connection delivered at least
    [(1 - tolerance) x offered] bandwidth (default tolerance 2 %),
    every measured GT latency is within its analytic bound plus one
    slot of boundary slack, and no collision occurred.  Best-effort
    connections carry no contract and are not checked. *)

val pp_result : Format.formatter -> result -> unit
