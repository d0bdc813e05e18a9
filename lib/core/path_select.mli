(** Unified path selection and TDMA slot reservation (paper §5,
    following the single-use-case approach of [20]).

    A flow is routed on the least-cost path whose links can still carry
    it; the cost of a link combines hop delay and residual
    bandwidth/slot pressure, so heavily loaded regions are avoided.
    Reservation is done immediately — path selection and resource
    reservation are *unified* with mapping, which prunes infeasible
    placements early.

    The starting slots a path can take are found by intersecting
    rotated free-slot bitmasks ({!common_starts}); the straightforward
    list intersection it replaced is its oracle, kept with the tests
    ([test/oracle/reference_starts.ml]). *)

type request = {
  conn_id : int;             (** unique connection id (slot-table owner) *)
  flow : Noc_traffic.Flow.t;
  src_switch : int;
  dst_switch : int;
}

type scratch
(** Working storage for routing on one mesh under one configuration:
    the shortest-path arrays and heap, the shared-start mask and its
    candidate array.  The mapping engine makes one per attempt and
    passes it to every call, so routing allocates no per-call arrays;
    without one, each call makes its own.  Not safe to share between
    domains. *)

val scratch : config:Noc_arch.Noc_config.t -> mesh:Noc_arch.Mesh.t -> scratch

val route : state:Resources.t -> request -> (Noc_arch.Route.t, string) result
(** Route and reserve one flow in one use-case.  On success the state
    is updated (slots reserved, NI budget charged); on failure the
    state is untouched. *)

val route_shared :
  ?scratch:scratch ->
  ?passive:Resources.t list ->
  members:(Resources.t * request) list ->
  unit ->
  (Noc_arch.Route.t list, string) result
(** Group-shared routing (paper §5, step 6): use-cases in one
    smooth-switching group must use the same path and slot-table
    reservation.  The path is selected for the member with the maximum
    bandwidth; starting slots must be free in *every* member's tables;
    reservation is performed in each member at that maximum bandwidth.
    All requests must connect the same switch pair.

    [passive] lists the states of group members that do not carry this
    flow themselves but share the group's single configuration: the
    same slots are reserved there too (owned by the first member's
    connection id), keeping every member's slot tables identical.

    The feasible shared starting slots come from {!common_starts}.

    On failure no state is modified. *)

val route_be :
  ?scratch:scratch -> state:Resources.t -> request -> (Noc_arch.Route.t, string) result
(** Route one best-effort flow: a least-cost path is chosen (avoiding
    links already hot with guaranteed traffic), but no slots are
    reserved and no resource is charged — BE traffic rides on leftover
    slots at run time and has no contract.
    @raise Invalid_argument if the request's flow is guaranteed. *)

val distance_map :
  scratch:scratch ->
  ?state:Resources.t ->
  config:Noc_arch.Noc_config.t ->
  needed_slots:int ->
  source:int ->
  unit ->
  float array
(** Least path cost from [source] to every switch, for the placement
    scan of the mapping loop ([infinity] = unreachable with the needed
    slots).  Without [state] the costs are those of a use-case that
    holds no reservation yet, computed without any slot table.  The
    result is [scratch]'s live array: read it before the next routing
    call on the same scratch. *)

val common_starts :
  acc:Noc_arch.Bitmask.t -> candidates:int array -> Resources.t list -> int list -> int
(** The starting slots free on every hop of the path [links] (first
    hop first) in every one of the states: each hop's free mask,
    rotated by its hop number, is ANDed into [acc] (refilled first; its
    size is the slot-table size), and the surviving slots are written,
    increasing, to the front of [candidates] (room for every slot);
    returns their count.  Exposed for the oracle tests, which pin it to
    the straightforward list intersection. *)

val pick_starts :
  config:Noc_arch.Noc_config.t ->
  candidates:int array ->
  n:int ->
  taken:Bytes.t ->
  needed:int ->
  hops:int ->
  lat_req:Noc_util.Units.latency ->
  (int list, string) result
(** The smallest spread set of starting slots, at least [needed] of
    the [n] strictly increasing [candidates], whose
    {!Noc_arch.Tdma.worst_case_latency_ns} on a [hops]-link path meets
    [lat_req]: the count escalates from [needed] with
    {!Noc_arch.Tdma.mark_spread} on [taken] (room for [n]).  Exposed
    for the oracle tests. *)

val hop_weight : float
(** Cost of traversing one link (the fixed component). *)

val util_weight : float
(** Scale of the congestion component: a fully utilised link costs
    [hop_weight + util_weight] per hop. *)
